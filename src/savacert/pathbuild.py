"""Certificate graph and candidate-chain discovery.

Chains are simple paths over name chaining (subject of each certificate is
the issuer of the next), rooted at a trust anchor and ending at the target.
No signature or revocation checking happens here; discovery only proposes
candidates for validation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .certs import Certificate, Name, fingerprint


class PathError(Exception):
    pass


class TargetNotInGraph(PathError):
    pass


class NoPathFound(PathError):
    pass


class UnorderableSet(PathError):
    pass


@dataclass(frozen=True)
class CandidateChain:
    """Certificates from the anchor's first issuance down to the target.
    The anchor itself is not a chain member."""

    anchor: Certificate
    certs: tuple[Certificate, ...]

    @property
    def target(self) -> Certificate:
        return self.certs[-1]


class CertGraph:
    """Immutable certificate store indexed for chain walking.  Graphs derived
    from it share its index lists, so no graph appends to a list in place."""

    def __init__(self, certificates, anchor_fingerprints):
        self.nodes: dict[bytes, Certificate] = {}
        self.by_issuer: dict[Name, list[bytes]] = {}
        self.by_subject: dict[Name, list[bytes]] = {}
        self._add(certificates)
        self._set_anchors(anchor_fingerprints)

    def _add(self, certificates) -> None:
        for cert in certificates:
            fp = fingerprint(cert)
            if fp in self.nodes:
                continue
            self.nodes[fp] = cert
            self.by_issuer[cert.issuer] = [
                *self.by_issuer.get(cert.issuer, ()), fp]
            self.by_subject[cert.subject] = [
                *self.by_subject.get(cert.subject, ()), fp]

    def _set_anchors(self, anchor_fingerprints) -> None:
        self.anchor_fps = frozenset(anchor_fingerprints)
        # anchor fingerprints per subject name, ascending
        self.anchors_by_subject: dict[Name, list[bytes]] = {}
        for fp in sorted(self.anchor_fps):
            if fp not in self.nodes:
                raise PathError(f"anchor {fp.hex()} not in graph")
            self.anchors_by_subject.setdefault(
                self.nodes[fp].subject, []).append(fp)

    def with_anchors(self, anchor_fingerprints) -> "CertGraph":
        """The same certificates under another anchor set."""
        graph = copy.copy(self)
        graph._set_anchors(anchor_fingerprints)
        return graph

    def with_extra(self, certificates) -> "CertGraph":
        """This graph plus ``certificates``; this graph is left as it is."""
        graph = copy.copy(self)
        graph.nodes = dict(self.nodes)
        graph.by_issuer = dict(self.by_issuer)
        graph.by_subject = dict(self.by_subject)
        graph._add(certificates)
        return graph


def discover(graph: CertGraph, target: Certificate,
             max_length: int = 8) -> list[CandidateChain]:
    """Every loop-free anchor-to-target chain of at most ``max_length``
    certificates, found by walking from the target up through issuers
    (RFC 4158 section 3).  Chains are ordered by length, then by the member
    fingerprints from the anchor's first issuance down to the target, then
    by the anchor's fingerprint."""
    if max_length < 1:
        raise ValueError("max_length must be positive")
    target_fp = fingerprint(target)
    if target_fp not in graph.nodes:
        raise TargetNotInGraph(target_fp.hex())

    found: list[tuple[tuple, CandidateChain]] = []

    def climb(fps: tuple[bytes, ...], chain: tuple[Certificate, ...]) -> None:
        issuer = chain[0].issuer
        for anchor_fp in graph.anchors_by_subject.get(issuer, ()):
            found.append(((len(fps), fps, anchor_fp),
                          CandidateChain(graph.nodes[anchor_fp], chain)))
        if len(fps) >= max_length:
            return
        for fp in graph.by_subject.get(issuer, ()):
            if fp not in graph.anchor_fps and fp not in fps:
                climb((fp, *fps), (graph.nodes[fp], *chain))

    climb((target_fp,), (target,))
    found.sort(key=lambda item: item[0])
    return [chain for _, chain in found]


def _order_pool(by_fp: dict[bytes, Certificate], target_fp: bytes):
    """Backtracking name-chaining sort of the supplied set into one chain
    ending at the target; None when no complete ordering exists."""
    remaining = set(by_fp) - {target_fp}

    def extend(chain: list[Certificate]):
        if not remaining:
            return chain
        head = chain[0]
        for fp in sorted(remaining):
            cert = by_fp[fp]
            if cert.subject == head.issuer:
                remaining.discard(fp)
                solution = extend([cert] + chain)
                if solution is not None:
                    return solution
                remaining.add(fp)
        return None

    return extend([by_fp[target_fp]])


def supplied_chain(graph: CertGraph, extras, target: Certificate,
                   max_length: int = 8) -> CandidateChain:
    """Order a client-supplied certificate set into a single chain; complete
    it from ``graph``, which already holds the target and ``extras``, when
    the supplied set does not reach an anchor."""
    target_fp = fingerprint(target)
    # a supplied trust-anchor duplicate is the anchor, not a chain member
    pool = {fingerprint(c): c for c in extras}
    pool = {fp: c for fp, c in pool.items() if fp not in graph.anchor_fps}
    pool[target_fp] = target
    if len(pool) > max_length:
        raise UnorderableSet(f"{len(pool)} supplied certificate(s) exceed "
                             f"the {max_length}-certificate chain bound")
    ordered = _order_pool(pool, target_fp)
    if ordered is None:
        raise UnorderableSet(
            f"{len(pool)} supplied certificate(s) do not form one chain")
    anchor_fps = graph.anchors_by_subject.get(ordered[0].issuer)
    if anchor_fps:
        return CandidateChain(graph.nodes[anchor_fps[0]], tuple(ordered))
    chains = discover(graph, target, max_length)
    if not chains:
        raise NoPathFound("supplied set does not connect to a trust anchor")
    return chains[0]
