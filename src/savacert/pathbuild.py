"""Certificate graph and candidate-chain discovery.

Chains are simple paths over name chaining (subject of each certificate is
the issuer of the next), rooted at a trust anchor and ending at the target.
No signature or revocation checking happens here; discovery only proposes
candidates for validation.
"""

from __future__ import annotations

import copy
import enum
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


class Direction(enum.Enum):
    FORWARD = "forward"   # walk target -> issuers, then reverse
    REVERSE = "reverse"   # walk anchor -> subjects


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
        missing = [fp for fp in self.anchor_fps if fp not in self.nodes]
        if missing:
            raise PathError(f"anchor {missing[0].hex()} not in graph")

    @property
    def anchors(self) -> list[Certificate]:
        return [self.nodes[fp] for fp in sorted(self.anchor_fps)]

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


def _chain_sort_key(chain: CandidateChain):
    return (len(chain.certs),
            tuple(fingerprint(c) for c in chain.certs),
            fingerprint(chain.anchor))


def discover(graph: CertGraph, target: Certificate,
             direction: Direction = Direction.FORWARD,
             max_length: int = 8) -> list[CandidateChain]:
    """Every loop-free anchor-to-target chain of length <= max_length,
    ordered by (length, fingerprint sequence).  Both directions return the
    same set; they differ only in traversal."""
    if max_length < 1:
        raise ValueError("max_length must be positive")
    target_fp = fingerprint(target)
    if target_fp not in graph.nodes:
        raise TargetNotInGraph(target_fp.hex())

    anchors_by_subject: dict[Name, list[Certificate]] = {}
    for anchor in graph.anchors:
        anchors_by_subject.setdefault(anchor.subject, []).append(anchor)

    results: list[CandidateChain] = []

    if direction is Direction.FORWARD:
        def climb(used: frozenset, chain: list[Certificate]) -> None:
            head = chain[0]
            for anchor in anchors_by_subject.get(head.issuer, []):
                results.append(CandidateChain(anchor, tuple(chain)))
            if len(chain) >= max_length:
                return
            for fp in graph.by_subject.get(head.issuer, []):
                if fp in graph.anchor_fps or fp in used:
                    continue
                climb(used | {fp}, [graph.nodes[fp]] + chain)

        climb(frozenset({target_fp}), [target])
    else:
        def descend(at: Name, used: frozenset, chain: list[Certificate],
                    anchor: Certificate) -> None:
            for fp in graph.by_issuer.get(at, []):
                if fp in used or len(chain) + 1 > max_length:
                    continue
                if fp in graph.anchor_fps and fp != target_fp:
                    continue
                cert = graph.nodes[fp]
                if fp == target_fp:
                    results.append(CandidateChain(anchor, tuple(chain + [cert])))
                    continue  # chains end at the target
                descend(cert.subject, used | {fp}, chain + [cert], anchor)

        for anchor in graph.anchors:
            descend(anchor.subject, frozenset(), [], anchor)

    results.sort(key=_chain_sort_key)
    return results


def _order_pool(pool: list[Certificate], target: Certificate):
    """Backtracking name-chaining sort of the supplied set into one chain
    ending at the target; None when no complete ordering exists."""
    target_fp = fingerprint(target)
    by_fp = {fingerprint(c): c for c in pool}
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

    return extend([target])


def supplied_chain(graph: CertGraph, extras, target: Certificate,
                   max_length: int = 8) -> CandidateChain:
    """Order a client-supplied certificate set into a single chain; complete
    it from the repository when the supplied set does not reach an anchor."""
    target_fp = fingerprint(target)
    pool_by_fp = {fingerprint(c): c for c in list(extras) + [target]}
    # a supplied trust-anchor duplicate is the anchor, not a chain member
    pool = [c for fp, c in sorted(pool_by_fp.items())
            if fp == target_fp or fp not in graph.anchor_fps]
    ordered = _order_pool(pool, target)
    if ordered is None:
        raise UnorderableSet(
            f"{len(pool)} supplied certificate(s) do not form one chain")
    for anchor in graph.anchors:
        if anchor.subject == ordered[0].issuer:
            return CandidateChain(anchor, tuple(ordered))
    chains = discover(graph.with_extra(pool), target, Direction.FORWARD,
                      max_length)
    if not chains:
        raise NoPathFound("supplied set does not connect to a trust anchor")
    return chains[0]
