"""Certificate graph and candidate-chain discovery.

Chains are simple paths over name chaining (subject of each certificate is
the issuer of the next), rooted at a trust anchor and ending at the target.
No signature or revocation checking happens here; discovery only proposes
candidates for validation, and its caller may prune the edges it walks.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .certs import Certificate, Name, fingerprint


class PathError(Exception):
    pass


class TargetNotInGraph(PathError):
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
        self.by_subject: dict[Name, list[bytes]] = {}
        self._add(certificates)
        self._set_anchors(anchor_fingerprints)

    def _add(self, certificates) -> None:
        for cert in certificates:
            fp = fingerprint(cert)
            if fp in self.nodes:
                continue
            self.nodes[fp] = cert
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
        graph.by_subject = dict(self.by_subject)
        graph._add(certificates)
        return graph


def chains(graph: CertGraph, target: Certificate, max_length: int = 8,
           edge_ok=None):
    """Every loop-free anchor-to-target chain of at most ``max_length``
    certificates, walked lazily from the target up through issuers one
    length at a time (RFC 4158 section 3) and ordered by length, member
    fingerprints (anchor side first), then anchor fingerprint.  No edge
    that ``edge_ok(issuer, subject, is_target)`` rejects is walked, and no
    partial chain that cannot reach an anchor within ``max_length`` is
    extended (RFC 4158 section 5)."""
    if max_length < 1:
        raise ValueError("max_length must be positive")
    target_fp = fingerprint(target)
    if target_fp not in graph.nodes:
        raise TargetNotInGraph(target_fp.hex())

    ok = edge_ok or (lambda issuer, subject, is_target: True)
    steps = _steps_to_anchor(graph, target_fp, max_length)
    # partial chains of one length, each with its fingerprints
    partial = [((target_fp,), (target,))] if target_fp in steps else []
    while partial:
        found = []
        for fps, chain in partial:
            for anchor_fp in graph.anchors_by_subject.get(chain[0].issuer, ()):
                anchor = graph.nodes[anchor_fp]
                if ok(anchor, chain[0], len(chain) == 1):
                    found.append(((fps, anchor_fp),
                                  CandidateChain(anchor, chain)))
        found.sort(key=lambda item: item[0])
        yield from (chain for _, chain in found)
        partial = [((fp, *fps), (graph.nodes[fp], *chain))
                   for fps, chain in partial
                   for fp in graph.by_subject.get(chain[0].issuer, ())
                   if fp in steps and len(fps) + steps[fp] <= max_length
                   and fp not in fps
                   and ok(graph.nodes[fp], chain[0], len(chain) == 1)]


def _steps_to_anchor(graph: CertGraph, target_fp: bytes,
                     max_length: int) -> dict:
    """For each certificate the walk from the target can reach, the fewest
    chain members from it, itself included, up to one an anchor issued.
    Anchors, which the walk never adds, and certificates that need more than
    ``max_length`` are left out: a chain through them is a dead end."""
    issuers, todo = {}, [target_fp]
    while todo:
        fp = todo.pop()
        if fp not in issuers:
            issuers[fp] = [up for up in graph.by_subject.get(
                graph.nodes[fp].issuer, ()) if up not in graph.anchor_fps]
            todo.extend(issuers[fp])
    steps = {fp: 1 for fp in issuers
             if graph.nodes[fp].issuer in graph.anchors_by_subject}
    for n in range(2, max_length + 1):
        farther = {fp: n for fp, ups in issuers.items()
                  if fp not in steps and any(up in steps for up in ups)}
        if not farther:
            break
        steps |= farther
    return steps


def discover(graph: CertGraph, target: Certificate,
             max_length: int = 8) -> list[CandidateChain]:
    """Every chain ``chains`` yields, as a list."""
    return list(chains(graph, target, max_length))
