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
