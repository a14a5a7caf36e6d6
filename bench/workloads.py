"""The benchmark's workloads: a forge topology per workload, the target
order a run sends, the verdict each target must get, and the input
properties every run records.

Everything here is derived from the topology spec, never from the server,
so the oracle stays independent of the code under test.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

POLICY = "1.3.6.1.4.1.57264.8.1"
REVOKED_AT = "20250102000000Z"
MAX_CHAIN_LENGTH = 8  # the server's default policy limit


@dataclass(frozen=True)
class Workload:
    name: str
    regime: str  # the server policy's revocation regime
    want_backs: tuple[str, ...]  # WantBack member names put in each request
    roots: tuple[str, ...]
    cas: tuple[str, ...]
    ees: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (issuer, subject)
    revoked: tuple[tuple[str, str], ...]  # (issuer, subject) on a CRL

    def spec_text(self, seed: int) -> str:
        lines = ["[pki]", f"seed = {seed}"]
        for labels, kind in ((self.roots, "rootCa"), (self.cas, "subCa"),
                             (self.ees, "endEntity")):
            for label in labels:
                lines += [f"[entity {label}]", f"kind = {kind}",
                          f"policies = {POLICY}"]
        lines.append("[edges]")
        lines += [f"{issuer} -> {subject}" for issuer, subject in self.edges]
        if self.revoked:
            lines.append("[revocations]")
            lines += [f"{issuer} {subject} {REVOKED_AT} keyCompromise"
                      for issuer, subject in self.revoked]
        return "\n".join(lines) + "\n"

    @property
    def certificate_count(self) -> int:
        return len(self.roots) + len(self.edges)

    @property
    def crl_count(self) -> int:
        return len(set(self.roots) | {issuer for issuer, _ in self.edges})

    @property
    def revoked_ees(self) -> tuple[str, ...]:
        return tuple(subject for _, subject in self.revoked)

    def expected(self, ee: str) -> tuple[str, str | None, int | None]:
        """(status, reason name, failing index) the DVC must carry."""
        if ee not in self.revoked_ees:
            return "valid", None, None
        # discovery orders candidates shortest first and every candidate
        # fails on the revoked end entity, so the first candidate's verdict
        # (the shortest chain) is reported; the anchor is not a member
        return "invalid", "REVOKED", self.shortest_chain(ee) - 1

    def shortest_chain(self, ee: str) -> int:
        """Members (anchor excluded) of the shortest anchor-to-ee chain."""
        depth = {root: 0 for root in self.roots}
        queue = deque(self.roots)
        while queue:
            node = queue.popleft()
            for issuer, subject in self.edges:
                if issuer == node and subject not in depth:
                    depth[subject] = depth[node] + 1
                    queue.append(subject)
        return depth[ee]

    def candidate_chains(self, ee: str) -> int:
        """Loop-free certificate chains from an anchor to ``ee`` of at most
        MAX_CHAIN_LENGTH members, counted over the spec's edges."""
        issuers_of: dict[str, list[tuple[str, str]]] = {}
        for edge in self.edges:
            issuers_of.setdefault(edge[1], []).append(edge)

        def count(subject: str, used: frozenset, length: int) -> int:
            total = 0
            for edge in issuers_of.get(subject, []):
                if edge in used:
                    continue
                issuer = edge[0]
                if issuer in self.roots:
                    total += 1
                elif length < MAX_CHAIN_LENGTH:
                    total += count(issuer, used | {edge}, length + 1)
            return total

        return count(ee, frozenset(), 1)

    def status_lookups(self, ee: str) -> tuple[tuple[str, str], ...]:
        """Revocation lookups (issuer, subject) the first valid chain, or
        for a revoked target the shortest chain, implies."""
        chain = [ee]
        while chain[0] not in self.roots:
            subject = chain[0]
            issuer = min((i for i, s in self.edges if s == subject),
                         key=self.shortest_chain)
            chain.insert(0, issuer)
        return tuple(zip(chain, chain[1:]))

    def target_order(self, order_seed: int):
        """Endless seeded target sequence: each cycle sends every end entity
        once, in blocks that each hold exactly one revoked target, so the
        revoked share is exact at every block boundary."""
        rng = random.Random(order_seed)
        revoked = list(self.revoked_ees)
        valid = [ee for ee in self.ees if ee not in revoked]
        per_block = len(valid) // len(revoked)
        while True:
            rng.shuffle(valid)
            rng.shuffle(revoked)
            for k, bad in enumerate(revoked):
                block = valid[k * per_block:(k + 1) * per_block]
                block.insert(rng.randrange(per_block + 1), bad)
                yield from block


# Why each workload exists is recorded in BENCHMARK.json and README.md.

def _hier221() -> Workload:
    """Root, 20 sub-CAs, 200 end entities; every tenth one is revoked."""
    cas = tuple(f"ca{k:02d}" for k in range(1, 21))
    ees = tuple(f"ee{j:03d}" for j in range(1, 201))
    edges = [("root", ca) for ca in cas]
    edges += [(cas[(j - 1) // 10], ee) for j, ee in enumerate(ees, start=1)]
    revoked = tuple((cas[(j - 1) // 10], ees[j - 1])
                    for j in range(10, 201, 10))
    return Workload("hier221-crl", "crl", (), ("root",), cas, ees,
                    tuple(edges), revoked)


def _mesh3() -> Workload:
    """Root and 3 sub-CAs that all cross-certify each other, 4 end
    entities, one revoked: 14 certificates, 33 chains per target."""
    subs = ("s1", "s2", "s3")
    ees = ("ee1", "ee2", "ee3", "ee4")
    edges = [("root", s) for s in subs]
    edges += [(a, b) for a in subs for b in subs if a != b]
    edges += [("s1", "ee1"), ("s2", "ee2"), ("s3", "ee3"), ("s1", "ee4")]
    return Workload("mesh3-crl", "crl", (), ("root",), subs, ees,
                    tuple(edges), (("s1", "ee4"),))


def _small_online() -> Workload:
    """Root, 2 sub-CAs, 8 end entities, one revoked: 11 certificates."""
    subs = ("s1", "s2")
    ees = tuple(f"ee{j}" for j in range(1, 9))
    edges = [("root", s) for s in subs]
    edges += [(subs[(j - 1) // 4], ee) for j, ee in enumerate(ees, start=1)]
    return Workload("small-online", "online", ("CHAIN", "ONLINE_REPLIES"),
                    ("root",), subs, ees, tuple(edges), (("s2", "ee8"),))


WORKLOADS = {w.name: w for w in (_hier221(), _mesh3(), _small_online())}


def input_properties(workload: Workload, sent: list[str]) -> dict:
    """What a run's inputs look like, so a later cache or lazy-search claim
    can cite the share of the workload that has its property."""
    chains = {ee: workload.candidate_chains(ee) for ee in workload.ees}
    seen: set = set()
    repeated_targets = 0
    for ee in sent:
        repeated_targets += ee in seen
        seen.add(ee)
    queries: list = []
    if workload.regime == "online":
        for ee in sent:
            queries += workload.status_lookups(ee)
    seen_queries: set = set()
    repeated_queries = 0
    for query in queries:
        repeated_queries += query in seen_queries
        seen_queries.add(query)
    revoked = set(workload.revoked_ees)
    return {
        "certificates": workload.certificate_count,
        "crls": workload.crl_count,
        "end_entities": len(workload.ees),
        "candidate_chains_per_target": {
            "min": min(chains.values()), "max": max(chains.values()),
            "mean": sum(chains.values()) / len(chains)},
        "requests_sent": len(sent),
        "revoked_target_share": (sum(ee in revoked for ee in sent)
                                 / len(sent)) if sent else 0.0,
        "repeated_target_share": repeated_targets / len(sent) if sent else 0.0,
        "status_queries": len(queries),
        "repeated_status_query_share": (repeated_queries / len(queries)
                                        if queries else 0.0),
    }
