"""Certificate-policy processing across a certification chain, on the
valid-policy graph of RFC 9618.

Every copy of one policy at one depth of RFC 5280's valid_policy_tree has
the same expected set and children, so the tree is kept as a graph: one
node per policy per depth, linked to each parent policy one depth up.  The
verdicts are the tree's, but the work per certificate grows with the
policies it asserts and maps, not with the tree's paths, which mappings can
multiply at every depth.  The module applies policy mappings under the
mapping counter, folds in per-certificate policy constraints, and evaluates
the client's certificate-policy requirement: *strict* carries an acceptable
policy set plus the explicit-policy / inhibit-mapping flags, *weak* carries
an intended-usage string the server resolves through its configured usage
table.  Blank strict fields mean any policy is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import oids
from .certs import Certificate
from .der import Oid

ANY = oids.ANY_POLICY


class UnknownUsage(Exception):
    def __init__(self, usage: str):
        super().__init__(f"no policy mapping for intended usage {usage!r}")
        self.usage = usage


@dataclass(frozen=True)
class CprRequirement:
    mode: str = "strict"  # "strict" | "weak"
    acceptable_set: tuple[Oid, ...] = ()
    explicit_policy_required: bool = False
    inhibit_policy_mapping: bool = False
    intended_usage: str | None = None

    def __post_init__(self):
        if self.mode not in ("strict", "weak"):
            raise ValueError(f"bad CPR mode {self.mode!r}")
        if self.mode == "weak" and (self.acceptable_set
                                    or not self.intended_usage):
            raise ValueError("weak CPR carries only an intended usage")

    @classmethod
    def any_policy(cls) -> "CprRequirement":
        return cls()

    @classmethod
    def strict(cls, acceptable_set=(), explicit_policy_required=False,
               inhibit_policy_mapping=False) -> "CprRequirement":
        return cls("strict", tuple(acceptable_set), explicit_policy_required,
                   inhibit_policy_mapping)

    @classmethod
    def weak(cls, usage: str) -> "CprRequirement":
        return cls("weak", (), False, False, usage)


@dataclass
class PolicyState:
    """Value threaded across the chain fold; never mutated in place.
    ``tree`` is the valid-policy graph, one dict per depth from the root at
    depth 0: ``{valid policy: (expected policy set, parent policies one
    depth up)}``, or None when the tree is NULL."""

    tree: tuple[dict, ...] | None
    explicit_policy: int
    policy_mapping: int
    depth: int
    mappings_applied: tuple[tuple[Oid, Oid], ...] = ()


@dataclass(frozen=True)
class PolicyOutcome:
    ok: bool
    authorized_set: tuple[Oid, ...]
    mappings_applied: tuple[tuple[Oid, Oid], ...]


def _sorted(oids) -> list[Oid]:
    return sorted(oids, key=lambda o: o.arcs)


def init_state(req: CprRequirement, chain_length: int) -> PolicyState:
    """Counters start at 0 when the corresponding flag is set (the constraint
    applies from the first certificate) and chain_length+1 otherwise, which a
    chain can never exhaust."""
    if chain_length < 1:
        raise ValueError("chain_length must be positive")
    unlimited = chain_length + 1
    return PolicyState(
        tree=({ANY: (frozenset({ANY}), frozenset())},),
        explicit_policy=0 if req.explicit_policy_required else unlimited,
        policy_mapping=0 if req.inhibit_policy_mapping else unlimited,
        depth=0,
    )


def _assert_policies(parents: dict, policies) -> dict:
    """The next depth (RFC 5280 section 6.1.3(d)): each asserted policy hangs
    from every parent that expects it, else from anyPolicy; an asserted
    anyPolicy hangs every expected policy of every parent."""
    asserted = {p.oid for p in policies}
    hangs: dict[Oid, set[Oid]] = {}
    for parent, (expected, _) in parents.items():
        for policy in expected:
            if policy in asserted or ANY in asserted:
                hangs.setdefault(policy, set()).add(parent)
    if ANY in parents:
        for policy in asserted - hangs.keys() - {ANY}:
            hangs[policy] = {ANY}
    return {policy: (frozenset({policy}), frozenset(above))
            for policy, above in hangs.items()}


def _apply_mappings(level: dict, mappings, counter: int) -> tuple:
    """Map the newest depth in place (RFC 5280 section 6.1.4(b)): rewrite an
    issuer-domain policy's expected set, or hang it from anyPolicy; with
    mapping inhibited, delete it.  Returns the (issuer, subject) pairs
    applied."""
    groups: dict[Oid, set[Oid]] = {}
    for m in mappings:
        groups.setdefault(m.issuer_domain, set()).add(m.subject_domain)
    applied: list[tuple[Oid, Oid]] = []
    for idp in _sorted(groups):
        if counter == 0:
            level.pop(idp, None)
        elif idp in level or ANY in level:
            above = level[idp][1] if idp in level else frozenset({ANY})
            level[idp] = (frozenset(groups[idp]), above)
            applied.extend((idp, sdp) for sdp in _sorted(groups[idp]))
    return tuple(applied)


def _prune(levels: list[dict]) -> tuple | None:
    """Drop, level by level upward, the nodes that nothing hangs from,
    stopping at the first level that loses nothing; None when the newest
    depth is empty."""
    if not levels[-1]:
        return None
    for depth in range(len(levels) - 2, -1, -1):
        used = set().union(*(above for _, above in levels[depth + 1].values()))
        if len(used) == len(levels[depth]):
            break
        levels[depth] = {policy: node for policy, node in levels[depth].items()
                         if policy in used}
    return tuple(levels)


def process_cert(state: PolicyState, cert: Certificate,
                 is_self_issued: bool, is_last: bool) -> PolicyState:
    """One chain step: grow the graph from the certificate's asserted
    policies, apply its mappings under the mapping counter, then update both
    counters (skipped for self-issued certificates) and fold in the
    certificate's own policy constraints."""
    tree = state.tree
    applied: tuple[tuple[Oid, Oid], ...] = ()
    policies = cert.extensions.certificate_policies
    if tree is not None and policies is None:
        tree = None
    elif tree is not None:
        level = _assert_policies(tree[-1], policies)
        if cert.extensions.policy_mappings:
            applied = _apply_mappings(level, cert.extensions.policy_mappings,
                                      state.policy_mapping)
        tree = _prune([*tree, level])

    explicit = state.explicit_policy
    mapping = state.policy_mapping
    if not is_self_issued:
        explicit = explicit - 1 if explicit > 0 else 0
        mapping = mapping - 1 if mapping > 0 else 0
    constraints = cert.extensions.policy_constraints
    if constraints is not None:
        if constraints.require_explicit_policy is not None:
            explicit = min(explicit, constraints.require_explicit_policy)
        if constraints.inhibit_policy_mapping is not None:
            mapping = min(mapping, constraints.inhibit_policy_mapping)

    return replace(state, tree=tree, explicit_policy=explicit,
                   policy_mapping=mapping, depth=state.depth + 1,
                   mappings_applied=state.mappings_applied + applied)


def final_verdict(state: PolicyState, req: CprRequirement) -> PolicyOutcome:
    """Policy outcome after the whole chain was processed (RFC 5280 section
    6.1.5(g), read from the graph as RFC 9618 does).

    The path is policy-acceptable when the explicit-policy counter never ran
    out or the authorized set is non-empty.  That set is every policy at the
    last depth when the client accepts any policy.  Otherwise it is the
    client's acceptable set, cut to the policies that hang from anyPolicy
    (the first non-any policy on each path) unless anyPolicy itself reaches
    the last depth."""
    user = frozenset(req.acceptable_set) or frozenset({ANY})
    tree = state.tree
    if tree is None:
        authorized = frozenset()
    elif user == {ANY}:
        authorized = frozenset(tree[-1])
    elif ANY in tree[-1]:
        authorized = user - {ANY}
    else:
        authorized = (user - {ANY}) & {
            policy for level in tree
            for policy, (_, above) in level.items() if ANY in above}
    return PolicyOutcome(
        ok=state.explicit_policy > 0 or bool(authorized),
        authorized_set=tuple(_sorted(authorized)),
        mappings_applied=state.mappings_applied,
    )


def resolve_weak(usage: str, usage_table: dict) -> tuple[Oid, ...]:
    """Map an intended-usage string through the server's table; the request
    then proceeds as strict CPR over the returned set."""
    try:
        return tuple(usage_table[usage])
    except KeyError:
        raise UnknownUsage(usage) from None
