import random
import tracemalloc

import pytest

from savacert import oids, policytree as pt
from savacert.certs import (
    PolicyConstraints,
    PolicyInfo,
    PolicyMapping,
    make_extensions,
)
from savacert.der import Oid

from helpers import fabricate_cert, tree_paths
from policy_oracle import simulate

P1 = Oid("1.3.6.1.4.1.57264.8.1")
P2 = Oid("1.3.6.1.4.1.57264.8.2")
P3 = Oid("1.3.6.1.4.1.57264.8.3")
P4 = Oid("1.3.6.1.4.1.57264.8.4")
ANY = oids.ANY_POLICY
POOL = (P1, P2, P3, P4)


def make_chain_cert(i, policies, mappings=(), constraints=None,
                    self_issued=False):
    extensions = make_extensions(
        certificate_policies=(tuple(PolicyInfo(p) for p in policies)
                              if policies is not None else None),
        policy_mappings=(tuple(PolicyMapping(a, b) for a, b in mappings)
                         or None),
        policy_constraints=(PolicyConstraints(*constraints)
                            if constraints is not None else None))
    subject = f"ca{i}" if not self_issued else f"ca{i - 1}"
    return fabricate_cert(subject, f"ca{i - 1}", serial=i,
                          extensions=extensions)


def run_chain(steps, cpr):
    """steps: (policies|None, mappings, constraints, self_issued) tuples."""
    state = pt.init_state(cpr, len(steps))
    for i, (policies, mappings, constraints, self_issued) in enumerate(steps):
        cert = make_chain_cert(i + 1, policies, mappings, constraints,
                               self_issued)
        state = pt.process_cert(state, cert, self_issued,
                                i == len(steps) - 1)
    return state, pt.final_verdict(state, cpr)


def test_init_state_counters():
    state = pt.init_state(pt.CprRequirement.any_policy(), 3)
    assert state.explicit_policy == 4 and state.policy_mapping == 4
    assert state.tree is not None

    # the flags arm the constraint from the very first certificate
    state = pt.init_state(pt.CprRequirement.strict((), True, False), 3)
    assert state.explicit_policy == 0
    state = pt.init_state(pt.CprRequirement.strict((), False, True), 3)
    assert state.policy_mapping == 0
    with pytest.raises(ValueError):
        pt.init_state(pt.CprRequirement.any_policy(), 0)


def test_any_policy_chain_intersects_user_set():
    steps = [((ANY,), (), None, False)] * 3
    _, out = run_chain(steps, pt.CprRequirement.strict((P1,), True))
    assert out.ok and out.authorized_set == (P1,)


def test_no_policy_cert_nulls_tree():
    steps = [((P1,), (), None, False), (None, (), None, False)]
    state, out = run_chain(steps, pt.CprRequirement.strict((), True))
    assert state.tree is None
    assert not out.ok and out.authorized_set == ()


def test_mapping_respects_inhibit_flag():
    steps = [((P1,), ((P1, P2),), (0, None), False),
             ((P2,), (), None, False)]
    _, allowed = run_chain(steps, pt.CprRequirement.strict((P1,)))
    assert allowed.ok
    assert allowed.authorized_set == (P1,)
    assert allowed.mappings_applied == ((P1, P2),)

    _, inhibited = run_chain(steps, pt.CprRequirement.strict((P1,), False, True))
    assert not inhibited.ok
    assert inhibited.authorized_set == ()


def test_final_verdict_blank_set_means_any_policy():
    steps = [((P2,), (), None, False)]
    _, out = run_chain(steps, pt.CprRequirement.any_policy())
    assert out.ok
    state, out2 = run_chain([(None, (), None, False)],
                            pt.CprRequirement.any_policy())
    assert out2.ok  # tree is null but the explicit counter never ran out


def test_final_verdict_intersection():
    steps = [((P1, P2), (), None, False)]
    _, out = run_chain(steps, pt.CprRequirement.strict((P2, P3), True))
    assert out.ok and out.authorized_set == (P2,)
    _, out = run_chain(steps, pt.CprRequirement.strict((P3,), True))
    assert not out.ok and out.authorized_set == ()


def test_null_tree_with_explicit_required_fails():
    state, out = run_chain([(None, (), None, False)],
                           pt.CprRequirement.strict((), True))
    assert not out.ok


def test_weak_resolution():
    table = {"e-mail": (P1,), "web": (P2, P3)}
    assert pt.resolve_weak("e-mail", table) == (P1,)
    assert pt.resolve_weak("web", table) == (P2, P3)
    with pytest.raises(pt.UnknownUsage):
        pt.resolve_weak("fax", table)


def test_weak_cpr_shape_enforced():
    with pytest.raises(ValueError):
        pt.CprRequirement("weak", (P1,), False, False, "e-mail")
    with pytest.raises(ValueError):
        pt.CprRequirement("weak")
    weak = pt.CprRequirement.weak("e-mail")
    assert weak.intended_usage == "e-mail"


def _random_step(rng):
    if rng.random() < 0.12:
        policies = None
    else:
        count = rng.randint(1, 3)
        policies = tuple(rng.sample(POOL, count))
        if rng.random() < 0.25:
            policies += (ANY,)
    mappings = ()
    if rng.random() < 0.4:
        mappings = tuple(
            (rng.choice(POOL), rng.choice(POOL))
            for _ in range(rng.randint(1, 2)))
    constraints = None
    if rng.random() < 0.25:
        rep = rng.choice((None, 0, 1, 2))
        ipm = rng.choice((None, 0, 1, 2))
        if rep is not None or ipm is not None:
            constraints = (rep, ipm)
    self_issued = rng.random() < 0.15
    return (policies, mappings, constraints, self_issued)


def _random_cpr(rng):
    acceptable = tuple(rng.sample(POOL, rng.randint(0, 2)))
    return pt.CprRequirement.strict(acceptable,
                                    rng.random() < 0.5,
                                    rng.random() < 0.3)


def _oracle_form(steps):
    return [
        (None if policies is None else [str(p) for p in policies],
         [(str(a), str(b)) for a, b in mappings],
         constraints, self_issued)
        for policies, mappings, constraints, self_issued in steps
    ]


def assert_matches_oracle(steps, cpr):
    state, out = run_chain(steps, cpr)
    expected = simulate(_oracle_form(steps),
                        [str(p) for p in cpr.acceptable_set],
                        cpr.explicit_policy_required,
                        cpr.inhibit_policy_mapping)
    assert out.ok == expected["ok"], (steps, cpr)
    assert {str(p) for p in out.authorized_set} == expected["authorized"], \
        (steps, cpr)
    assert tuple((str(a), str(b)) for a, b in out.mappings_applied) \
        == expected["applied"], (steps, cpr)
    got_tree = {tuple((str(p), frozenset(map(str, e))) for p, e in path)
                for path in tree_paths(state)}
    want_tree = {tuple((p, frozenset(e)) for p, e in path)
                 for path in expected["tree"]}
    assert got_tree == want_tree, (steps, cpr)


def test_oracle_equivalence_sample():
    rng = random.Random(42)
    for _ in range(120):
        steps = [_random_step(rng) for _ in range(rng.randint(1, 5))]
        assert_matches_oracle(steps, _random_cpr(rng))


def test_monotonicity_of_acceptable_set():
    rng = random.Random(7)
    for _ in range(150):
        steps = [_random_step(rng) for _ in range(rng.randint(1, 4))]
        base = tuple(rng.sample(POOL, rng.randint(1, 2)))
        explicit = rng.random() < 0.6
        inhibit = rng.random() < 0.3
        _, small = run_chain(steps, pt.CprRequirement.strict(
            base, explicit, inhibit))
        grown = base + tuple(p for p in POOL if p not in base)[:1]
        _, large = run_chain(steps, pt.CprRequirement.strict(
            grown, explicit, inhibit))
        if small.ok:
            assert large.ok


def test_counters_never_negative():
    rng = random.Random(99)
    for _ in range(150):
        steps = [_random_step(rng) for _ in range(rng.randint(1, 5))]
        cpr = _random_cpr(rng)
        state = pt.init_state(cpr, len(steps))
        for i, (policies, mappings, constraints, self_issued) in \
                enumerate(steps):
            cert = make_chain_cert(i + 1, policies, mappings, constraints,
                                   self_issued)
            state = pt.process_cert(state, cert, self_issued,
                                    i == len(steps) - 1)
            assert state.explicit_policy >= 0
            assert state.policy_mapping >= 0


def test_any_policy_default_never_fails_without_inchain_constraints():
    # with blank fields, no flags and no weak extension, policy processing
    # can only fail when the chain itself demands explicit policy
    rng = random.Random(5)
    for _ in range(150):
        steps = [(_random_step(rng)[0], _random_step(rng)[1], None, False)
                 for _ in range(rng.randint(1, 5))]
        _, out = run_chain(steps, pt.CprRequirement.any_policy())
        assert out.ok


def _random_cpr_mixing_any(rng):
    # anyPolicy only beside another policy: the oracle reads an explicit
    # {anyPolicy} apart from the blank set, which RFC 5280 treats alike
    cpr = _random_cpr(rng)
    if cpr.acceptable_set and rng.random() < 0.3:
        cpr = pt.CprRequirement.strict((*cpr.acceptable_set, ANY),
                                       cpr.explicit_policy_required,
                                       cpr.inhibit_policy_mapping)
    return cpr


def test_oracle_equivalence_long_chains():
    rng = random.Random(9618)
    for _ in range(300):
        steps = [_random_step(rng) for _ in range(rng.randint(6, 8))]
        assert_matches_oracle(steps, _random_cpr_mixing_any(rng))


def test_mapped_chain_keeps_one_node_per_policy_per_depth():
    # every CA asserts all four policies and maps each to the other three,
    # so the unrolled tree has 4 * 3**7 leaves; the graph keeps 4 per depth
    mappings = tuple((a, b) for a in POOL for b in POOL if a != b)
    certs = [make_chain_cert(i, POOL, mappings) for i in range(1, 9)]
    cpr = pt.CprRequirement.any_policy()
    tracemalloc.start()
    try:
        state = pt.init_state(cpr, len(certs))
        for i, cert in enumerate(certs):
            state = pt.process_cert(state, cert, False, i == len(certs) - 1)
        out = pt.final_verdict(state, cpr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert [len(level) for level in state.tree] == [1] + [4] * 8
    assert out.ok and out.authorized_set == POOL
    assert len(out.mappings_applied) == 8 * len(mappings)
