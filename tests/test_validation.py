import datetime
import json
from pathlib import Path

import pytest

from savacert import crypto, forge, oids, validation
from savacert.certs import (
    BasicConstraints,
    KeyUsage,
    Name,
    check_crl_signature,
    fingerprint,
    make_extensions,
    parse_certificate,
    sign_certificate,
)
from savacert.der import Oid
from savacert.pathbuild import CertGraph, discover
from savacert.policytree import CprRequirement
from savacert.revocation import verify_status_reply
from savacert.storage import Repository
from savacert.validation import (
    FailureReason,
    RevocationConfig,
    VerdictStatus,
    validate_path,
    validate_target,
)

from conftest import EPOCH, NOW
from helpers import fabricate_cert, reference_validate_target

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "scenario_matrix.json").read_text())


def cpr_from_options(options) -> CprRequirement:
    if options.get("usage"):
        return CprRequirement.weak(options["usage"])
    return CprRequirement.strict(
        tuple(Oid(p) for p in options.get("acceptable", ())),
        options.get("explicit", False),
        options.get("inhibit", False))


def run_scenario(scenarios, row):
    layout = scenarios.layout(row["scenario"])
    repo = Repository.load(layout.out_dir)
    target = scenarios.cert(row["scenario"], *row["target"])
    return validate_target(repo.graph(), target, NOW,
                           cpr_from_options(row["options"]),
                           RevocationConfig("crl"), repo.crls_for)


@pytest.mark.parametrize("row", GOLDEN["rows"],
                         ids=[r["scenario"] for r in GOLDEN["rows"]])
def test_scenario_verdicts(scenarios, row):
    verdict = run_scenario(scenarios, row)
    assert verdict.status.value == row["verdict"]
    if row["reason"] is None:
        assert verdict.reason is None
    else:
        assert verdict.reason is FailureReason[row["reason"]]
        assert verdict.failing_index == row["failing_index"]
    if row.get("authorized"):
        assert [str(o) for o in verdict.authorized_set] == row["authorized"]
    if row.get("mappings"):
        assert [[str(a), str(b)] for a, b in verdict.mappings_applied] == \
            row["mappings"]


def test_verdicts_are_deterministic(scenarios):
    for row in GOLDEN["rows"][:4]:
        first = run_scenario(scenarios, row)
        second = run_scenario(scenarios, row)
        assert first == second


def test_pathlen_hand_trace(scenarios):
    # root pathLen=0 -> budget 0; the first non-self-issued intermediate
    # exhausts it before reaching the end entity
    verdict = run_scenario(scenarios, {
        "scenario": "pathlen-violated", "target": ["ee", "sub"],
        "options": {}})
    assert verdict.reason is FailureReason.BASIC_CONSTRAINTS
    assert verdict.failing_index == 0
    # the sub CA itself is still fine: it is the anchor's direct issue
    layout = scenarios.layout("pathlen-violated")
    repo = Repository.load(layout.out_dir)
    sub = scenarios.cert("pathlen-violated", "sub", "root")
    direct = validate_target(repo.graph(), sub, NOW,
                             CprRequirement.any_policy(),
                             RevocationConfig("crl"), repo.crls_for)
    assert direct.status is VerdictStatus.VALID


def test_not_yet_valid(scenarios):
    layout = scenarios.layout("happy3")
    repo = Repository.load(layout.out_dir)
    target = scenarios.cert("happy3", "ee", "sub")
    before = EPOCH - datetime.timedelta(days=1)
    verdict = validate_target(repo.graph(), target, before,
                              CprRequirement.any_policy(),
                              RevocationConfig("none"), repo.crls_for)
    assert verdict.reason is FailureReason.NOT_YET_VALID


def test_revoked_evidence_reverifies(scenarios):
    layout = scenarios.layout("revoked-ee")
    repo = Repository.load(layout.out_dir)
    target = scenarios.cert("revoked-ee", "ee", "sub")
    verdict = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), repo.crls_for)
    assert verdict.reason is FailureReason.REVOKED
    crl = verdict.crls[-1]
    issuer_key = crypto.decode_key(layout.keys["sub"].read_bytes())
    assert check_crl_signature(crl, issuer_key.public_key)
    assert crl.entry_for(target.serial) is not None


def test_anchor_never_revocation_or_signature_checked(tmp_path):
    from savacert import forge
    spec = forge.parse_topology(f"""
[pki]
seed = 31
[entity root]
kind = rootCa
policies = {forge.POLICY_HIGH}
[entity ee]
kind = endEntity
policies = {forge.POLICY_HIGH}
[edges]
root -> ee
[revocations]
root root 20250102000000Z caCompromise
""")
    layout = forge.forge(spec, tmp_path)
    repo = Repository.load(layout.out_dir)
    target = parse_certificate(layout.cert_path("ee", "root").read_bytes())
    # the anchor's own serial sits in its CRL, but anchors are exempt
    verdict = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), repo.crls_for)
    assert verdict.status is VerdictStatus.VALID


def test_discovery_accepts_what_validation_rejects(scenarios):
    layout = scenarios.layout("bad-signature")
    repo = Repository.load(layout.out_dir)
    target = scenarios.cert("bad-signature", "ee", "sub")
    chains = discover(repo.graph(), target)
    assert len(chains) == 1  # discovery is not security-critical
    verdict = validate_path(chains[0], NOW, CprRequirement.any_policy(),
                            RevocationConfig("crl"), repo.crls_for)
    assert verdict.reason is FailureReason.BAD_SIGNATURE


def test_first_valid_chain_wins(scenarios):
    layout = scenarios.layout("mesh2paths-revoked")
    repo = Repository.load(layout.out_dir)
    target = scenarios.cert("mesh2paths-revoked", "ee", "s")
    chains = discover(repo.graph(), target)
    assert len(chains) == 2
    per_chain = [validate_path(c, NOW, CprRequirement.any_policy(),
                               RevocationConfig("crl"), repo.crls_for)
                 for c in chains]
    statuses = {v.status for v in per_chain}
    assert statuses == {VerdictStatus.VALID, VerdictStatus.INVALID}
    overall = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), repo.crls_for)
    assert overall.status is VerdictStatus.VALID
    expected_chain = next(c for c, v in zip(chains, per_chain) if v.is_valid)
    assert overall.chain == expected_chain


def test_all_chains_invalid_returns_first_candidates_verdict(scenarios):
    layout = scenarios.layout("bad-signature")
    repo = Repository.load(layout.out_dir)
    target = scenarios.cert("bad-signature", "ee", "sub")
    overall = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), repo.crls_for)
    first = validate_path(discover(repo.graph(), target)[0], NOW,
                          CprRequirement.any_policy(),
                          RevocationConfig("crl"), repo.crls_for)
    assert overall == first


def test_unknown_when_no_path(scenarios):
    repo = Repository.load(scenarios.layout("happy3").out_dir)
    stray_issuer = fabricate_cert("lost-ca", "lost-ca")
    stray = fabricate_cert("lost-ee", "lost-ca")
    graph = repo.graph().with_extra([stray_issuer, stray])
    verdict = validate_target(graph, stray, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), repo.crls_for)
    assert verdict.status is VerdictStatus.UNKNOWN
    assert verdict.unknown_cause == "no-path"


def test_revocation_undetermined_without_crl(scenarios):
    repo = Repository.load(scenarios.layout("happy3").out_dir)
    target = scenarios.cert("happy3", "ee", "sub")
    verdict = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), lambda name: [])
    assert verdict.reason is FailureReason.REVOCATION_UNDETERMINED
    assert verdict.failing_index == 0


def test_revocation_regime_none_skips_status(scenarios):
    repo = Repository.load(scenarios.layout("revoked-ee").out_dir)
    target = scenarios.cert("revoked-ee", "ee", "sub")
    verdict = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("none"), repo.crls_for)
    assert verdict.status is VerdictStatus.VALID
    assert verdict.crls == ()


def test_crl_then_online_falls_back(scenarios, server_factory):
    handle = server_factory(scenarios.layout("revoked-ee").out_dir)
    repo = Repository.load(scenarios.layout("revoked-ee").out_dir)
    target = scenarios.cert("revoked-ee", "ee", "sub")
    config = RevocationConfig("crl-then-online",
                              responder_url=handle.url + "/status",
                              responder_cert=handle.identity.certificate)
    # starve the CRL route so the online responder must answer
    verdict = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              config, lambda name: [])
    assert verdict.reason is FailureReason.REVOKED
    assert verdict.online_replies
    reply = verdict.online_replies[-1]
    # evidence re-verifies: parse the raw reply and check its signature
    from savacert.der import decode_exact, encode
    value = decode_exact(reply)
    query = encode(value.elements[0])
    status = verify_status_reply(reply, query, handle.identity.certificate)
    assert status.value.name == "REVOKED"


def test_request_memo_keeps_a_target_and_an_intermediate_apart(scenarios):
    # the targets of one request share one memo: sub passes as a last
    # certificate, but it is no CA, so ee's chain through it still fails
    repo = Repository.load(scenarios.layout("not-a-ca").out_dir)
    checked: dict = {}
    sub, ee = (validate_target(repo.graph(), scenarios.cert("not-a-ca", *e),
                               NOW, CprRequirement.any_policy(),
                               RevocationConfig("crl"), repo.crls_for,
                               checked=checked)
               for e in (("sub", "root"), ("ee", "sub")))
    assert sub.status is VerdictStatus.VALID
    assert (ee.reason, ee.failing_index) == (FailureReason.BASIC_CONSTRAINTS,
                                             0)


def test_unknown_critical_extension_rejected():
    root_key = crypto.generate(seed=b"uc-root")
    leaf_key = crypto.generate(seed=b"uc-leaf")
    root_name = Name.from_string("CN=uc-root")
    leaf_name = Name.from_string("CN=uc-leaf")
    from savacert.certs import Extension, Extensions
    root = sign_certificate(
        serial=1, issuer=root_name, subject=root_name, not_before=EPOCH,
        not_after=EPOCH.replace(year=2035), public_key_alg=oids.ALG_ED25519,
        public_key=root_key.public_key,
        extensions=make_extensions(
            basic_constraints=BasicConstraints(True)),
        issuer_key=root_key)
    leaf = sign_certificate(
        serial=2, issuer=root_name, subject=leaf_name, not_before=EPOCH,
        not_after=EPOCH.replace(year=2026), public_key_alg=oids.ALG_ED25519,
        public_key=leaf_key.public_key,
        extensions=Extensions((Extension(Oid("1.2.3.99"), True, b"\x05\x00"),)),
        issuer_key=root_key)
    graph = CertGraph([root, leaf], [fingerprint(root)])
    verdict = validate_target(graph, leaf, NOW, CprRequirement.any_policy(),
                              RevocationConfig("none"), lambda name: [])
    assert verdict.reason is FailureReason.UNKNOWN_CRITICAL_EXTENSION


def test_key_usage_without_cert_sign_rejected():
    root_key = crypto.generate(seed=b"ku-root")
    mid_key = crypto.generate(seed=b"ku-mid")
    leaf_key = crypto.generate(seed=b"ku-leaf")
    root_name = Name.from_string("CN=ku-root")
    mid_name = Name.from_string("CN=ku-mid")
    leaf_name = Name.from_string("CN=ku-leaf")
    make = lambda serial, issuer, subject, key, signer, ext: sign_certificate(
        serial=serial, issuer=issuer, subject=subject, not_before=EPOCH,
        not_after=EPOCH.replace(year=2035), public_key_alg=oids.ALG_ED25519,
        public_key=key.public_key, extensions=ext, issuer_key=signer)
    root = make(1, root_name, root_name, root_key, root_key,
                make_extensions(basic_constraints=BasicConstraints(True)))
    mid = make(2, root_name, mid_name, mid_key, root_key,
               make_extensions(
                   basic_constraints=BasicConstraints(True),
                   key_usage=frozenset({KeyUsage.DIGITAL_SIGNATURE})))
    leaf = make(3, mid_name, leaf_name, leaf_key, mid_key,
                make_extensions())
    graph = CertGraph([root, mid, leaf], [fingerprint(root)])
    verdict = validate_target(graph, leaf, NOW, CprRequirement.any_policy(),
                              RevocationConfig("none"), lambda name: [])
    assert verdict.reason is FailureReason.KEY_USAGE
    assert verdict.failing_index == 0


def test_excluded_name_constraint(tmp_path):
    from savacert import forge
    spec = forge.parse_topology(f"""
[pki]
seed = 77
[entity root]
kind = rootCa
policies = {forge.POLICY_HIGH}
[entity sub]
kind = subCa
name = C=IT, O=Main, CN=sub
excluded = C=IT, O=Banned
policies = {forge.POLICY_HIGH}
[entity ee]
kind = endEntity
name = C=IT, O=Banned, CN=victim
policies = {forge.POLICY_HIGH}
[edges]
root -> sub
sub -> ee
""")
    layout = forge.forge(spec, tmp_path)
    repo = Repository.load(layout.out_dir)
    target = parse_certificate(layout.cert_path("ee", "sub").read_bytes())
    verdict = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), repo.crls_for)
    assert verdict.reason is FailureReason.NAME_CONSTRAINT
    assert verdict.failing_index == 1


def _cross_certified_mesh(k: int,
                          revoked=("s1 ee 20250102000000Z keyCompromise",)):
    """Root over k sub-CAs that all cross-certify each other, and ee under
    s1; by default ee is revoked on s1's CRL."""
    subs = [f"s{i}" for i in range(1, k + 1)]
    lines = ["[pki]", "seed = 404", "[entity root]", "kind = rootCa"]
    for sub in subs:
        lines += [f"[entity {sub}]", "kind = subCa"]
    lines += ["[entity ee]", "kind = endEntity", "[edges]"]
    lines += [f"root -> {sub}" for sub in subs]
    lines += [f"{a} -> {b}" for a in subs for b in subs if a != b]
    lines += ["s1 -> ee", "[revocations]", *revoked]
    return "\n".join(lines) + "\n"


def test_each_signature_is_checked_once_per_target(tmp_path, monkeypatch):
    # every candidate chain fails on the revoked end entity, so all of them
    # are validated; they share 17 certificates and 5 CRLs
    layout = forge.forge(forge.parse_topology(_cross_certified_mesh(4)),
                         tmp_path)
    repo = Repository.load(layout.out_dir)
    target = parse_certificate(layout.cert_path("ee", "s1").read_bytes())
    assert len(discover(repo.graph(), target)) == 499
    verify = crypto.verify
    calls = []

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(crypto, "verify", counted)
    verdict = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), repo.crls_for)
    assert verdict.status is VerdictStatus.INVALID
    assert verdict.reason is FailureReason.REVOKED
    assert verdict.failing_index == 1
    assert len(calls) <= 40


def _counted(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _mesh_target(tmp_path, k, **kwargs):
    layout = forge.forge(
        forge.parse_topology(_cross_certified_mesh(k, **kwargs)), tmp_path)
    repo = Repository.load(layout.out_dir)
    target = parse_certificate(layout.cert_path("ee", "s1").read_bytes())
    return repo, target


def test_revoked_target_in_a_mesh_costs_one_chain(tmp_path, monkeypatch):
    # every chain ends on the revoked edge s1 -> ee, so once the first
    # candidate fails no other chain is walked to its end
    repo, target = _mesh_target(tmp_path, 4)
    paths = _counted(monkeypatch, validation, "validate_path")
    verifies = _counted(monkeypatch, crypto, "verify")
    verdict = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), repo.crls_for)
    assert (verdict.status, verdict.reason, verdict.failing_index) == (
        VerdictStatus.INVALID, FailureReason.REVOKED, 1)
    assert len(paths) <= 2
    assert len(verifies) <= 10


def test_path_level_failures_stop_at_the_budget(tmp_path, monkeypatch):
    # no certificate asserts the one acceptable policy, so every one of the
    # 499 chains passes its edge checks and fails only the policy tree
    repo, target = _mesh_target(tmp_path, 4, revoked=())
    cpr = CprRequirement.strict((Oid("1.2.3.4.5"),), True)
    paths = _counted(monkeypatch, validation, "validate_path")
    verdict = validate_target(repo.graph(), target, NOW, cpr,
                              RevocationConfig("crl"), repo.crls_for)
    assert verdict.status is VerdictStatus.UNKNOWN
    assert verdict.unknown_cause == "budget"
    assert len(paths) <= validation.MAX_FULL_VALIDATIONS + 1


def _mesh_with_broken_cross_certificate(tmp_path, fault):
    """k=3 mesh in which root's certificate for s1 is revoked, so ee's first
    candidate fails, and the cross-certificate s2 -> s1 is broken."""
    revoked = ["root s1 20250102000000Z caCompromise"]
    if fault == "revoked":
        revoked.append("s2 s1 20250102000000Z keyCompromise")
    layout = forge.forge(
        forge.parse_topology(_cross_certified_mesh(3, revoked)), tmp_path)
    path = layout.cert_path("s1", "s2")
    if fault == "bad-signature":
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
    elif fault == "expired":
        cross = parse_certificate(path.read_bytes())
        path.write_bytes(sign_certificate(
            serial=cross.serial, issuer=cross.issuer, subject=cross.subject,
            not_before=EPOCH - datetime.timedelta(days=20),
            not_after=EPOCH - datetime.timedelta(days=10),
            public_key_alg=cross.public_key_alg,
            public_key=cross.public_key, extensions=cross.extensions,
            issuer_key=crypto.decode_key(
                layout.keys["s2"].read_bytes())).der)
    return layout


_CPRS = (CprRequirement.any_policy(),
         CprRequirement.strict((forge.POLICY_HIGH,), True),
         CprRequirement.strict((Oid("1.2.3.4.5"),), True))


def _same_as_reference(layout):
    repo = Repository.load(layout.out_dir)
    graph = repo.graph()
    for path in layout.certs.values():
        target = parse_certificate(path.read_bytes())
        for cpr in _CPRS:
            args = (graph, target, NOW, cpr, RevocationConfig("crl"),
                    repo.crls_for)
            assert validate_target(*args) == reference_validate_target(*args)


@pytest.mark.parametrize("name", sorted(forge.SCENARIOS))
def test_search_matches_validating_every_chain_on_scenarios(scenarios, name):
    _same_as_reference(scenarios.layout(name))


@pytest.mark.parametrize("fault", ["revoked", "expired", "bad-signature"])
def test_search_matches_validating_every_chain_on_a_mesh(tmp_path, fault):
    layout = _mesh_with_broken_cross_certificate(tmp_path, fault)
    repo = Repository.load(layout.out_dir)
    target = parse_certificate(layout.cert_path("ee", "s1").read_bytes())
    verdict = validate_target(repo.graph(), target, NOW,
                              CprRequirement.any_policy(),
                              RevocationConfig("crl"), repo.crls_for)
    # the search skips the broken cross-certificate and finds s3's
    assert verdict.is_valid
    assert [fingerprint(c) for c in verdict.chain.certs] == [
        fingerprint(parse_certificate(layout.cert_path(*edge).read_bytes()))
        for edge in (("s3", "root"), ("s1", "s3"), ("ee", "s1"))]
    _same_as_reference(layout)
