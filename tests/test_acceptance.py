"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria: (1) end-to-end scenario matrix, (2) DER round-trip and decoder
fuzz, (3) path-discovery oracle equivalence, (4) policy-tree oracle
equivalence, (5) protocol invariants, (6) CRL/online revocation
equivalence, (7) admission error notices, (8) round-trip latency sanity.
"""

import dataclasses
import datetime
import io
import random
import statistics
import time
import urllib.request

import pytest

from savacert import client as rp, crypto, der, forge, protocol
from savacert.certs import check_crl_signature, fingerprint
from savacert.der import Oid
from savacert.pathbuild import CertGraph, discover
from savacert.policytree import CprRequirement
from savacert.revocation import verify_status_reply
from savacert.storage import Clock
from savacert.validation import FailureReason, VerdictStatus

from conftest import NOW, SERVER_NAME
from helpers import (
    all_simple_paths,
    discovery_order,
    random_cert_graph,
    random_der_value,
    unsigned_dvc,
)
from test_policytree import _random_cpr, _random_step, assert_matches_oracle
from test_validation import GOLDEN, cpr_from_options

pytestmark = pytest.mark.acceptance


def _report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def _profile_for(handle, **overrides) -> rp.ClientProfile:
    from savacert.certs import Name
    profile = rp.ClientProfile(
        server_url=handle.url,
        server_name=Name.from_string(SERVER_NAME),
        clock=Clock(fixed=NOW),
        server_cert_check="pinned",
        pinned_fingerprint=handle.identity.fingerprint,
        want_backs=frozenset({protocol.WantBack.CHAIN, protocol.WantBack.CRLS,
                              protocol.WantBack.ONLINE_REPLIES,
                              protocol.WantBack.VALIDATION_TIME}))
    for key, value in overrides.items():
        setattr(profile, key, value)
    return profile


def test_criterion_1_scenario_matrix(scenarios, server_factory, tmp_path):
    """Every catalogued fixture yields exactly its golden verdict through a
    full client -> HTTP -> server -> client transaction."""
    exit_by_status = {"valid": 0, "invalid": 2, "unknown": 3}
    for row in GOLDEN["rows"]:
        layout = scenarios.layout(row["scenario"])
        handle = server_factory(layout.out_dir)
        evidence_dir = tmp_path / f"evidence-{row['scenario']}"
        options = row["options"]
        profile = _profile_for(
            handle, store_evidence=evidence_dir,
            acceptable_policies=tuple(Oid(p)
                                      for p in options.get("acceptable", ())),
            explicit_policy_required=options.get("explicit", False),
            inhibit_policy_mapping=options.get("inhibit", False))
        target_path = layout.cert_path(*row["target"])
        code = rp.validate(profile, [str(target_path)], out=io.StringIO())
        assert code == exit_by_status[row["verdict"]], row["scenario"]

        stored = next(evidence_dir.glob("dvc-*.der"))
        response = protocol.parse_response(stored.read_bytes())
        result = response.info.results[0]
        assert result.status.value == row["verdict"], row["scenario"]
        if row["reason"] is not None:
            assert result.reason is FailureReason[row["reason"]], \
                row["scenario"]
            assert result.failing_index == row["failing_index"], \
                row["scenario"]
        if row.get("authorized"):
            assert [str(o) for o in result.authorized_set] == \
                row["authorized"], row["scenario"]
        if row.get("mappings"):
            assert [[str(a), str(b)] for a, b in result.mappings_applied] \
                == row["mappings"], row["scenario"]
    _report(1, f"{len(GOLDEN['rows'])} scenario verdicts match the golden "
               f"table end to end")


def test_criterion_2_der_roundtrip_and_fuzz(scenarios):
    """decode(encode(v)) == v for 10k generated values plus the whole
    fixture corpus; 100k random inputs never crash the decoder."""
    rng = random.Random(0xD0_0D)
    for _ in range(10_000):
        value = random_der_value(rng)
        encoded = der.encode(value)
        decoded, used = der.decode(encoded)
        assert used == len(encoded) and decoded == value
        assert der.encode(decoded) == encoded

    corpus = 0
    for name in forge.SCENARIOS:
        layout = scenarios.layout(name)
        for path in sorted(layout.out_dir.rglob("*")):
            if path.suffix not in (".der", ".crl", ".key"):
                continue
            blob = path.read_bytes()
            value = der.decode_exact(blob)
            assert der.encode(value) == blob, path
            corpus += 1

    crashes = 0
    fuzz = random.Random(0xF022)
    for _ in range(100_000):
        blob = fuzz.randbytes(fuzz.randint(0, 48))
        try:
            value, used = der.decode(blob)
            assert der.encode(value) == blob[:used]
        except der.DerError:
            pass
        except Exception:  # noqa: BLE001 - the property under test
            crashes += 1
    assert crashes == 0
    _report(2, f"10000 generated values and {corpus} corpus files "
               f"round-trip; 100000 fuzz inputs produced no crash")


def test_criterion_3_path_discovery_oracle():
    """discover() returns exactly the brute-force all-simple-paths
    enumerator's chains on 200 random graphs, ordered by (length, member
    fingerprints, anchor fingerprint)."""
    rng = random.Random(0xCAB)
    total_chains = 0
    for _ in range(200):
        certificates, anchors, target = random_cert_graph(
            rng, max_nodes=12, edge_probability=0.3)
        graph = CertGraph(certificates, [fingerprint(a) for a in anchors])
        expected = all_simple_paths(certificates, anchors, target,
                                    max_length=12)
        chains = discover(graph, target, max_length=12)
        assert [(fingerprint(c.anchor), tuple(fingerprint(x) for x in c.certs))
                for c in chains] == discovery_order(expected)
        total_chains += len(chains)
    _report(3, f"200 random graphs, {total_chains} chains, exact equality "
               f"with the brute-force enumerator in discovery order")


def test_criterion_4_policy_tree_oracle():
    """Authorized set, verdict and tree match the independent simulator on
    500 random chains, covering acceptable-set, explicit-policy and
    inhibit-mapping semantics plus the any-policy inference rules."""
    rng = random.Random(0x90BC)
    for _ in range(500):
        steps = [_random_step(rng) for _ in range(rng.randint(1, 5))]
        assert_matches_oracle(steps, _random_cpr(rng))
        # the three blank-field inference cases ride along explicitly
    any_policy = CprRequirement.any_policy()
    assert any_policy.acceptable_set == () and \
        not any_policy.explicit_policy_required
    weak = CprRequirement.weak("e-mail")
    assert weak.intended_usage == "e-mail" and weak.acceptable_set == ()
    _report(4, "500 random chains match the brute-force policy-tree "
               "simulator node for node")


def test_criterion_5_protocol_invariants(scenarios, server_factory):
    """Echo is byte-exact, the nonce matches, multi-target results keep
    request order (2, 5 and 50 targets), and tampered or unsigned responses
    are rejected per profile."""
    layout = scenarios.layout("happy3")
    handle = server_factory(layout.out_dir)
    pool = [scenarios.cert("happy3", "ee", "sub"),
            scenarios.cert("happy3", "sub", "root"),
            scenarios.cert("happy3", "root", "root")]

    checked = 0
    for count in (1, 2, 5, 50):
        targets = [pool[i % len(pool)] for i in range(count)]
        request = protocol.build_request(
            targets=targets, cpr=CprRequirement.any_policy(), now=NOW)
        raw = urllib.request.urlopen(urllib.request.Request(
            handle.url + "/dvcs", data=protocol.encode_request(request),
            method="POST")).read()
        response = protocol.parse_response(raw)
        assert isinstance(response, protocol.DvcResponse)
        # (a) byte-exact requestInformation echo
        assert protocol.encode_info(response.info.echo) == \
            protocol.encode_info(request.info)
        # (b) nonce match
        assert response.info.echo.nonce == request.info.nonce
        # (c) results order equals targets order
        assert [r.target_fingerprint for r in response.info.results] == \
            [fingerprint(t) for t in targets]
        protocol.verify_response(response, request.info,
                                 protocol.ResponseTrust())
        checked += count

        # (d) tampering and unsigned handling
        tampered = bytearray(raw)
        tampered[-1] ^= 0x01
        with pytest.raises(protocol.BadServerSignature):
            protocol.verify_response(
                protocol.parse_response(bytes(tampered)), request.info,
                protocol.ResponseTrust())
        unsigned = unsigned_dvc(response.info)
        with pytest.raises(protocol.UnsignedRejected):
            protocol.verify_response(
                protocol.parse_response(unsigned), request.info,
                protocol.ResponseTrust(trust_unsigned=False))
        protocol.verify_response(
            protocol.parse_response(unsigned), request.info,
            protocol.ResponseTrust(trust_unsigned=True))
    _report(5, f"echo/nonce/order invariants hold across {checked} targets; "
               f"tampered and unsigned responses rejected per profile")


def test_criterion_6_revocation_equivalence(scenarios, server_factory):
    """CRL mode and online mode agree on every scenario's verdict, and the
    returned evidence re-verifies independently."""
    for row in GOLDEN["rows"]:
        name = row["scenario"]
        layout = scenarios.layout(name)
        target = scenarios.cert(name, *row["target"])
        cpr = cpr_from_options(row["options"])
        outcomes = {}
        for mode in ("crl", "online"):
            handle = server_factory(layout.out_dir, revocation=mode)
            if mode == "online":
                handle.core.config.responder_url = handle.url + "/status"
            request = protocol.build_request(
                targets=[target], cpr=cpr, now=NOW,
                want_backs={protocol.WantBack.CRLS,
                            protocol.WantBack.ONLINE_REPLIES,
                            protocol.WantBack.CHAIN})
            raw = handle.core.handle_dvcs_bytes(
                protocol.encode_request(request))
            response = protocol.parse_response(raw)
            result = response.info.results[0]
            outcomes[mode] = (result.status, result.reason,
                              result.failing_index)

            evidence = result.evidence
            if evidence and evidence.replies:
                for reply in evidence.replies:
                    value = der.decode_exact(reply)
                    query = der.encode(value.elements[0])
                    verify_status_reply(reply, query,
                                        handle.identity.certificate)
            if evidence and evidence.crls:
                # forge names CAs "O=Test PKI, CN=<label>"; resolve the key
                for crl in evidence.crls:
                    label = crl.issuer.attributes[-1][1]
                    key = crypto.decode_key(
                        layout.keys[label].read_bytes())
                    assert check_crl_signature(crl, key.public_key)
        assert outcomes["crl"] == outcomes["online"], name
    _report(6, f"CRL and online regimes agree on all {len(GOLDEN['rows'])} "
               f"scenarios; evidence re-verified")


def test_criterion_7_admission_error_notices(scenarios, server_factory):
    """Each admission failure produces the corresponding signed notice."""
    from savacert.certs import Name
    layout = scenarios.layout("happy3")
    handle = server_factory(layout.out_dir,
                            policy_lines=(f"usage e-mail = "
                                          f"{forge.POLICY_HIGH}",))
    ee = scenarios.cert("happy3", "ee", "sub")

    def roundtrip(request):
        raw = handle.core.handle_dvcs_bytes(protocol.encode_request(request))
        notice = protocol.parse_response(raw)
        assert isinstance(notice, protocol.ErrorNotice)
        protocol.verify_response(notice, request.info,
                                 protocol.ResponseTrust())  # signed notice
        return notice.code

    build = lambda **kw: protocol.build_request(
        targets=[ee], cpr=kw.pop("cpr", CprRequirement.any_policy()),
        now=kw.pop("now", NOW), **kw)

    assert roundtrip(build(now=NOW - datetime.timedelta(seconds=301))) \
        is protocol.ErrorCode.BAD_TIME
    assert roundtrip(build(dvcs_name=Name.from_string("CN=somewhere else"))) \
        is protocol.ErrorCode.WRONG_SERVER
    wrong_service = build()
    wrong_service = protocol.ValidationRequest(
        dataclasses.replace(wrong_service.info, service=2),
        wrong_service.targets)
    assert roundtrip(wrong_service) is protocol.ErrorCode.UNSUPPORTED_SERVICE
    assert roundtrip(build(request_policy=Oid("1.2.999"))) \
        is protocol.ErrorCode.UNKNOWN_REQUEST_POLICY
    assert roundtrip(build(cpr=CprRequirement.weak("fax"))) \
        is protocol.ErrorCode.UNKNOWN_USAGE
    _report(7, "badTime, wrongServer, unsupportedService, "
               "unknownRequestPolicy and unknownUsage notices verified")


def test_criterion_8_latency_sanity(scenarios, server_factory):
    """Median single-target happy3 round-trip over loopback < 100 ms."""
    layout = scenarios.layout("happy3")
    handle = server_factory(layout.out_dir)
    target = scenarios.cert("happy3", "ee", "sub")
    durations = []
    for _ in range(100):
        start = time.perf_counter()
        request = protocol.build_request(
            targets=[target], cpr=CprRequirement.any_policy(), now=NOW)
        raw = urllib.request.urlopen(urllib.request.Request(
            handle.url + "/dvcs", data=protocol.encode_request(request),
            method="POST")).read()
        response = protocol.parse_response(raw)
        protocol.verify_response(response, request.info,
                                 protocol.ResponseTrust())
        assert response.info.results[0].status is VerdictStatus.VALID
        durations.append(time.perf_counter() - start)
    median_ms = statistics.median(durations) * 1000
    assert median_ms < 100, f"median {median_ms:.1f} ms"
    _report(8, f"median round-trip {median_ms:.1f} ms over 100 runs")
