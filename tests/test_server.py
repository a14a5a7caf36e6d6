import dataclasses
import datetime
import http.client
import logging
import pathlib
import re
import shutil
import socket
import socketserver
import sys
import threading
import urllib.request

import pytest

from savacert import certs, crypto, oids, pathbuild, protocol, server as cvs
from savacert.certs import Extension, Extensions, fingerprint
from savacert.config import ConfigError
from savacert.der import (
    BitString,
    ContextTagged,
    Oid,
    Sequence,
    decode_exact,
    encode,
    named_bits,
)
from savacert.policytree import CprRequirement
from savacert.protocol import ErrorCode, ErrorNotice, WantBack
from savacert.storage import Repository
from savacert.validation import FailureReason, VerdictStatus

from conftest import (
    DEFAULT_POLICY_OID,
    NOW,
    SERVER_NAME,
    make_server_config,
)
from helpers import fabricate_cert
from test_validation import GOLDEN, cpr_from_options

P_HIGH = Oid("1.3.6.1.4.1.57264.8.1")


def make_core(tmp_path, server_identity, repo_dir, **kwargs):
    state = tmp_path / "state"
    state.mkdir(exist_ok=True)
    text = make_server_config(repo_dir, state, server_identity, **kwargs)
    config = cvs.parse_server_config(text, tmp_path)
    return cvs.CvsServer(config)


def send(core, request):
    return protocol.parse_response(
        core.handle_dvcs_bytes(protocol.encode_request(request)))


def build(targets, cpr=None, *, now=NOW, **kwargs):
    return protocol.build_request(
        targets=targets, cpr=cpr or CprRequirement.any_policy(), now=now,
        **kwargs)


@pytest.fixture
def happy_core(tmp_path, server_identity, scenarios):
    return make_core(tmp_path, server_identity,
                     scenarios.layout("happy3").out_dir,
                     policy_lines=(f"usage e-mail = {P_HIGH}",))


def test_admission_bad_time(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    late = NOW - datetime.timedelta(minutes=10)
    response = send(happy_core, build([ee], now=late))
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.BAD_TIME
    # within the 300 s default skew the request is admitted
    close = NOW - datetime.timedelta(seconds=299)
    response = send(happy_core, build([ee], now=close))
    assert isinstance(response, protocol.DvcResponse)


def test_admission_wrong_server(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    from savacert.certs import Name
    request = build([ee], dvcs_name=Name.from_string("CN=some other server"))
    response = send(happy_core, request)
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.WRONG_SERVER
    # the right name is accepted
    request = build([ee], dvcs_name=Name.from_string(SERVER_NAME))
    assert isinstance(send(happy_core, request), protocol.DvcResponse)


def test_admission_unsupported_service(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    request = build([ee])
    hacked = protocol.ValidationRequest(
        protocol.RequestInformation(
            nonce=request.info.nonce, request_time=request.info.request_time,
            service=2),
        request.targets)
    response = send(happy_core, hacked)
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.UNSUPPORTED_SERVICE


def test_admission_unknown_request_policy(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    request = build([ee], request_policy=Oid("1.3.6.1.4.1.57264.3.99"))
    response = send(happy_core, request)
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.UNKNOWN_REQUEST_POLICY
    request = build([ee], request_policy=Oid(DEFAULT_POLICY_OID))
    assert isinstance(send(happy_core, request), protocol.DvcResponse)


def test_admission_mutually_exclusive_cpr(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    weak = build([ee], CprRequirement.weak("e-mail"))
    hacked = protocol.ValidationRequest(
        weak.info, weak.targets, acceptable_set=(P_HIGH,))
    response = send(happy_core, hacked)
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.MALFORMED_REQUEST


def test_admission_unknown_critical_extension(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    request = build([ee])
    info = protocol.RequestInformation(
        nonce=request.info.nonce, request_time=request.info.request_time,
        extensions=(protocol.RequestExtension(Oid("1.2.3.4"), True,
                                              b"\x05\x00"),))
    response = send(happy_core, protocol.ValidationRequest(info, (ee,)))
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.MALFORMED_REQUEST


def test_repeated_request_extension_yields_signed_notice(happy_core,
                                                        scenarios):
    # wantBacks twice, CHAIN then CRLS: no copy may silently win
    ee = scenarios.cert("happy3", "ee", "sub")
    request = build([ee], want_backs={WantBack.CHAIN})
    crls = protocol.RequestExtension(oids.REQ_WANT_BACKS, False,
                                     encode(named_bits({WantBack.CRLS})))
    request = dataclasses.replace(request, info=dataclasses.replace(
        request.info, extensions=(*request.info.extensions, crls)))
    with pytest.raises(protocol.ProtocolError, match="repeated"):
        protocol.parse_request(protocol.encode_request(request))
    notice = send(happy_core, request)
    assert isinstance(notice, ErrorNotice)
    assert notice.code is ErrorCode.MALFORMED_REQUEST
    assert notice.signature is not None


def test_empty_request_extensions_list_yields_signed_notice(happy_core,
                                                           scenarios):
    # an empty [3] list would be dropped from the DVC's byte-exact echo
    ee = scenarios.cert("happy3", "ee", "sub")
    envelope = decode_exact(protocol.encode_request(build([ee])))
    body = envelope.inner.elements[0]
    info = Sequence([*body.elements[0].elements,
                     ContextTagged(3, Sequence([]))])
    raw = encode(ContextTagged(envelope.number, Sequence(
        [Sequence([info, *body.elements[1:]])])))
    with pytest.raises(protocol.ProtocolError, match="empty"):
        protocol.parse_request(raw)
    notice = protocol.parse_response(happy_core.handle_dvcs_bytes(raw))
    assert isinstance(notice, ErrorNotice)
    assert notice.code is ErrorCode.MALFORMED_REQUEST
    assert notice.signature is not None


def test_malformed_body_yields_signed_notice(happy_core):
    raw = happy_core.handle_dvcs_bytes(b"\x00\x01garbage")
    notice = protocol.parse_response(raw)
    assert isinstance(notice, ErrorNotice)
    assert notice.code is ErrorCode.MALFORMED_REQUEST
    assert notice.echo is None  # nothing parseable to echo
    protocol.verify_response(
        notice,
        protocol.RequestInformation(nonce=0, request_time=NOW),
        protocol.ResponseTrust())  # signature verifies; echo absent is fine


def test_non_canonical_target_is_malformed(happy_core, scenarios):
    # a keyUsage BIT STRING with a redundant trailing octet is valid DER,
    # but the parsed model re-encodes it minimally
    padded = Extension(oids.EXT_KEY_USAGE, True,
                       encode(BitString(b"\x04\x00", 0)))
    odd = dataclasses.replace(scenarios.cert("happy3", "ee", "sub"),
                              extensions=Extensions((padded,)))
    response = send(happy_core, build([odd]))
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.MALFORMED_REQUEST
    assert "canonical" in response.message


def test_error_notices_echo_when_parseable(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    request = build([ee], now=NOW - datetime.timedelta(hours=2))
    response = send(happy_core, request)
    assert isinstance(response, ErrorNotice)
    assert response.echo == request.info


def test_signed_request_requirement(tmp_path, server_identity, scenarios):
    core = make_core(tmp_path, server_identity,
                     scenarios.layout("happy3").out_dir,
                     policy_lines=("require_signed_requests = true",))
    layout = scenarios.layout("happy3")
    ee = scenarios.cert("happy3", "ee", "sub")
    unsigned = build([ee])
    response = send(core, unsigned)
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.MALFORMED_REQUEST

    root_key = crypto.decode_key(layout.keys["root"].read_bytes())
    root_cert = scenarios.cert("happy3", "root", "root")
    signed = build([ee], signer_key=root_key, signer_cert=root_cert)
    assert isinstance(send(core, signed), protocol.DvcResponse)


def test_multi_target_results_in_request_order(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    sub = scenarios.cert("happy3", "sub", "root")
    root = scenarios.cert("happy3", "root", "root")
    request = build([sub, ee, root])
    response = send(happy_core, request)
    fps = [r.target_fingerprint for r in response.info.results]
    assert fps == [fingerprint(sub), fingerprint(ee), fingerprint(root)]
    assert [r.status for r in response.info.results] == \
        [VerdictStatus.VALID] * 3


TWO_BRANCH = f"""
[pki]
seed = 55
[entity root1]
kind = rootCa
policies = {P_HIGH}
[entity sub1]
kind = subCa
policies = {P_HIGH}
[entity ee1]
kind = endEntity
policies = {P_HIGH}
[entity root2]
kind = rootCa
policies = {P_HIGH}
[entity sub2]
kind = subCa
policies = {P_HIGH}
[entity ee2]
kind = endEntity
policies = {P_HIGH}
[edges]
root1 -> sub1
sub1 -> ee1
root2 -> sub2
sub2 -> ee2
[revocations]
sub2 ee2 20250102000000Z keyCompromise
"""


def test_mixed_verdicts_sequential(tmp_path, server_identity):
    # one repository holding both a clean chain and a revoked end entity
    from savacert import forge
    from savacert.certs import parse_certificate
    layout = forge.forge(forge.parse_topology(TWO_BRANCH), tmp_path / "repo")
    core = make_core(tmp_path, server_identity, layout.out_dir)

    good = parse_certificate(layout.cert_path("ee1", "sub1").read_bytes())
    bad = parse_certificate(layout.cert_path("ee2", "sub2").read_bytes())
    response = send(core, build([good, bad]))
    assert [r.status for r in response.info.results] == \
        [VerdictStatus.VALID, VerdictStatus.INVALID]
    assert response.info.results[1].reason is FailureReason.REVOKED


def test_weak_cpr_equivalent_to_strict(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    weak = send(happy_core, build([ee], CprRequirement.weak("e-mail")))
    strict = send(happy_core, build(
        [ee], CprRequirement.strict((P_HIGH,),
                                    explicit_policy_required=False)))
    assert isinstance(weak, protocol.DvcResponse)
    assert weak.info.results[0].status is VerdictStatus.VALID
    assert weak.info.results[0].authorized_set == (P_HIGH,)
    assert weak.info.results[0].authorized_set == \
        strict.info.results[0].authorized_set


def test_weak_cpr_unknown_usage(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    response = send(happy_core, build([ee], CprRequirement.weak("fax")))
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.UNKNOWN_USAGE


def test_weak_cpr_respects_anchor_usages(tmp_path, server_identity,
                                         scenarios):
    # happy3's root is trusted for e-mail and web only
    core = make_core(tmp_path, server_identity,
                     scenarios.layout("happy3").out_dir,
                     policy_lines=(f"usage e-mail = {P_HIGH}",
                                   f"usage payments = {P_HIGH}",))
    ee = scenarios.cert("happy3", "ee", "sub")
    ok = send(core, build([ee], CprRequirement.weak("e-mail")))
    assert ok.info.results[0].status is VerdictStatus.VALID
    # known usage, but no anchor is trusted for it
    rejected = send(core, build([ee], CprRequirement.weak("payments")))
    assert isinstance(rejected, ErrorNotice)
    assert rejected.code is ErrorCode.UNKNOWN_USAGE


def _repository_without(tmp_path, scenarios, name, *removed):
    """A copy of the scenario's repository without the ``removed``
    (subject, issuer) certificates."""
    repo = tmp_path / "-".join([name, *(f"{s}_{i}" for s, i in removed)])
    shutil.copytree(scenarios.layout(name).out_dir, repo)
    for subject, issuer in removed:
        (repo / "certs" / scenarios.cert_path(name, subject, issuer).name
         ).unlink()
    return repo


def _outcome(response):
    """Everything a result says about its target, chain by fingerprints."""
    result = response.info.results[0]
    chain = result.evidence.chain if result.evidence else None
    return (result.status, result.reason, result.failing_index,
            result.unknown_cause, result.authorized_set,
            result.mappings_applied,
            None if chain is None else [fingerprint(c) for c in chain])


def test_supplied_chain_gating(tmp_path, server_identity, scenarios):
    # without sub in the repository, ee has a path only through the
    # supplied sub, and only a policy that allows supplied chains uses it
    repo = _repository_without(tmp_path, scenarios, "happy3", ("sub", "root"))
    allowing = make_core(tmp_path, server_identity, repo)
    refusing = make_core(tmp_path, server_identity, repo,
                         policy_lines=("allow_supplied_chains = false",))
    root = scenarios.cert("happy3", "root", "root")
    sub = scenarios.cert("happy3", "sub", "root")
    ee = scenarios.cert("happy3", "ee", "sub")
    request = build([ee], supplied_chains=[sub, ee],
                    want_backs={WantBack.CHAIN})
    allowed = send(allowing, request).info.results[0]
    assert allowed.status is VerdictStatus.VALID
    assert list(allowed.evidence.chain) == [root, sub, ee]
    refused = send(refusing, request).info.results[0]
    assert refused.status is VerdictStatus.UNKNOWN
    assert refused.unknown_cause == "no-path"


def test_supplying_the_target_changes_nothing(tmp_path, server_identity,
                                              scenarios):
    # ee has a revoked and a valid chain; the revoked one comes first
    core = make_core(tmp_path, server_identity,
                     scenarios.layout("mesh2paths-revoked").out_dir)
    ee = scenarios.cert("mesh2paths-revoked", "ee", "s")
    alone = send(core, build([ee], want_backs={WantBack.CHAIN}))
    supplied = send(core, build([ee], supplied_chains=[ee],
                                want_backs={WantBack.CHAIN}))
    assert alone.info.results[0].status is VerdictStatus.VALID
    assert _outcome(supplied) == _outcome(alone)


def test_supplied_anchor_duplicate_and_island(happy_core, scenarios):
    root = scenarios.cert("happy3", "root", "root")
    sub = scenarios.cert("happy3", "sub", "root")
    ee = scenarios.cert("happy3", "ee", "sub")
    # a supplied copy of the trust anchor is the anchor, not a chain member
    response = send(happy_core, build([ee], supplied_chains=[root, sub, ee],
                                      want_backs={WantBack.CHAIN}))
    assert list(response.info.results[0].evidence.chain) == [root, sub, ee]
    # an issuer that reaches no anchor gives its end entity no path
    island_ca = fabricate_cert("island-ca", "island-ca")
    island_ee = fabricate_cert("island-ee", "island-ca")
    response = send(happy_core, build([island_ee],
                                      supplied_chains=[island_ca]))
    result = response.info.results[0]
    assert result.status is VerdictStatus.UNKNOWN
    assert result.unknown_cause == "no-path"


@pytest.mark.parametrize("row", GOLDEN["rows"],
                         ids=[r["scenario"] for r in GOLDEN["rows"]])
def test_supplying_a_stored_certificate_changes_nothing(
        tmp_path, server_identity, scenarios, row):
    # a certificate that reaches the server in the request instead of the
    # repository, and a supplied copy of the target, leave the answer as it is
    name = row["scenario"]
    layout = scenarios.layout(name)
    target = scenarios.cert(name, *row["target"])
    cpr = cpr_from_options(row["options"])
    full = make_core(tmp_path, server_identity, layout.out_dir)
    expected = _outcome(send(full, build([target], cpr,
                                         want_backs={WantBack.CHAIN})))
    cases = [(full, target)]
    anchors = {a.fingerprint for a in full.repository.anchors}
    for labels in layout.certs:
        cert = scenarios.cert(name, *labels)
        if fingerprint(cert) not in anchors | {fingerprint(target)}:
            repo = _repository_without(tmp_path, scenarios, name, labels)
            cases.append((make_core(tmp_path, server_identity, repo), cert))
    for core, supplied in cases:
        response = send(core, build([target], cpr, supplied_chains=[supplied],
                                    want_backs={WantBack.CHAIN}))
        assert _outcome(response) == expected, fingerprint(supplied).hex()


def test_supplied_unorderable_falls_back_to_discovery(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    unrelated = scenarios.cert("mesh2paths", "ee", "s")
    response = send(happy_core, build([ee], supplied_chains=[unrelated]))
    assert response.info.results[0].status is VerdictStatus.VALID


def test_supplied_chain_obeys_max_chain_length(tmp_path, server_identity,
                                                scenarios):
    # ee's only chain has two certificates, above a one-certificate bound
    core = make_core(tmp_path, server_identity,
                     scenarios.layout("happy3").out_dir,
                     policy_lines=("max_chain_length = 1",))
    ee = scenarios.cert("happy3", "ee", "sub")
    sub = scenarios.cert("happy3", "sub", "root")
    for supplied in ([], [sub]):
        response = send(core, build([ee], supplied_chains=supplied))
        result = response.info.results[0]
        assert result.status is VerdictStatus.UNKNOWN
        assert result.unknown_cause == "no-path"


def test_supplied_certificates_stay_with_their_request(tmp_path,
                                                       server_identity,
                                                       scenarios):
    # without its intermediate in the repository, ee has a path only while
    # a request supplies the intermediate
    repo = _repository_without(tmp_path, scenarios, "happy3", ("sub", "root"))
    core = make_core(tmp_path, server_identity, repo)
    ee = scenarios.cert("happy3", "ee", "sub")
    sub = scenarios.cert("happy3", "sub", "root")
    supplied = send(core, build([ee], supplied_chains=[sub]))
    assert supplied.info.results[0].status is VerdictStatus.VALID
    alone = send(core, build([ee]))
    assert alone.info.results[0].status is VerdictStatus.UNKNOWN


def test_request_work_does_not_grow_with_the_repository(
        tmp_path, server_identity, scenarios, monkeypatch):
    happy3 = scenarios.layout("happy3").out_dir
    larger = tmp_path / "larger"
    shutil.copytree(happy3, larger)
    for i in range(20):
        unrelated = fabricate_cert(f"unrelated-{i}", "unrelated-ca")
        (larger / "certs" / f"unrelated-{i}.der").write_bytes(unrelated.der)
    cores = [make_core(tmp_path, server_identity, d) for d in (happy3, larger)]
    calls = []

    def counting(cert):
        calls.append(cert)
        return certs.fingerprint(cert)

    monkeypatch.setattr(pathbuild, "fingerprint", counting)
    ee = scenarios.cert("happy3", "ee", "sub")
    counts = []
    for core in cores:
        before = len(calls)
        response = send(core, build([ee]))
        assert response.info.results[0].status is VerdictStatus.VALID
        counts.append(len(calls) - before)
    assert counts[0] == counts[1]


def test_targets_of_one_request_share_signature_checks(happy_core, scenarios,
                                                      monkeypatch):
    # ee's chain holds two certificate and two CRL signatures, all stored:
    # naming ee twice in a fresh core's first request checks each at most
    # once, and a repeat request finds them in the snapshot's memo
    verify = crypto.verify
    calls = []

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(crypto, "verify", counted)
    ee = scenarios.cert("happy3", "ee", "sub")
    counts = []
    for _ in range(2):
        calls.clear()
        response = send(happy_core, build([ee, ee]))
        assert [r.status for r in response.info.results] == (
            [VerdictStatus.VALID] * 2)
        counts.append(len(calls))
    assert counts[0] <= 4 and counts[1] == 0, counts


def _assert_memo_within_stored_pairs(repository):
    # every verdict is for a stored (issuer, signed object) pair, and no
    # request can add more than the snapshot's own pairs
    stored = list(repository.index.nodes.values())
    pairs = {(issuer.public_key, signed.der) for issuer in stored
             for signed in [*stored, *repository.crls_for(issuer.subject)]
             if signed.issuer == issuer.subject}
    verdicts = repository.signatures.verdicts
    assert set(verdicts) <= pairs and len(verdicts) <= len(pairs)


def test_stored_bad_signature_fails_on_every_request(tmp_path,
                                                     server_identity,
                                                     scenarios):
    core = make_core(tmp_path, server_identity,
                     scenarios.layout("bad-signature").out_dir)
    ee = scenarios.cert("bad-signature", "ee", "sub")
    for _ in range(2):
        result = send(core, build([ee])).info.results[0]
        assert (result.status, result.reason) == (
            VerdictStatus.INVALID, FailureReason.BAD_SIGNATURE)
    assert False in core.repository.signatures.verdicts.values()
    _assert_memo_within_stored_pairs(core.repository)


def test_supplied_issuer_key_is_checked_on_every_request(
        happy_core, scenarios, monkeypatch):
    # a supplied certificate names the stored "sub" but carries a foreign
    # key, and the target claims that key: every signature checked under
    # it (over the target and over sub's stored CRL) is the request's own
    layout = scenarios.layout("happy3")
    root_key = crypto.decode_key(layout.keys["root"].read_bytes())
    foreign = crypto.generate(b"foreign sub key")
    sub = scenarios.cert("happy3", "sub", "root")
    ee = scenarios.cert("happy3", "ee", "sub")

    def resign(cert, public_key, issuer_key):
        return certs.sign_certificate(
            serial=cert.serial + 100, issuer=cert.issuer,
            subject=cert.subject, not_before=cert.not_before,
            not_after=cert.not_after, public_key_alg=cert.public_key_alg,
            public_key=public_key, extensions=cert.extensions,
            issuer_key=issuer_key)

    fake_sub = resign(sub, foreign.public_key, root_key)
    target = resign(ee, ee.public_key, foreign)
    verify = crypto.verify
    under_foreign = []

    def counted(public_key, *args):
        if public_key == foreign.public_key:
            under_foreign.append(args)
        return verify(public_key, *args)

    monkeypatch.setattr(crypto, "verify", counted)
    counts = []
    for _ in range(2):
        under_foreign.clear()
        send(happy_core, build([target], supplied_chains=[fake_sub]))
        counts.append(len(under_foreign))
    assert counts[0] == counts[1] >= 2, counts
    verdicts = happy_core.repository.signatures.verdicts
    assert verdicts and foreign.public_key not in {k for k, _ in verdicts}
    _assert_memo_within_stored_pairs(happy_core.repository)


def test_reloaded_repository_starts_with_an_empty_memo(happy_core,
                                                       scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    send(happy_core, build([ee]))
    assert happy_core.repository.signatures.verdicts
    reloaded = Repository.load(happy_core.config.repository)
    assert reloaded.signatures.verdicts == {}


def test_concurrent_requests_fill_one_memo(tmp_path, server_identity,
                                           scenarios):
    # handler threads race to fill the snapshot's memo without a lock: each
    # gets the answers of a lone request, and the memo ends as one request
    # alone leaves it
    layout = scenarios.layout("bad-signature").out_dir
    targets = [scenarios.cert("bad-signature", "ee", "sub"),
               scenarios.cert("bad-signature", "sub", "root")]
    expected = [(VerdictStatus.INVALID, FailureReason.BAD_SIGNATURE),
                (VerdictStatus.VALID, None)]
    alone, shared = tmp_path / "alone", tmp_path / "shared"
    alone.mkdir()
    shared.mkdir()
    reference = make_core(alone, server_identity, layout)
    send(reference, build(targets))
    core = make_core(shared, server_identity, layout)
    start = threading.Barrier(8)
    outcomes = []
    lock = threading.Lock()

    def worker():
        start.wait(timeout=10)
        for _ in range(3):
            results = send(core, build(targets)).info.results
            with lock:
                outcomes.append([(r.status, r.reason) for r in results])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == [expected] * 24
    assert (core.repository.signatures.verdicts
            == reference.repository.signatures.verdicts)


def test_want_backs_selection(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    full = send(happy_core, build(
        [ee], want_backs={WantBack.CHAIN, WantBack.CRLS,
                          WantBack.VALIDATION_TIME}))
    evidence = full.info.results[0].evidence
    assert evidence.chain is not None and len(evidence.chain) == 3
    assert evidence.crls is not None and len(evidence.crls) == 2
    assert evidence.validation_time == NOW
    assert evidence.replies is None

    none = send(happy_core, build([ee], want_backs=frozenset()))
    assert none.info.results[0].evidence is None

    # absent extension falls back to the policy default (no want-backs here)
    absent = send(happy_core, build([ee]))
    assert absent.info.results[0].evidence is None


def test_default_want_backs_from_policy(tmp_path, server_identity, scenarios):
    core = make_core(tmp_path, server_identity,
                     scenarios.layout("happy3").out_dir,
                     policy_lines=("want_backs = validationTime",))
    ee = scenarios.cert("happy3", "ee", "sub")
    response = send(core, build([ee]))
    assert response.info.results[0].evidence.validation_time == NOW


def test_validation_time_override(happy_core, scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    later = datetime.datetime(2026, 6, 1, tzinfo=datetime.timezone.utc)
    request = build([ee], time_override=later,
                    want_backs={WantBack.VALIDATION_TIME})
    response = send(happy_core, request)
    result = response.info.results[0]
    # end entity expired at the overridden instant
    assert result.status is VerdictStatus.INVALID
    assert result.reason is FailureReason.EXPIRED
    assert result.evidence.validation_time == later


def test_request_extensions_are_decoded_once(happy_core, scenarios,
                                            monkeypatch):
    # the envelope, then the wantBacks and time-override payloads once each
    decode = protocol.decode_exact
    calls = []

    def counted(data):
        calls.append(data)
        return decode(data)

    monkeypatch.setattr(protocol, "decode_exact", counted)
    ee = scenarios.cert("happy3", "ee", "sub")
    later = datetime.datetime(2026, 6, 1, tzinfo=datetime.timezone.utc)
    body = protocol.encode_request(build(
        [ee], time_override=later, want_backs={WantBack.VALIDATION_TIME}))
    answer = happy_core.handle_dvcs_bytes(body)
    assert len(calls) == 3
    result = protocol.parse_response(answer).info.results[0]
    assert result.evidence.validation_time == later


def test_serials_increase_and_survive_restart(tmp_path, server_identity,
                                              scenarios):
    repo = scenarios.layout("happy3").out_dir
    core = make_core(tmp_path, server_identity, repo)
    ee = scenarios.cert("happy3", "ee", "sub")
    serials = [send(core, build([ee])).info.serial_number for _ in range(3)]
    assert serials == [1, 2, 3]
    # a second instance over the same state never reuses serials
    reborn = cvs.CvsServer(core.config)
    assert send(reborn, build([ee])).info.serial_number == 4


def test_corrupt_serial_state_fails_cleanly(tmp_path, server_identity,
                                            scenarios, monkeypatch, capsys):
    state = tmp_path / "state"
    state.mkdir()
    (state / "serial").write_text("abc\n")
    config = tmp_path / "server.cfg"
    config.write_text(make_server_config(
        scenarios.layout("happy3").out_dir, state, server_identity))
    with pytest.raises(ConfigError, match=re.escape(str(state / "serial"))):
        cvs.CvsServer(cvs.load_server_config(config))
    assert cvs.main(["--config", str(config)]) == 1
    assert "error: serial state" in capsys.readouterr().err


def test_concurrent_requests_unique_serials(tmp_path, server_identity,
                                            scenarios):
    core = make_core(tmp_path, server_identity,
                     scenarios.layout("happy3").out_dir)
    ee = scenarios.cert("happy3", "ee", "sub")
    results = []
    lock = threading.Lock()

    def worker():
        response = send(core, build([ee]))
        with lock:
            results.append(response.info.serial_number)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(results) == list(range(1, 9))


def test_http_endpoints(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    with urllib.request.urlopen(handle.url + "/health") as response:
        assert response.status == 200
        assert response.read() == b"ok\n"
    request = urllib.request.Request(handle.url + "/nowhere", data=b"x",
                                     method="POST")
    try:
        urllib.request.urlopen(request)
        assert False, "expected 404"
    except urllib.error.HTTPError as exc:
        assert exc.code == 404


def test_http_malformed_body_is_inband_notice(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    request = urllib.request.Request(
        handle.url + "/dvcs", data=b"not der at all", method="POST",
        headers={"Content-Type": protocol.DVCS_CONTENT_TYPE})
    with urllib.request.urlopen(request) as response:
        assert response.status == 200
        notice = protocol.parse_response(response.read())
    assert isinstance(notice, ErrorNotice)
    assert notice.code is ErrorCode.MALFORMED_REQUEST


def test_transaction_log_line(happy_core, scenarios, caplog):
    ee = scenarios.cert("happy3", "ee", "sub")
    with caplog.at_level(logging.INFO, logger="savacert.server"):
        send(happy_core, build([ee], nonce=424242))
    line = next(r.message for r in caplog.records if "nonce=424242" in
                r.message)
    assert "verdicts=valid" in line and "duration_ms=" in line


def test_internal_error_becomes_notice(happy_core, scenarios, monkeypatch):
    ee = scenarios.cert("happy3", "ee", "sub")
    monkeypatch.setattr(cvs.CvsServer, "handle",
                        lambda self, *a, **k: 1 / 0)
    response = send(happy_core, build([ee]))
    assert isinstance(response, ErrorNotice)
    assert response.code is ErrorCode.INTERNAL_ERROR


def test_config_validation():
    identity_stub = type("I", (), {"key_path": "k", "cert_path": "c"})
    with pytest.raises(ConfigError, match="exactly one policy"):
        cvs.parse_server_config(f"""
[server]
name = CN=X
key = k
certificate = c
repository = r
[policy a]
oid = 1.2.3
[policy b]
oid = 1.2.4
""")
    with pytest.raises(ConfigError, match="usage entries"):
        cvs.parse_server_config("""
[server]
name = CN=X
key = k
certificate = c
repository = r
[policy a]
oid = 1.2.3
default = true
usage e-mail =
""")
    with pytest.raises(ConfigError, match="unknown section"):
        cvs.parse_server_config("[nonsense]\n")
    with pytest.raises(ConfigError, match="at least one"):
        cvs.parse_server_config("""
[server]
name = CN=X
key = k
certificate = c
repository = r
""")


def test_repeated_server_sections_merge_key_by_key():
    config = cvs.parse_server_config("""
[server]
name = CN=First
responder_url = http://h/status
key = k
[server]
name = CN=Second
certificate = c
repository = r
[policy a]
oid = 1.2.3
default = true
""")
    assert config.responder_url == "http://h/status"
    assert config.name == certs.Name.from_string("CN=Second")
    assert config.key_path == pathlib.Path("k")


def test_unknown_anchor_label_fails_startup(tmp_path, server_identity,
                                            scenarios):
    with pytest.raises(ConfigError, match="anchor"):
        make_core(tmp_path, server_identity,
                  scenarios.layout("happy3").out_dir,
                  policy_lines=("anchors = no-such-label",))


def test_online_regime_needs_responder_url(tmp_path, server_identity,
                                           scenarios):
    with pytest.raises(ConfigError, match="responder_url"):
        make_core(tmp_path, server_identity,
                  scenarios.layout("happy3").out_dir, revocation="online")


def test_cli_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "broken.cfg"
    config.write_text("[server]\nname = CN=X\n")
    assert cvs.main(["--config", str(config)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("settings, argv, where", [
    ({"policy_lines": ("max_chain_length = 0",)}, [],
     "policy default: max_chain_length"),
    ({"policy_lines": ("max_chain_length = -2",)}, [],
     "policy default: max_chain_length"),
    ({"policy_lines": ("max_chain_length = two",)}, [],
     "policy default: max_chain_length"),
    ({"policy_lines": ("clock_skew = -1",)}, [], "policy default: clock_skew"),
    ({"server_lines": ("listen = 127.0.0.1:65536",)}, [],
     "[server] listen port"),
    ({}, ["--listen", "127.0.0.1:http"], "--listen port"),
    ({"clock": ""}, [], "[server] clock: expected"),
    ({"clock": "2025"}, [], "[server] clock: malformed"),
    ({"clock": "20250231000000Z"}, [], "[server] clock: impossible"),
    ({"policy_lines": ("oid = not.an.oid",)}, [], "policy default: oid"),
    ({"policy_lines": ("oid = 1",)}, [], "policy default: oid"),
    ({"policy_lines": ("usage e-mail = 1.2.x",)}, [],
     "policy default: usage e-mail"),
    ({"server_lines": ("name = bogus",)}, [], "[server] name"),
], ids=["length-0", "length-negative", "length-word", "skew-negative",
        "port-too-large", "cli-port-word", "clock-no-time", "clock-short-time",
        "clock-impossible-time", "policy-oid-word", "policy-oid-one-arc",
        "usage-oid-word", "server-name-bogus"])
def test_bad_integer_settings_fail_at_load(tmp_path, server_identity,
                                           monkeypatch, capsys, settings,
                                           argv, where):
    config = tmp_path / "server.cfg"
    config.write_text(make_server_config(tmp_path, tmp_path, server_identity,
                                         **settings))
    if not argv:
        with pytest.raises(ConfigError, match=re.escape(where)):
            cvs.load_server_config(config)
    monkeypatch.setattr(cvs, "serve", lambda config: 0)
    assert cvs.main(["--config", str(config), *argv]) == 1
    assert f"error: {where}" in capsys.readouterr().err


@pytest.mark.parametrize("settings, where", [
    ({"server_lines": ("lsiten = 127.0.0.1:8450",)},
     "[server] unknown key 'lsiten'"),
    ({"policy_lines": ("require_signed_request = true",)},
     "policy default: unknown key 'require_signed_request'"),
    ({"policy_lines": ("revocaton = online",)},
     "policy default: unknown key 'revocaton'"),
    ({"policy_lines": ("require_signed_requests = ture",)},
     "policy default: require_signed_requests: "),
    ({"server_lines": ("status_responder = maybe",)},
     "[server] status_responder: "),
    ({"responder_url": "not-a-url"}, "[server] responder_url: "),
    ({"revocation": "sometimes"}, "policy default: revocation: "),
    ({"policy_lines": ("want_backs = chain, replies",)},
     "policy default: want_backs: "),
], ids=["server-key", "policy-key-signed", "policy-key-revocation",
        "policy-bool", "server-bool", "responder-url", "revocation",
        "want-backs"])
def test_misspelt_keys_and_bad_values_fail_at_load(
        tmp_path, server_identity, monkeypatch, capsys, settings, where):
    config = tmp_path / "server.cfg"
    config.write_text(make_server_config(tmp_path, tmp_path, server_identity,
                                         **settings))
    with pytest.raises(ConfigError) as raised:
        cvs.load_server_config(config)
    assert str(raised.value).startswith(where)
    monkeypatch.setattr(cvs, "serve", lambda config: 0)
    assert cvs.main(["--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {raised.value}\n"


@pytest.mark.parametrize("flag", ["--clock-fixed", "--listen"])
def test_cli_empty_value_is_an_error(tmp_path, server_identity, monkeypatch,
                                     capsys, flag):
    config = tmp_path / "server.cfg"
    config.write_text(make_server_config(tmp_path, tmp_path, server_identity))
    served = []
    monkeypatch.setattr(cvs, "serve", served.append)
    assert cvs.main(["--config", str(config), flag, ""]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert served == []


def test_cli_serves_and_shuts_down_gracefully(tmp_path, server_identity,
                                              scenarios):
    import signal
    import subprocess
    import sys
    import time as time_mod

    ee = scenarios.cert("happy3", "ee", "sub")
    # the online case answers its own status queries, so at SIGTERM the
    # server holds pooled keep-alive connections to itself
    for regime in ("crl", "online"):
        state = tmp_path / regime
        state.mkdir()
        port = _free_port()
        config_path = state / "server.cfg"
        config_path.write_text(make_server_config(
            scenarios.layout("happy3").out_dir, state, server_identity,
            revocation=regime,
            responder_url=f"http://127.0.0.1:{port}/status"))
        process = subprocess.Popen(
            [sys.executable, "-m", "savacert.server", "--config",
             str(config_path), "--listen", f"127.0.0.1:{port}"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        try:
            deadline = time_mod.time() + 10
            while time_mod.time() < deadline:
                try:
                    with urllib.request.urlopen(
                            f"http://127.0.0.1:{port}/health", timeout=1) as r:
                        assert r.read() == b"ok\n"
                    break
                except OSError:
                    time_mod.sleep(0.05)
            else:
                raise AssertionError("server never answered /health")
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/dvcs", method="POST",
                data=protocol.encode_request(build([ee])))
            with urllib.request.urlopen(request, timeout=10) as r:
                response = protocol.parse_response(r.read())
            assert response.info.results[0].status is VerdictStatus.VALID
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=10) == 0, regime
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


def _free_port() -> int:
    import socket
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _raw_exchange(handle, data: bytes) -> bytes:
    """Send hand-written request bytes on a new connection and read until
    the server closes; a server that waits for more input times out here."""
    with socket.create_connection(handle.httpd.server_address[:2],
                                  timeout=5) as sock:
        sock.sendall(data)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    return received


def _raw_post(handle, length_header: str, body: bytes = b"") -> bytes:
    """One POST with a hand-written Content-Length."""
    return _raw_exchange(handle, f"POST /dvcs HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Length: {length_header}\r\n\r\n".encode()
                         + body)


@pytest.mark.parametrize("length", ["abc", "-5", "+7", "1e3", ""])
def test_http_bad_content_length_is_400(scenarios, server_factory, length):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    reply = _raw_post(handle, length)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in reply


def test_http_oversized_body_is_413_without_reading(scenarios,
                                                    server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    reply = _raw_post(handle, str(cvs.MAX_BODY + 1))
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert b"Connection: close" in reply


def test_http_short_body_times_out_and_closes(scenarios, server_factory,
                                             monkeypatch):
    # the handler bounds every socket read; shortened here to keep the test
    # quick, it must close a connection whose body never arrives
    assert cvs._Handler.timeout
    monkeypatch.setattr(cvs._Handler, "timeout", 0.5)
    handle = server_factory(scenarios.layout("happy3").out_dir)
    assert _raw_post(handle, "100", bytes(10)) == b""
    with urllib.request.urlopen(handle.url + "/health", timeout=5) as reply:
        assert reply.read() == b"ok\n"


def test_http_largest_body_is_read(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    host, port = handle.httpd.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("POST", "/dvcs", body=bytes(cvs.MAX_BODY))
        response = conn.getresponse()
        assert response.status == 200
        notice = protocol.parse_response(response.read())
    finally:
        conn.close()
    assert notice.code is ErrorCode.MALFORMED_REQUEST


def test_serial_survives_a_torn_state_write(tmp_path, server_identity,
                                            scenarios, monkeypatch):
    core = make_core(tmp_path, server_identity,
                     scenarios.layout("happy3").out_dir)
    ee = scenarios.cert("happy3", "ee", "sub")
    issued = [send(core, build([ee])).info.serial_number for _ in range(3)]

    def torn_write(self, *args, **kwargs):
        self.open("w").close()  # truncated, then the process dies
        raise OSError("crash while writing")

    monkeypatch.setattr(pathlib.Path, "write_text", torn_write)
    assert isinstance(send(core, build([ee])), ErrorNotice)
    monkeypatch.undo()
    reborn = cvs.CvsServer(core.config)
    assert send(reborn, build([ee])).info.serial_number > max(issued)


def test_every_response_is_one_write(scenarios, server_factory, monkeypatch,
                                     caplog):
    # a head flushed ahead of its body would wait for the client's delayed
    # ACK on a kept-alive connection; count the handler's socket writes
    writes = []
    write = socketserver._SocketWriter.write

    def counted(self, data):
        writes.append(bytes(data))
        return write(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counted)
    handle = server_factory(scenarios.layout("happy3").out_dir)
    host, port = handle.httpd.server_address[:2]
    ee = scenarios.cert("happy3", "ee", "sub")
    dvcs = protocol.encode_request(build([ee]))
    exchanges = [("POST", "/dvcs", dvcs, 200), ("POST", "/dvcs", dvcs, 200),
                 ("GET", "/health", None, 200), ("GET", "/nowhere", None, 404),
                 ("POST", "/status", b"not a query", 400)]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        for method, path, body, status in exchanges:
            writes.clear()
            conn.request(method, path, body=body)
            response = conn.getresponse()
            payload = response.read()
            assert response.status == status, path
            assert len(writes) == 1, (method, path, len(writes))
            assert writes[0].startswith(b"HTTP/1.1 %d " % status)
            assert writes[0].endswith(b"\r\n\r\n" + payload)
            assert not response.will_close
    finally:
        conn.close()

    writes.clear()
    reply = _raw_post(handle, str(cvs.MAX_BODY + 1))
    assert reply.startswith(b"HTTP/1.1 413 ")
    assert writes == [reply]

    # replies http.server writes itself: 501 for an unknown method, 400 for
    # a malformed request line
    for data, status in [
            (b"PUT /dvcs HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
            (b"GET /health extra HTTP/1.1\r\n\r\n", 400)]:
        writes.clear()
        reply = _raw_exchange(handle, data)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert b"\r\nConnection: close\r\n" in reply
        assert writes == [reply]

    # a fault in the responder: a query that does not parse gets 400 on a
    # connection kept open; any other fault is logged and gets 500, closing
    query = (b"POST /status HTTP/1.1\r\nConnection: close\r\n"
             b"Content-Length: 3\r\n\r\nabc")
    for fault, status in [(ValueError, 400), (OverflowError, 400),
                          (RuntimeError, 500)]:
        def fail(self, body, fault=fault):
            raise fault("injected")

        monkeypatch.setattr(cvs.CvsServer, "handle_status_bytes", fail)
        writes.clear()
        with caplog.at_level(logging.ERROR, logger="savacert.server"):
            reply = _raw_exchange(handle, query)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert (b"\r\nConnection: close\r\n" in reply) is (status == 500)
        assert writes == [reply]
    assert [r.exc_info[0] for r in caplog.records
            if r.levelno == logging.ERROR] == [RuntimeError]
    with urllib.request.urlopen(handle.url + "/health", timeout=5) as reply:
        assert reply.read() == b"ok\n"


def test_signed_request_is_checked_over_the_bytes_received(
        tmp_path, server_identity, scenarios, monkeypatch):
    core = make_core(tmp_path, server_identity,
                     scenarios.layout("happy3").out_dir,
                     policy_lines=("require_signed_requests = true",))
    layout = scenarios.layout("happy3")
    raw = protocol.encode_request(build(
        [scenarios.cert("happy3", "ee", "sub")],
        signer_key=crypto.decode_key(layout.keys["root"].read_bytes()),
        signer_cert=scenarios.cert("happy3", "root", "root")))
    signed_body = decode_exact(raw).inner.elements[0].der
    encoded = []
    protocol_encode = protocol.encode

    def recorded(value):
        encoded.append(protocol_encode(value))
        return encoded[-1]

    monkeypatch.setattr(protocol, "encode", recorded)
    response = protocol.parse_response(core.handle_dvcs_bytes(raw))
    assert response.info.results[0].status is VerdictStatus.VALID
    assert encoded and signed_body not in encoded


def test_http_09_request_gets_a_bare_body(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    assert _raw_exchange(handle, b"GET /health\r\n\r\n") == b"ok\n"
