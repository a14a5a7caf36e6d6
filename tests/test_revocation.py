import datetime
import shutil
import socket
import threading

import pytest

from savacert import crypto, protocol, revocation, server as cvs
from savacert.certs import ReasonCode, RevokedEntry, parse_crl, sign_crl
from savacert.der import (
    BitString,
    DecodeError,
    Oid,
    Sequence,
    decode_exact,
    encode,
)
from savacert.policytree import CprRequirement
from savacert.revocation import (
    BadResponderSignature,
    CertStatus,
    IssuerMismatch,
    NonceMismatch,
    StatusValue,
    Transport,
    build_status_query,
    build_status_reply,
    check_crl,
    check_online,
    issuer_digest,
    parse_status_query,
    verify_status_reply,
)
from savacert.storage import Repository
from savacert.validation import FailureReason, VerdictStatus

from conftest import NOW, make_server_config

UTC = datetime.timezone.utc


def test_check_crl_revoked(scenarios):
    layout = scenarios.layout("revoked-ee")
    ee = scenarios.cert("revoked-ee", "ee", "sub")
    crl = parse_crl(layout.crls["sub"].read_bytes())
    status = check_crl(ee, crl, NOW)
    assert status.value is StatusValue.REVOKED
    assert status.reason is ReasonCode.KEY_COMPROMISE
    assert status.revocation_date <= NOW
    assert status.evidence is crl


def test_check_crl_good(scenarios):
    layout = scenarios.layout("happy3")
    ee = scenarios.cert("happy3", "ee", "sub")
    crl = parse_crl(layout.crls["sub"].read_bytes())
    status = check_crl(ee, crl, NOW)
    assert status.is_good and status.source == "crl"


def test_check_crl_stale(scenarios):
    layout = scenarios.layout("happy3")
    ee = scenarios.cert("happy3", "ee", "sub")
    crl = parse_crl(layout.crls["sub"].read_bytes())
    after = crl.next_update + datetime.timedelta(days=1)
    status = check_crl(ee, crl, after)
    assert status.value is StatusValue.UNDETERMINED
    assert status.cause == revocation.CAUSE_STALE_CRL

    before = crl.this_update - datetime.timedelta(days=1)
    status = check_crl(ee, crl, before)
    assert status.value is StatusValue.UNDETERMINED
    assert status.cause == revocation.CAUSE_CRL_NOT_YET_VALID


def test_check_crl_revocation_date_in_future(scenarios):
    layout = scenarios.layout("revoked-ee")
    ee = scenarios.cert("revoked-ee", "ee", "sub")
    crl = parse_crl(layout.crls["sub"].read_bytes())
    just_before = crl.entry_for(ee.serial).revocation_date \
        - datetime.timedelta(seconds=1)
    status = check_crl(ee, crl, just_before)
    assert status.value is StatusValue.UNDETERMINED
    assert status.cause == revocation.CAUSE_FUTURE_REVOCATION


def test_check_crl_issuer_mismatch(scenarios):
    layout = scenarios.layout("happy3")
    ee = scenarios.cert("happy3", "ee", "sub")
    wrong = parse_crl(layout.crls["root"].read_bytes())
    with pytest.raises(IssuerMismatch):
        check_crl(ee, wrong, NOW)


def test_status_query_roundtrip(scenarios):
    ee = scenarios.cert("happy3", "ee", "sub")
    query, nonce = build_status_query(ee.issuer, ee.serial, nonce=12345)
    digest, serial, parsed_nonce = parse_status_query(query)
    assert digest == issuer_digest(ee.issuer)
    assert serial == ee.serial and parsed_nonce == nonce == 12345


def test_reply_sign_verify_and_tamper(scenarios, server_identity):
    ee = scenarios.cert("happy3", "ee", "sub")
    key = crypto.decode_key(server_identity.key_path.read_bytes())
    query, _ = build_status_query(ee.issuer, ee.serial, nonce=7)
    status = CertStatus(StatusValue.GOOD, "online", None)
    reply = build_status_reply(query, status, NOW, key)

    verified = verify_status_reply(reply, query, server_identity.certificate)
    assert verified.is_good and verified.evidence == reply

    broken = bytearray(reply)
    broken[-1] ^= 0x01
    with pytest.raises(BadResponderSignature):
        verify_status_reply(bytes(broken), query, server_identity.certificate)

    other_query, _ = build_status_query(ee.issuer, ee.serial, nonce=8)
    with pytest.raises(NonceMismatch):
        verify_status_reply(reply, other_query, server_identity.certificate)


def test_reply_carries_revocation_details(scenarios, server_identity):
    ee = scenarios.cert("revoked-ee", "ee", "sub")
    key = crypto.decode_key(server_identity.key_path.read_bytes())
    query, _ = build_status_query(ee.issuer, ee.serial, nonce=9)
    status = CertStatus(StatusValue.REVOKED, "online", None,
                        revocation_date=NOW, reason=ReasonCode.KEY_COMPROMISE)
    reply = build_status_reply(query, status, NOW, key)
    verified = verify_status_reply(reply, query, server_identity.certificate)
    assert verified.value is StatusValue.REVOKED
    assert verified.revocation_date == NOW
    assert verified.reason is ReasonCode.KEY_COMPROMISE


def test_reply_with_unknown_reason_code_is_a_decode_error(scenarios,
                                                          server_identity):
    # cessationOfOperation (5) is valid under RFC 5280 but not a ReasonCode
    ee = scenarios.cert("revoked-ee", "ee", "sub")
    key = crypto.decode_key(server_identity.key_path.read_bytes())
    query, _ = build_status_query(ee.issuer, ee.serial, nonce=10)
    status = CertStatus(StatusValue.REVOKED, "online", None,
                        revocation_date=NOW, reason=5)
    reply = build_status_reply(query, status, NOW, key)
    with pytest.raises(DecodeError, match="unknown reason code 5"):
        verify_status_reply(reply, query, server_identity.certificate)


def _assert_ee_revocation_undetermined(scenarios, handle):
    """A request for happy3's ee gets a DVC, not an error notice, whose
    verdict is INVALID/REVOCATION_UNDETERMINED at index 0."""
    request = protocol.build_request(
        targets=[scenarios.cert("happy3", "ee", "sub")],
        cpr=CprRequirement.any_policy(), now=NOW)
    response = protocol.parse_response(
        handle.core.handle_dvcs_bytes(protocol.encode_request(request)))
    assert not isinstance(response, protocol.ErrorNotice), response
    result = response.info.results[0]
    assert result.status is VerdictStatus.INVALID
    assert result.reason is FailureReason.REVOCATION_UNDETERMINED
    assert result.failing_index == 0


def test_unknown_reason_code_leaves_revocation_undetermined(
        scenarios, server_factory, monkeypatch):
    handle = server_factory(scenarios.layout("happy3").out_dir,
                            revocation="online")
    monkeypatch.setattr(
        revocation, "responder_status",
        lambda crls_for_digest, digest, serial, at: CertStatus(
            StatusValue.REVOKED, "online", None, revocation_date=NOW,
            reason=5))
    _assert_ee_revocation_undetermined(scenarios, handle)


def test_reply_under_unknown_algorithm_leaves_revocation_undetermined(
        scenarios, server_factory, monkeypatch):
    handle = server_factory(scenarios.layout("happy3").out_dir,
                            revocation="online")
    build = revocation.build_status_reply

    def odd_algorithm(query_der, status, produced_at, key):
        # a well-formed reply signed by the right key under OID 1.2.3.4
        reply = decode_exact(build(query_der, status, produced_at, key))
        signed = Sequence([*reply.elements[:3], Oid("1.2.3.4")])
        signature = BitString(crypto.sign(key, encode(signed)), 0)
        return encode(Sequence([*signed.elements, signature]))

    monkeypatch.setattr(revocation, "build_status_reply", odd_algorithm)
    _assert_ee_revocation_undetermined(scenarios, handle)


def test_check_online_against_running_responder(scenarios, server_factory):
    handle = server_factory(scenarios.layout("revoked-ee").out_dir)
    url = handle.url + "/status"
    responder_cert = handle.identity.certificate

    revoked = scenarios.cert("revoked-ee", "ee", "sub")
    status = check_online(revoked, url, responder_cert)
    assert status.value is StatusValue.REVOKED
    assert status.reason is ReasonCode.KEY_COMPROMISE
    assert status.source == "online"

    good = scenarios.cert("revoked-ee", "sub", "root")
    assert check_online(good, url, responder_cert).is_good

    stranger = scenarios.cert("mesh2paths", "ee", "s")
    unknown = check_online(stranger, url, responder_cert)
    assert unknown.value is StatusValue.UNDETERMINED
    assert unknown.cause == revocation.CAUSE_UNKNOWN_ISSUER


def test_check_online_wrong_responder_cert(scenarios, server_factory):
    handle = server_factory(scenarios.layout("happy3").out_dir)
    ee = scenarios.cert("happy3", "ee", "sub")
    imposter = scenarios.cert("happy3", "root", "root")
    with pytest.raises(BadResponderSignature):
        check_online(ee, handle.url + "/status", imposter)


def test_check_online_transport_error(scenarios, server_identity):
    ee = scenarios.cert("happy3", "ee", "sub")
    with pytest.raises(Transport):
        check_online(ee, "http://127.0.0.1:1/status",
                     server_identity.certificate, timeout=0.5)


def test_check_online_unusable_url_is_transport_error(scenarios,
                                                      server_identity):
    ee = scenarios.cert("happy3", "ee", "sub")
    with pytest.raises(Transport, match="not-a-url"):
        check_online(ee, "not-a-url", server_identity.certificate)


def test_crl_and_online_agree_per_scenario(scenarios, server_factory):
    for name in ("happy3", "revoked-ee", "revoked-intermediate"):
        layout = scenarios.layout(name)
        handle = server_factory(layout.out_dir)
        repo = Repository.load(layout.out_dir)
        for (subject, issuer) in layout.certs:
            cert = scenarios.cert(name, subject, issuer)
            crls = repo.crls_for(cert.issuer)
            if not crls:
                continue
            via_crl = check_crl(cert, crls[0], NOW)
            via_online = check_online(cert, handle.url + "/status",
                                      handle.identity.certificate)
            assert via_crl.value == via_online.value, (name, subject)
            assert via_crl.revocation_date == via_online.revocation_date
            assert via_crl.reason == via_online.reason


def _accepted(monkeypatch) -> list:
    """The server-side sockets of every connection CvsHttpServer accepts."""
    get_request = cvs.CvsHttpServer.get_request

    def counted(self):
        sock, address = get_request(self)
        accepted.append(sock)
        return sock, address

    accepted = []
    monkeypatch.setattr(cvs.CvsHttpServer, "get_request", counted)
    return accepted


def test_online_requests_reuse_one_responder_connection(
        scenarios, server_factory, monkeypatch):
    accepted = _accepted(monkeypatch)
    handle = server_factory(scenarios.layout("happy3").out_dir,
                            revocation="online")
    ee = scenarios.cert("happy3", "ee", "sub")
    for nonce in range(20):  # two status queries each: ee and sub
        request = protocol.build_request(
            targets=[ee], cpr=CprRequirement.any_policy(), now=NOW,
            nonce=nonce)
        response = protocol.parse_response(
            handle.core.handle_dvcs_bytes(protocol.encode_request(request)))
        assert response.info.results[0].status is VerdictStatus.VALID
    assert len(accepted) == 1


def test_pooled_connection_closed_by_responder_is_retried_once(
        scenarios, server_factory, monkeypatch):
    accepted = _accepted(monkeypatch)
    handle = server_factory(scenarios.layout("happy3").out_dir)
    url, responder_cert = handle.url + "/status", handle.identity.certificate
    ee = scenarios.cert("happy3", "ee", "sub")
    assert check_online(ee, url, responder_cert).is_good
    accepted[0].shutdown(socket.SHUT_RDWR)  # the responder ends the idle one
    assert check_online(ee, url, responder_cert).is_good
    assert len(accepted) == 2

    # a responder that drops every query unanswered: the pooled connection
    # is retried once on a new one, and a new one is never retried
    monkeypatch.setattr(cvs._Handler, "do_POST",
                        lambda self: setattr(self, "close_connection", True))
    with pytest.raises(Transport):
        check_online(ee, url, responder_cert)
    assert len(accepted) == 3
    with pytest.raises(Transport):
        check_online(ee, url, responder_cert)
    assert len(accepted) == 4


def _raise_runtime_error(self, body):
    raise RuntimeError("responder fault")


@pytest.mark.parametrize("path, answer", [
    ("/status", _raise_runtime_error),           # 500, Connection: close
    ("/nowhere", None),                          # 404, kept alive
    ("/status", lambda self, body: b"no reply"),  # 200, not a reply
])
def test_failed_status_exchange_is_transport_and_not_pooled(
        scenarios, server_factory, monkeypatch, path, answer):
    accepted = _accepted(monkeypatch)
    handle = server_factory(scenarios.layout("happy3").out_dir)
    url, responder_cert = handle.url + "/status", handle.identity.certificate
    ee = scenarios.cert("happy3", "ee", "sub")
    assert check_online(ee, url, responder_cert).is_good
    with monkeypatch.context() as patch:
        if answer is not None:
            patch.setattr(cvs.CvsServer, "handle_status_bytes", answer)
        with pytest.raises(Transport):
            check_online(ee, handle.url + path, responder_cert)
    assert len(accepted) == 1  # the failed query took the pooled connection
    assert check_online(ee, url, responder_cert).is_good
    assert len(accepted) == 2  # and closed it


def test_concurrent_queries_each_get_their_own_reply(
        scenarios, server_factory, monkeypatch):
    monkeypatch.setattr(revocation, "MAX_IDLE_PER_RESPONDER", 2)
    handle = server_factory(scenarios.layout("happy3").out_dir)
    url, responder_cert = handle.url + "/status", handle.identity.certificate
    ee = scenarios.cert("happy3", "ee", "sub")
    start = threading.Barrier(8)
    echoed = {}

    def query(nonce):
        start.wait()
        for _ in range(3):
            reply = check_online(ee, url, responder_cert, nonce=nonce).evidence
            echo = decode_exact(reply).elements[0].der
            echoed.setdefault(nonce, set()).add(parse_status_query(echo)[2])

    threads = [threading.Thread(target=query, args=(1000 + i,))
               for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert echoed == {1000 + i: {1000 + i} for i in range(8)}
    host, port = handle.httpd.server_address[:2]
    assert 1 <= len(revocation._idle[("http", host, port)]) <= 2


NEWER = datetime.datetime(2025, 6, 1, tzinfo=UTC)
LATER = datetime.datetime(2035, 1, 1, tzinfo=UTC)


def _sub_crl(scenarios, this_update, next_update, revoked=()):
    layout = scenarios.layout("happy3")
    key = crypto.decode_key(layout.keys["sub"].read_bytes())
    sub = scenarios.cert("happy3", "sub", "root")
    return sign_crl(issuer=sub.subject, this_update=this_update,
                    next_update=next_update, revoked=revoked, issuer_key=key)


def _revoked_ee(scenarios, date):
    ee = scenarios.cert("happy3", "ee", "sub")
    return (RevokedEntry(ee.serial, date, ReasonCode.KEY_COMPROMISE),)


def _validate_with_extra_crl(scenarios, server_identity, tmp_path, extra):
    """Result for happy3's ee at NOW, with ``extra`` stored next to the
    original CRL for sub."""
    repo = tmp_path / "repo"
    shutil.copytree(scenarios.layout("happy3").out_dir, repo)
    (repo / "crls" / "sub-newer.crl").write_bytes(extra.der)
    state = tmp_path / "state"
    state.mkdir()
    core = cvs.CvsServer(cvs.parse_server_config(
        make_server_config(repo, state, server_identity), tmp_path))
    request = protocol.build_request(
        targets=[scenarios.cert("happy3", "ee", "sub")],
        cpr=CprRequirement.any_policy(), now=NOW, time_override=NOW)
    response = protocol.parse_response(
        core.handle_dvcs_bytes(protocol.encode_request(request)))
    result = response.info.results[0]
    return result.status, result.reason


def test_crl_chosen_for_validation_time(scenarios, server_identity,
                                        tmp_path):
    # a second, newer CRL for sub does not yet cover the requested time;
    # the original one does, so the chain validates
    newer = _sub_crl(scenarios, NEWER, LATER)
    assert _validate_with_extra_crl(scenarios, server_identity, tmp_path,
                                    newer) == (VerdictStatus.VALID, None)


def test_newer_crl_revocation_wins(scenarios, server_identity, tmp_path):
    # the newer CRL does not cover NOW, but it revokes ee before NOW
    newer = _sub_crl(scenarios, NEWER, LATER,
                     _revoked_ee(scenarios, NOW - datetime.timedelta(days=5)))
    assert _validate_with_extra_crl(scenarios, server_identity, tmp_path,
                                    newer) == (VerdictStatus.INVALID,
                                               FailureReason.REVOKED)
    original = parse_crl(scenarios.layout("happy3").crls["sub"].read_bytes())
    ee = scenarios.cert("happy3", "ee", "sub")
    status = revocation.responder_status(
        lambda digest: [newer, original], issuer_digest(ee.issuer),
        ee.serial, NOW)
    assert status.value is StatusValue.REVOKED
    assert status.revocation_date == NOW - datetime.timedelta(days=5)


def test_newer_crl_later_revocation_keeps_good(scenarios):
    # a revocation dated after NOW in a CRL that does not cover NOW leaves
    # the covering CRL's GOOD in place
    newer = _sub_crl(scenarios, NEWER, LATER, _revoked_ee(scenarios, NEWER))
    original = parse_crl(scenarios.layout("happy3").crls["sub"].read_bytes())
    ee = scenarios.cert("happy3", "ee", "sub")
    assert revocation.crl_for_time([newer, original], ee.serial,
                                   NOW) is original


def test_responder_uses_crl_covering_the_time(scenarios):
    original = parse_crl(scenarios.layout("happy3").crls["sub"].read_bytes())
    newer = _sub_crl(scenarios, NEWER, LATER)
    ee = scenarios.cert("happy3", "ee", "sub")
    status = revocation.responder_status(
        lambda digest: [newer, original], issuer_digest(ee.issuer),
        ee.serial, NOW)
    assert status.value is StatusValue.GOOD


def test_crl_choice_falls_back_to_freshest(scenarios):
    stale = _sub_crl(scenarios, NOW - datetime.timedelta(days=20),
                     NOW - datetime.timedelta(days=10))
    staler = _sub_crl(scenarios, NOW - datetime.timedelta(days=30),
                      NOW - datetime.timedelta(days=20))
    ee = scenarios.cert("happy3", "ee", "sub")
    assert revocation.crl_for_time([stale, staler], ee.serial, NOW) is stale
    status = revocation.responder_status(
        lambda digest: [stale, staler], issuer_digest(ee.issuer),
        ee.serial, NOW)
    assert status.cause == revocation.CAUSE_STALE_CRL
