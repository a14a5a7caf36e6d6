import datetime

import pytest

from savacert import certs, client, crypto, oids, protocol
from savacert.certs import fingerprint
from savacert.der import (
    ContextTagged,
    GeneralizedTime,
    Integer,
    Oid,
    Sequence,
    decode_exact,
    encode,
)
from savacert.policytree import CprRequirement
from savacert.storage import Repository
from savacert.validation import FailureReason, VerdictStatus

from conftest import NOW
from helpers import fabricate_cert, junk_in_replies, unsigned_dvc

P1 = Oid("1.3.6.1.4.1.57264.8.1")


@pytest.fixture
def happy(scenarios):
    return {
        "root": scenarios.cert("happy3", "root", "root"),
        "sub": scenarios.cert("happy3", "sub", "root"),
        "ee": scenarios.cert("happy3", "ee", "sub"),
    }


@pytest.fixture
def server_key(server_identity):
    return crypto.decode_key(server_identity.key_path.read_bytes())


def build(targets, cpr=None, **kwargs):
    return protocol.build_request(
        targets=targets, cpr=cpr or CprRequirement.any_policy(), now=NOW,
        **kwargs)


def test_request_roundtrip(happy):
    request = build(
        [happy["ee"], happy["sub"]],
        CprRequirement.strict((P1,), True, False),
        dvcs_name=happy["root"].subject,
        request_policy=oids.POLICY_DEFAULT,
        want_backs={protocol.WantBack.CHAIN, protocol.WantBack.CRLS},
        supplied_chains=[happy["sub"]],
        time_override=NOW)
    raw = protocol.encode_request(request)
    parsed = protocol.parse_request(raw)
    assert parsed == request
    assert protocol.encode_request(parsed) == raw
    assert parsed.supplied == (happy["sub"],)
    assert parsed.want_backs == frozenset(
        {protocol.WantBack.CHAIN, protocol.WantBack.CRLS})
    assert parsed.time_override == NOW
    assert parsed.acceptable_set == (P1,)
    assert parsed.explicit_policy_required


def test_stored_certificates_are_used_as_they_are(happy, scenarios,
                                                 monkeypatch):
    stored = Repository.load(scenarios.layout("happy3").out_dir).index.nodes
    raw = protocol.encode_request(build([happy["ee"]],
                                        supplied_chains=[happy["sub"]]))

    def no_parse(*args):
        raise AssertionError("a stored certificate was parsed again")

    monkeypatch.setattr(certs, "_parse_tbs", no_parse)
    parsed = protocol.parse_request(raw, stored)
    assert parsed.targets[0] is stored[fingerprint(happy["ee"])]
    assert parsed.supplied[0] is stored[fingerprint(happy["sub"])]


def test_unstored_target_is_parsed(scenarios):
    stored = Repository.load(scenarios.layout("happy3").out_dir).index.nodes
    stranger = fabricate_cert("stranger", "unrelated-ca")
    assert fingerprint(stranger) not in stored
    parsed = protocol.parse_request(
        protocol.encode_request(build([stranger])), stored)
    assert parsed.targets == (stranger,)


def test_strict_cpr_uses_fields_weak_uses_extension(happy):
    strict = build([happy["ee"]], CprRequirement.strict((P1,)))
    assert strict.acceptable_set == (P1,)
    assert strict.intended_usage is None

    weak = protocol.parse_request(protocol.encode_request(
        build([happy["ee"]], CprRequirement.weak("e-mail"))))
    assert weak.acceptable_set == ()
    assert weak.intended_usage == "e-mail"
    (ext,) = weak.info.extensions
    assert ext.oid == oids.REQ_INTENDED_USAGE and ext.critical

    blank = build([happy["ee"]])
    assert blank.acceptable_set == ()
    assert not blank.explicit_policy_required
    assert blank.info.extensions == ()


def test_request_needs_targets(happy):
    request = build([happy["ee"]])
    with pytest.raises(protocol.ProtocolError):
        protocol.encode_request(protocol.ValidationRequest(request.info, ()))


def test_extension_oid_constants():
    assert oids.REQ_INTENDED_USAGE.dotted() == "1.3.6.1.4.1.57264.2.1"
    assert oids.REQ_SUPPLIED_CHAINS.dotted() == "1.3.6.1.4.1.57264.2.2"
    assert oids.REQ_WANT_BACKS.dotted() == "1.3.6.1.4.1.57264.2.3"
    assert oids.REQ_TIME_OVERRIDE.dotted() == "1.3.6.1.4.1.57264.2.4"


def test_raw_target_bytes_equal_parsed_encoding(happy, scenarios):
    raw_target = scenarios.cert_path("happy3", "ee", "sub").read_bytes()
    thin = build([raw_target])
    rich = protocol.ValidationRequest(thin.info, (happy["ee"],))
    assert protocol.encode_request(thin) == protocol.encode_request(rich)
    assert thin.target_fingerprints() == [fingerprint(happy["ee"])]


def test_request_signature(happy, scenarios):
    root_key = crypto.decode_key(
        scenarios.layout("happy3").keys["root"].read_bytes())
    signed = build([happy["ee"]], signer_key=root_key,
                   signer_cert=happy["root"])
    raw = protocol.encode_request(signed)
    parsed = protocol.parse_request(raw)
    assert protocol.verify_request_signature(parsed)
    # altering the body invalidates the signature
    altered = protocol.ValidationRequest(
        parsed.info, parsed.targets, (P1,),
        parsed.explicit_policy_required, parsed.inhibit_policy_mapping,
        parsed.signature)
    assert not protocol.verify_request_signature(altered)


def _dvc(happy, server_identity, server_key, results=None, echo=None):
    request = build([happy["ee"]])
    info = protocol.DvcInfo(
        serial_number=7, produced_at=NOW,
        echo=echo if echo is not None else request.info,
        results=results if results is not None else (
            protocol.TargetResult(fingerprint(happy["ee"]),
                                  VerdictStatus.VALID, (P1,), ()),))
    return request, info


def test_dvc_sign_parse_verify(happy, server_identity, server_key):
    request, info = _dvc(happy, server_identity, server_key)
    raw = protocol.sign_dvc(info, server_identity.certificate, server_key)
    parsed = protocol.parse_response(raw)
    assert isinstance(parsed, protocol.DvcResponse)
    assert parsed.info == info
    protocol.verify_response(parsed, request.info,
                             protocol.ResponseTrust())

    # byte-exact echo invariant
    assert encode(protocol.info_value(parsed.info.echo)) == \
        encode(protocol.info_value(request.info))


def test_echo_mismatch_detected(happy, server_identity, server_key):
    request, info = _dvc(happy, server_identity, server_key)
    tampered_echo = protocol.RequestInformation(
        nonce=request.info.nonce,  # same nonce, different field
        request_time=request.info.request_time + datetime.timedelta(seconds=1))
    bad_info = protocol.DvcInfo(info.serial_number, info.produced_at,
                                tampered_echo, info.results)
    raw = protocol.sign_dvc(bad_info, server_identity.certificate, server_key)
    with pytest.raises(protocol.EchoMismatch):
        protocol.verify_response(protocol.parse_response(raw), request.info,
                                 protocol.ResponseTrust())


def test_nonce_mismatch_detected(happy, server_identity, server_key):
    request, info = _dvc(happy, server_identity, server_key)
    other = build([happy["ee"]])
    raw = protocol.sign_dvc(
        protocol.DvcInfo(1, NOW, other.info, info.results),
        server_identity.certificate, server_key)
    with pytest.raises(protocol.NonceMismatch):
        protocol.verify_response(protocol.parse_response(raw), request.info,
                                 protocol.ResponseTrust())


def test_tampered_signature_detected(happy, server_identity, server_key):
    request, info = _dvc(happy, server_identity, server_key)
    raw = bytearray(protocol.sign_dvc(info, server_identity.certificate,
                                      server_key))
    raw[-1] ^= 0x01
    with pytest.raises(protocol.BadServerSignature):
        protocol.verify_response(protocol.parse_response(bytes(raw)),
                                 request.info, protocol.ResponseTrust())


def test_tampered_dvc_info_detected(happy, server_identity, server_key):
    request, info = _dvc(happy, server_identity, server_key)
    raw = protocol.sign_dvc(info, server_identity.certificate, server_key)
    # flip a byte inside dvcInfo (the serial integer content)
    serial_der = encode(protocol.dvc_info_value(info))
    index = raw.index(serial_der[:20]) + 10
    tampered = bytearray(raw)
    tampered[index] ^= 0x01
    try:
        parsed = protocol.parse_response(bytes(tampered))
    except Exception:
        return  # structural damage is an acceptable outcome
    with pytest.raises((protocol.BadServerSignature, protocol.EchoMismatch,
                        protocol.NonceMismatch)):
        protocol.verify_response(parsed, request.info,
                                 protocol.ResponseTrust())


def test_signature_covers_the_bytes_received(happy, server_identity,
                                             server_key):
    # a result's failingIndex changed from 1 to 2 still parses; the
    # signature is checked over the dvcInfo bytes as received
    request = build([happy["ee"]])
    result = protocol.TargetResult(
        fingerprint(happy["ee"]), VerdictStatus.INVALID,
        reason=FailureReason.REVOKED, failing_index=1)
    raw = protocol.sign_dvc(protocol.DvcInfo(7, NOW, request.info, (result,)),
                            server_identity.certificate, server_key)
    index = encode(ContextTagged(1, Integer(1)))
    assert raw.count(index) == 1
    tampered = raw.replace(index, encode(ContextTagged(1, Integer(2))))
    parsed = protocol.parse_response(tampered)
    assert parsed.info.results[0].failing_index == 2
    assert parsed.signed_der in tampered and parsed.signed_der not in raw
    with pytest.raises(protocol.BadServerSignature):
        protocol.verify_response(parsed, request.info,
                                 protocol.ResponseTrust())


_REASON = ContextTagged(0, Integer(int(FailureReason.REVOKED)))
_INDEX = ContextTagged(1, Integer(1))
_AT = ContextTagged(3, GeneralizedTime(NOW))


@pytest.mark.parametrize("fields, complaint", [
    ([_REASON, ContextTagged(0, Integer(int(FailureReason.EXPIRED)))],
     "bad target result field"),
    ([_INDEX, _REASON], "bad target result field"),
    ([ContextTagged(3, Sequence([_AT, _AT]))], "bad evidence entry"),
], ids=["two-reasons", "index-before-reason", "two-validation-times"])
def test_result_fields_in_tag_order_once_each(happy, server_identity,
                                              server_key, fields, complaint):
    # a DVC the server signed with repeated or reordered optional fields is
    # rejected, so no copy of a field can silently win
    raw = _dvc_with_result_fields(happy, server_identity, server_key, fields)
    with pytest.raises(protocol.ProtocolError, match=complaint):
        protocol.parse_response(raw)


def test_unknown_failure_reason_is_malformed(happy, server_identity,
                                             server_key, tmp_path, capsys):
    raw = _dvc_with_result_fields(happy, server_identity, server_key,
                                  [ContextTagged(0, Integer(99))])
    with pytest.raises(protocol.ProtocolError, match="unknown failure reason"):
        protocol.parse_response(raw)
    path = tmp_path / "dvc.der"
    path.write_bytes(raw)
    assert client.main(["inspect", str(path)]) == 1
    assert "error: not a recognized" in capsys.readouterr().out


def _dvc_with_result_fields(happy, server_identity, server_key, fields):
    """A signed DVC whose one result ends with ``fields``."""
    request = build([happy["ee"]])
    result = protocol.TargetResult(fingerprint(happy["ee"]),
                                   VerdictStatus.INVALID)
    value = protocol.dvc_info_value(
        protocol.DvcInfo(7, NOW, request.info, (result,)))
    result_value = value.elements[4].elements[0]
    value = Sequence([*value.elements[:4], Sequence(
        [Sequence([*result_value.elements, *fields])])])
    return protocol._signed_envelope(protocol._KIND_DVC, value,
                                     server_identity.certificate, server_key)


def test_junk_reply_entry_is_malformed(happy, server_identity, server_key):
    request = build([happy["ee"]])
    result = protocol.TargetResult(
        fingerprint(happy["ee"]), VerdictStatus.VALID,
        evidence=protocol.EvidenceOut(replies=(b"reply",)))
    raw = protocol.sign_dvc(protocol.DvcInfo(7, NOW, request.info, (result,)),
                            server_identity.certificate, server_key)
    tampered = encode(junk_in_replies(decode_exact(raw)))
    assert len(tampered) == len(raw) + 3
    with pytest.raises(protocol.ProtocolError, match="bad evidence entry"):
        protocol.parse_response(tampered)


def test_unsigned_response_policy(happy, server_identity, server_key):
    request, info = _dvc(happy, server_identity, server_key)
    raw = unsigned_dvc(info)
    parsed = protocol.parse_response(raw)
    with pytest.raises(protocol.UnsignedRejected):
        protocol.verify_response(parsed, request.info,
                                 protocol.ResponseTrust(trust_unsigned=False))
    protocol.verify_response(parsed, request.info,
                             protocol.ResponseTrust(trust_unsigned=True))


def test_error_notice_roundtrip(happy, server_identity, server_key):
    request, _ = _dvc(happy, server_identity, server_key)
    notice = protocol.ErrorNotice(protocol.ErrorCode.WRONG_SERVER,
                                  "request addressed elsewhere", request.info)
    raw = protocol.sign_error_notice(notice, server_identity.certificate,
                                     server_key)
    parsed = protocol.parse_response(raw)
    assert isinstance(parsed, protocol.ErrorNotice)
    assert parsed.code is protocol.ErrorCode.WRONG_SERVER
    assert parsed.echo == request.info
    protocol.verify_response(parsed, request.info, protocol.ResponseTrust())


def test_render_request_lists_targets_in_order(happy):
    request = build([happy["ee"], happy["sub"]])
    text = protocol.render(request)
    first = text.index(fingerprint(happy["ee"]).hex())
    second = text.index(fingerprint(happy["sub"]).hex())
    assert first < second
    assert "(blank: any policy)" in text


def test_render_revoked_includes_crl_entry(happy, scenarios, server_identity,
                                           server_key):
    from savacert.certs import parse_crl
    layout = scenarios.layout("revoked-ee")
    crl = parse_crl(layout.crls["sub"].read_bytes())
    ee = scenarios.cert("revoked-ee", "ee", "sub")
    result = protocol.TargetResult(
        fingerprint(ee), VerdictStatus.INVALID,
        reason=FailureReason.REVOKED, failing_index=1,
        evidence=protocol.EvidenceOut(crls=(crl,), validation_time=NOW))
    request = build([ee])
    raw = protocol.sign_dvc(
        protocol.DvcInfo(3, NOW, request.info, (result,)),
        server_identity.certificate, server_key)
    text = protocol.render(protocol.parse_response(raw))
    assert "REVOKED" in text.upper()
    assert "20250102000000Z" in text  # revocation date from the CRL entry
    assert "KEY_COMPROMISE" in text


def test_render_sanitizes_control_characters(happy, server_identity,
                                             server_key):
    notice = protocol.ErrorNotice(protocol.ErrorCode.INTERNAL_ERROR,
                                  "bad\x07bell\x1b[31m")
    raw = protocol.sign_error_notice(notice, server_identity.certificate,
                                     server_key)
    text = protocol.render(protocol.parse_response(raw))
    assert "\x07" not in text and "\x1b" not in text
    assert "\\x07" in text
