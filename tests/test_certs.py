import dataclasses
import datetime
import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from savacert import certs, crypto, oids, protocol
from savacert.certs import (
    BasicConstraints,
    Extension,
    Extensions,
    KeyUsage,
    Name,
    NameConstraints,
    PolicyConstraints,
    PolicyInfo,
    PolicyMapping,
    ReasonCode,
    RevokedEntry,
    StructureMismatch,
    UnsupportedVersion,
    certificate_from_value,
    check_crl_signature,
    check_signature,
    fingerprint,
    make_extensions,
    parse_certificate,
    parse_crl,
    sign_certificate,
    sign_crl,
    tbs_value,
)
from savacert.der import (
    BitString,
    ContextTagged,
    Integer,
    InvalidValue,
    Oid,
    Sequence,
    decode_exact,
    encode,
)
from savacert.validation import VerdictStatus

UTC = datetime.timezone.utc
EPOCH = datetime.datetime(2025, 1, 1, tzinfo=UTC)
LATER = datetime.datetime(2035, 1, 1, tzinfo=UTC)

ROOT_KEY = crypto.generate(seed=b"test-root")
OTHER_KEY = crypto.generate(seed=b"test-other")
ROOT_NAME = Name.from_string("C=IT, O=Test PKI, CN=root")


def make_cert(**overrides):
    fields = dict(
        serial=1, issuer=ROOT_NAME, subject=ROOT_NAME,
        not_before=EPOCH, not_after=LATER,
        public_key_alg=oids.ALG_ED25519, public_key=ROOT_KEY.public_key,
        extensions=make_extensions(
            basic_constraints=BasicConstraints(True, 1),
            key_usage=frozenset({KeyUsage.KEY_CERT_SIGN, KeyUsage.CRL_SIGN}),
            certificate_policies=(PolicyInfo(Oid("1.3.6.1.4.1.57264.8.1")),),
            policy_mappings=(PolicyMapping(Oid("1.3.6.1.4.1.57264.8.1"),
                                           Oid("1.3.6.1.4.1.57264.8.2")),),
            policy_constraints=PolicyConstraints(0, None),
            name_constraints=NameConstraints(permitted=(ROOT_NAME,)),
            crl_distribution_point="crls/root.crl"),
        issuer_key=ROOT_KEY)
    fields.update(overrides)
    return sign_certificate(**fields)


def test_certificate_roundtrip_byte_identical():
    cert = make_cert()
    raw = cert.der
    assert raw == encode(Sequence([tbs_value(cert),
                                   BitString(cert.signature, 0)]))
    assert cert.tbs_der == encode(tbs_value(cert))
    parsed = parse_certificate(raw)
    assert parsed == cert
    assert certificate_from_value(decode_exact(raw)) == cert


def test_noncanonical_certificate_rejected():
    # a keyUsage BIT STRING with a redundant trailing octet is valid DER,
    # but the parsed model re-encodes it minimally
    padded = Extension(oids.EXT_KEY_USAGE, True,
                       encode(BitString(b"\x04\x00", 0)))
    cert = make_cert(extensions=Extensions((padded,)))
    with pytest.raises(StructureMismatch, match="canonical"):
        parse_certificate(cert.der)
    with pytest.raises(StructureMismatch, match="canonical"):
        certificate_from_value(decode_exact(cert.der))


@pytest.mark.parametrize("oid, inner, what", [
    (oids.EXT_POLICY_CONSTRAINTS, Integer(0), "policyConstraints"),
    (oids.EXT_NAME_CONSTRAINTS, Sequence([certs.name_value(ROOT_NAME)]),
     "nameConstraints"),
])
def test_constraint_fields_out_of_order_rejected(oid, inner, what):
    # [1] before [0] fails the field reader, before any re-encode comparison
    body = encode(Sequence([ContextTagged(1, inner), ContextTagged(0, inner)]))
    cert = make_cert(extensions=Extensions((Extension(oid, True, body),)))
    with pytest.raises(StructureMismatch, match=f"bad {what}"):
        parse_certificate(cert.der)


def test_parsed_objects_never_encode_to_hash_or_verify(monkeypatch):
    cert = parse_certificate(make_cert().der)
    crl = parse_crl(sign_crl(issuer=ROOT_NAME, this_update=EPOCH,
                             next_update=LATER, revoked=(),
                             issuer_key=ROOT_KEY).der)

    def no_encode(value):
        raise AssertionError("certs re-encoded a parsed object")

    monkeypatch.setattr(certs, "encode", no_encode)
    assert fingerprint(cert) == hashlib.sha256(cert.der).digest()
    assert check_signature(cert, ROOT_KEY.public_key)
    assert not check_signature(cert, OTHER_KEY.public_key)
    assert check_crl_signature(crl, ROOT_KEY.public_key)
    assert not check_crl_signature(crl, OTHER_KEY.public_key)
    # DVC evidence embeds the parsed chain certificate and CRL as they are
    result = protocol.TargetResult(
        fingerprint(cert), VerdictStatus.VALID,
        evidence=protocol.EvidenceOut(chain=(cert,), crls=(crl,)))
    info = protocol.DvcInfo(
        serial_number=1, produced_at=EPOCH,
        echo=protocol.RequestInformation(nonce=1, request_time=EPOCH),
        results=(result,))
    signed = protocol.sign_dvc(info, cert, ROOT_KEY)
    assert cert.der in signed and crl.der in signed


def test_fingerprint_stable_and_sensitive():
    cert = make_cert()
    raw = cert.der
    assert fingerprint(cert) == fingerprint(parse_certificate(raw))
    assert fingerprint(cert) == hashlib.sha256(raw).digest()
    other = make_cert(serial=2)
    assert fingerprint(other) != fingerprint(cert)


def test_signature_check_and_tamper():
    cert = make_cert()
    assert check_signature(cert, ROOT_KEY.public_key)
    assert not check_signature(cert, OTHER_KEY.public_key)
    # flip one byte of the to-be-signed portion via a field change
    altered = dataclasses.replace(cert, serial=cert.serial + 1)
    assert not check_signature(altered, ROOT_KEY.public_key)
    assert altered.tbs_der != cert.tbs_der


def test_unsupported_version():
    cert = make_cert()
    raw = bytearray(cert.der)
    # version INTEGER 3 is the first primitive in the TBS; patch it to 2
    index = raw.index(b"\x02\x01\x03")
    raw[index + 2] = 2
    with pytest.raises(UnsupportedVersion):
        parse_certificate(bytes(raw))


def test_unknown_critical_extension_flag():
    extra = Extension(Oid("1.2.3.4.5"), True, b"\x05\x00")
    cert = make_cert(extensions=Extensions(
        make_extensions(basic_constraints=BasicConstraints(True)).entries
        + (extra,)))
    parsed = parse_certificate(cert.der)
    assert parsed.has_unknown_critical
    noncritical = Extension(Oid("1.2.3.4.5"), False, b"\x05\x00")
    cert2 = make_cert(extensions=Extensions(
        make_extensions(basic_constraints=BasicConstraints(True)).entries
        + (noncritical,)))
    parsed2 = parse_certificate(cert2.der)
    assert not parsed2.has_unknown_critical
    assert parsed2.extensions.entries[-1].value == b"\x05\x00"


def test_any_policy_banned_in_mappings():
    with pytest.raises(InvalidValue):
        make_cert(extensions=make_extensions(
            policy_mappings=(PolicyMapping(oids.ANY_POLICY,
                                           Oid("1.2.3")),)))


def test_duplicate_extension_rejected():
    entries = make_extensions(basic_constraints=BasicConstraints(True)).entries
    with pytest.raises(InvalidValue):
        make_cert(extensions=Extensions(entries + entries))


def test_crl_roundtrip_and_order():
    empty = sign_crl(issuer=ROOT_NAME, this_update=EPOCH, next_update=LATER,
                     revoked=(), issuer_key=ROOT_KEY)
    assert parse_crl(empty.der) == empty

    entries = (
        RevokedEntry(2, EPOCH, ReasonCode.KEY_COMPROMISE),
        RevokedEntry(5, EPOCH, ReasonCode.CA_COMPROMISE),
        RevokedEntry(9, EPOCH, ReasonCode.SUPERSEDED),
    )
    crl = sign_crl(issuer=ROOT_NAME, this_update=EPOCH, next_update=LATER,
                   revoked=entries, issuer_key=ROOT_KEY)
    parsed = parse_crl(crl.der)
    assert parsed.revoked == entries
    assert check_crl_signature(parsed, ROOT_KEY.public_key)
    assert not check_crl_signature(parsed, OTHER_KEY.public_key)

    with pytest.raises(InvalidValue):
        sign_crl(issuer=ROOT_NAME, this_update=EPOCH, next_update=LATER,
                 revoked=(entries[1], entries[0], entries[2]),
                 issuer_key=ROOT_KEY)


def test_crl_window_invariant():
    with pytest.raises(InvalidValue):
        sign_crl(issuer=ROOT_NAME, this_update=LATER, next_update=EPOCH,
                 revoked=(), issuer_key=ROOT_KEY)


def test_validity_invariant():
    with pytest.raises(InvalidValue):
        make_cert(not_before=LATER, not_after=EPOCH)


_name_values = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" -"),
    min_size=1, max_size=12)


_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ",
                             "abcdefghijklmnopqrstuvwxyz")


@given(st.lists(_name_values, min_size=1, max_size=4), st.randoms())
def test_name_equality_matches_folded_comparison(values, rnd):
    attrs = tuple((oids.AT_COMMON_NAME, v) for v in values)
    name = Name(attrs)
    mangled = Name(tuple(
        (oid, _randomize_case(rnd, f"  {v} ")) for oid, v in attrs))
    # comparison folds ASCII case only and trims surrounding whitespace
    folded_equal = \
        tuple(v.strip().translate(_ASCII_LOWER) for _, v in name.attributes) \
        == tuple(v.strip().translate(_ASCII_LOWER)
                 for _, v in mangled.attributes)
    assert (name == mangled) == folded_equal
    if name == mangled:
        assert hash(name) == hash(mangled)
    assert name == name
    # round-trips preserve the original spelling
    from savacert.certs import name_value, parse_name_value
    assert parse_name_value(name_value(mangled)).attributes == \
        mangled.attributes


def _randomize_case(rnd, text):
    return "".join(c.upper() if rnd.random() < 0.5 else c.lower()
                   for c in text)


def test_name_prefix_matching():
    full = Name.from_string("C=IT, O=Trusted Org, CN=alice")
    assert full.has_prefix(Name.from_string("C=IT"))
    assert full.has_prefix(Name.from_string("C=it, O=TRUSTED ORG"))
    assert not full.has_prefix(Name.from_string("C=IT, O=Other"))
    assert not full.has_prefix(Name.from_string("O=Trusted Org"))
    assert full.has_prefix(full)
    assert not Name.from_string("C=IT").has_prefix(full)


def test_name_from_string_errors():
    with pytest.raises(ValueError):
        Name.from_string("")
    with pytest.raises(ValueError):
        Name.from_string("X=unknown attribute")
    with pytest.raises(ValueError):
        Name.from_string("novalue")


def test_unknown_signature_algorithm_never_crashes():
    # a certificate asserting an unknown algorithm parses fine and simply
    # fails verification
    cert = make_cert()
    odd = dataclasses.replace(cert, signature_alg=Oid("1.2.3.4.5.6"))
    parsed = parse_certificate(odd.der)
    assert parsed.signature_alg == Oid("1.2.3.4.5.6")
    assert not check_signature(parsed, ROOT_KEY.public_key)


def test_structure_mismatch_on_wrong_shape():
    with pytest.raises(StructureMismatch):
        parse_certificate(encode(Sequence([Integer(1)])))
    raw = encode(Sequence([Integer(1), Integer(2)]))
    with pytest.raises(StructureMismatch):
        parse_crl(raw)


def test_fabricated_certificates_do_not_depend_on_the_hash_seed():
    code = ("from helpers import fabricate_cert; "
            "print(fabricate_cert('ca-3', 'ca-7', serial=9).der.hex())")
    outputs = {subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONHASHSEED": seed,
                        "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
        for seed in ("1", "2")}
    assert len(outputs) == 1 and outputs != {""}
