import datetime
import random

import pytest
from hypothesis import given, settings, strategies as st

from savacert import der, forge
from savacert.der import (
    BitString,
    Boolean,
    ContextTagged,
    DecodeError,
    GeneralizedTime,
    IndefiniteLength,
    Integer,
    InvalidValue,
    NonMinimalInteger,
    NonMinimalLength,
    Oid,
    Sequence,
    Set,
    TrailingGarbage,
    Truncated,
    UnknownTag,
    decode,
    decode_exact,
    encode,
)

from helpers import random_der_value

UTC = datetime.timezone.utc


def test_integer_zero_smallest_encoding():
    assert encode(Integer(0)) == bytes.fromhex("020100")


def test_boolean_true_canonical():
    assert encode(Boolean(True)) == bytes.fromhex("0101FF")
    assert encode(Boolean(False)) == bytes.fromhex("010100")


def test_oid_arc_packing():
    # hand-applied base-128 packing: 2.5.29.32 -> 55 1D 20
    assert encode(Oid("2.5.29.32")) == bytes.fromhex("0603551D20")
    # multi-byte arc: 1.3.6.1.4.1.57264 ends 83 BF 30
    assert encode(Oid("1.3.6.1.4.1.57264")).hex() == "06082b0601040183bf30"


def test_decode_sequence_of_integer():
    value, used = decode(bytes.fromhex("3003020105"))
    assert value == Sequence([Integer(5)])
    assert used == 5


def test_nonminimal_integer_rejected():
    with pytest.raises(NonMinimalInteger):
        decode(bytes.fromhex("02020005"))
    with pytest.raises(NonMinimalInteger):
        decode(bytes.fromhex("0202FF85"))
    # minimal encodings survive
    assert decode(bytes.fromhex("020200FF"))[0] == Integer(255)


def test_truncated_input():
    with pytest.raises(Truncated):
        decode(bytes.fromhex("300202"))
    with pytest.raises(Truncated):
        decode(bytes.fromhex("30"))
    with pytest.raises(Truncated):
        decode(b"")


def test_indefinite_length_rejected():
    with pytest.raises(IndefiniteLength):
        decode(bytes.fromhex("3080020105 0000".replace(" ", "")))


def test_nonminimal_length_rejected():
    # long form for a short length
    with pytest.raises(NonMinimalLength):
        decode(bytes.fromhex("048105AABBCCDDEE"))
    # leading zero in long form
    with pytest.raises(NonMinimalLength):
        decode(bytes.fromhex("04820005AABBCCDDEE"))


def test_trailing_garbage_on_exact_decode():
    data = encode(Integer(5)) + b"\x00"
    with pytest.raises(TrailingGarbage):
        decode_exact(data)
    value, used = decode(data)  # plain decode reports consumption instead
    assert value == Integer(5) and used == len(data) - 1


def test_unknown_tags_rejected():
    with pytest.raises(UnknownTag):
        decode(bytes.fromhex("070100"))  # unsupported universal
    with pytest.raises(UnknownTag):
        decode(bytes.fromhex("410100"))  # application class
    with pytest.raises(UnknownTag):
        decode(bytes.fromhex("2403040100"))  # constructed OCTET STRING
    with pytest.raises(UnknownTag):
        decode(bytes.fromhex("1F8401022A"))  # long-form tag number
    with pytest.raises(UnknownTag):
        decode(bytes.fromhex("100100"))  # primitive SEQUENCE tag


def test_boolean_noncanonical_rejected():
    with pytest.raises(DecodeError):
        decode(bytes.fromhex("010101"))


def test_generalized_time_zulu_only():
    t = datetime.datetime(2025, 1, 31, 12, 30, 15, tzinfo=UTC)
    data = encode(GeneralizedTime(t))
    assert data == b"\x18\x0f" + b"20250131123015Z"
    assert decode_exact(data) == GeneralizedTime(t)
    for bad in (b"20250131123015+0100", b"20250131123015.5Z",
                b"202501311230Z", b"20251331123015Z"):
        with pytest.raises(DecodeError):
            decode_exact(b"\x18" + bytes([len(bad)]) + bad)
    with pytest.raises(InvalidValue):
        encode(GeneralizedTime(t.replace(tzinfo=None)))
    with pytest.raises(InvalidValue):
        encode(GeneralizedTime(t.replace(microsecond=1)))


def test_bitstring_padding_rules():
    assert encode(BitString(b"\x06", 1)) == bytes.fromhex("03020106")
    with pytest.raises(InvalidValue):
        encode(BitString(b"\x07", 1))  # nonzero padding bit
    with pytest.raises(InvalidValue):
        encode(BitString(b"", 3))
    with pytest.raises(InvalidValue):
        encode(BitString(b"\x00", 9))
    with pytest.raises(DecodeError):
        decode(bytes.fromhex("03020107"))
    with pytest.raises(DecodeError):
        decode(bytes.fromhex("030108"))


def test_oid_invariants_enforced():
    with pytest.raises(InvalidValue):
        encode(Oid((1,)))
    with pytest.raises(InvalidValue):
        encode(Oid((3, 1)))
    with pytest.raises(InvalidValue):
        encode(Oid((1, 40)))
    encode(Oid((2, 999, 1)))  # second arc >= 40 is fine under arc 2
    with pytest.raises(DecodeError):
        decode(bytes.fromhex("06028001"))  # non-minimal arc encoding


def test_set_elements_sorted_by_encoding():
    a, b = Integer(500), Boolean(True)
    data = encode(Set([a, b]))
    # boolean tag 0x01 sorts before integer tag 0x02
    assert data.index(b"\x01\x01\xff") < data.index(b"\x02\x02\x01\xf4")
    unsorted = b"\x31\x07" + encode(a) + encode(b)
    with pytest.raises(DecodeError):
        decode(unsorted)


def test_explicit_tag_wraps_exactly_one_value():
    data = encode(ContextTagged(3, Integer(7)))
    assert decode_exact(data) == ContextTagged(3, Integer(7))
    doubled = b"\xa3\x06" + encode(Integer(7)) + encode(Integer(8))
    with pytest.raises(DecodeError):
        decode(doubled)


def test_sequence_of_matches_exact_shape():
    value = Sequence([Integer(1), Boolean(True)])
    assert der.sequence_of(value, Integer, Boolean) == value.elements
    assert der.sequence_of(value, Integer) is None  # too few kinds
    assert der.sequence_of(value, Integer, Boolean, Integer) is None
    assert der.sequence_of(value, Boolean, Integer) is None  # order
    assert der.sequence_of(Set([Integer(1)]), Integer) is None


def test_tagged_fields_ascending_once_each():
    a, b = ContextTagged(0, Integer(1)), ContextTagged(2, Integer(2))
    assert der.tagged_fields([], (0, 2)) == {}
    assert der.tagged_fields([a, b], (0, 2)) == {0: Integer(1), 2: Integer(2)}
    assert der.tagged_fields([b, a], (0, 2)) is None  # out of order
    assert der.tagged_fields([a, a], (0, 2)) is None  # repeated
    assert der.tagged_fields([a, b], (0, 1)) is None  # number not allowed
    assert der.tagged_fields([Integer(1)], (0,)) is None  # untagged


def test_implicit_tag_is_rejected():
    # the profile has explicit context tags only
    with pytest.raises(UnknownTag):
        decode_exact(bytes.fromhex("85020102"))


def test_nesting_depth_capped():
    data = encode(Integer(1))
    for _ in range(40):
        data = b"\x30" + der._encode_length(len(data)) + data
    with pytest.raises(DecodeError, match="depth"):
        decode(data)


def test_element_size_capped():
    huge = b"\x04\x83\x10\x00\x01" + bytes((1 << 20) + 1)
    with pytest.raises(DecodeError, match="length"):
        decode(huge)


def test_decoder_never_reads_past_declared_length():
    # inner length claims more than the outer sequence provides
    data = bytes.fromhex("30040203AABB")
    with pytest.raises(Truncated):
        decode(data)


def test_null_and_printable_string_are_rejected():
    # no message uses them, so the profile leaves them out
    for data in (b"\x05\x00", b"\x13\x02ab"):
        with pytest.raises(UnknownTag):
            decode_exact(data)


@given(st.integers(min_value=-(1 << 200), max_value=1 << 200))
def test_integer_roundtrip_property(value):
    assert decode_exact(encode(Integer(value))) == Integer(value)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_value_roundtrip_property(rnd):
    value = random_der_value(rnd)
    data = encode(value)
    decoded, used = decode(data)
    assert used == len(data)
    assert decoded == value
    assert encode(decoded) == data


def test_seeded_roundtrip_many():
    rng = random.Random(20250131)
    for _ in range(2000):
        value = random_der_value(rng)
        data = encode(value)
        assert decode(data) == (value, len(data))


def test_decoded_sequence_keeps_its_bytes():
    data = bytes.fromhex("3008300302010502010a")
    value = decode_exact(data)
    assert value.der == data
    assert value.elements[0].der == bytes.fromhex("3003020105")
    # a value built in code has no bytes, and encode never reads them
    assert Sequence([Integer(5)]).der is None
    assert encode(Sequence([Integer(5)], der=b"junk")) == bytes.fromhex(
        "3003020105")


def _content_span(data: bytes, pos: int) -> tuple[int, int]:
    """Content start and end of the TLV at ``pos``, from its length octets."""
    first = data[pos + 1]
    if first < 0x80:
        return pos + 2, pos + 2 + first
    start = pos + 2 + (first & 0x7F)
    return start, start + int.from_bytes(data[pos + 2:start], "big")


def _check_sequence_bytes(value, data: bytes, pos: int) -> int:
    """Assert that every SEQUENCE in ``value``, read from ``data`` at
    ``pos``, keeps exactly its slice of ``data``; returns how many."""
    start, end = _content_span(data, pos)
    checked = 0
    children = ()
    if isinstance(value, Sequence):
        assert value.der == data[pos:end]
        checked += 1
    if isinstance(value, (Sequence, Set)):
        children = value.elements
    elif isinstance(value, ContextTagged):
        children = (value.inner,)
    at = start
    for child in children:
        checked += _check_sequence_bytes(child, data, at)
        at = _content_span(data, at)[1]
    assert not children or at == end
    return checked


def test_corpus_sequences_keep_their_input_slices(scenarios):
    files = checked = 0
    for name in forge.SCENARIOS:
        for path in sorted(scenarios.layout(name).out_dir.rglob("*")):
            if path.suffix in (".der", ".crl", ".key"):
                blob = path.read_bytes()
                checked += _check_sequence_bytes(decode_exact(blob), blob, 0)
                files += 1
    assert checked > files > 0


def test_fuzz_decoder_returns_errors_never_crashes():
    rng = random.Random(0xFACE)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(10_000):
        blob = rng.randbytes(rng.randint(0, 40))
        try:
            value, used = decode(blob)
            assert encode(value) == blob[:used]
            outcomes["ok"] += 1
        except der.DerError:
            outcomes["error"] += 1
    assert outcomes["error"] > 0
