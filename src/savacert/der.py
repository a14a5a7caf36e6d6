"""Strict DER encoder/decoder for the closed tag set used by this package.

Values are plain frozen dataclasses; ``encode`` produces the unique DER
encoding and ``decode`` accepts only that encoding (re-encoding a decoded
value is byte-identical).  Anything outside the supported tag set, any
non-minimal length or integer, and any indefinite length is rejected; a
context tag is always EXPLICIT.  A decoded SEQUENCE keeps the bytes it was
read from in ``der``.  ``sequence_of`` and ``tagged_fields`` are the shape
checks that every parser of a decoded value uses.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Union

MAX_DEPTH = 32          # decoder recursion bound
MAX_ELEMENT = 1 << 20   # decoder per-element content bound (1 MiB)


class DerError(Exception):
    pass


class InvalidValue(DerError):
    """Value violates a DerValue invariant and cannot be encoded."""


class DecodeError(DerError):
    pass


class Truncated(DecodeError):
    pass


class NonMinimalLength(DecodeError):
    pass


class NonMinimalInteger(DecodeError):
    pass


class IndefiniteLength(DecodeError):
    pass


class TrailingGarbage(DecodeError):
    pass


class UnknownTag(DecodeError):
    pass


@dataclass(frozen=True)
class Boolean:
    value: bool


@dataclass(frozen=True)
class Integer:
    value: int


@dataclass(frozen=True)
class OctetString:
    value: bytes


@dataclass(frozen=True)
class BitString:
    value: bytes
    unused_bits: int = 0


@dataclass(frozen=True)
class Oid:
    arcs: tuple[int, ...]

    def __init__(self, arcs: "tuple[int, ...] | list[int] | str"):
        if isinstance(arcs, str):
            arcs = tuple(int(a) for a in arcs.split("."))
        object.__setattr__(self, "arcs", tuple(arcs))

    def dotted(self) -> str:
        return ".".join(str(a) for a in self.arcs)

    def __str__(self) -> str:
        return self.dotted()


@dataclass(frozen=True)
class Utf8String:
    value: str


@dataclass(frozen=True)
class GeneralizedTime:
    """UTC instant with seconds precision; renders as YYYYMMDDHHMMSSZ."""

    value: datetime.datetime

    def __str__(self) -> str:
        return format_time(self.value)


@dataclass(frozen=True)
class Sequence:
    elements: tuple["DerValue", ...]
    # the TLV it was decoded from (None if built in code); encode ignores it
    der: bytes | None = field(default=None, compare=False, repr=False)

    def __init__(self, elements, der: bytes | None = None):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "der", der)


@dataclass(frozen=True)
class Set:
    elements: tuple["DerValue", ...]

    def __init__(self, elements):
        object.__setattr__(self, "elements", tuple(elements))


@dataclass(frozen=True)
class ContextTagged:
    """[number] EXPLICIT: a context-class tag wrapping one full inner TLV."""

    number: int
    inner: "DerValue"


@dataclass(frozen=True)
class Raw:
    """An already-encoded value, emitted by ``encode`` as it is.  It lets a
    value tree embed signed bytes without re-encoding them; the bytes must
    already be DER (they are not checked), and the decoder never produces
    one."""

    der: bytes


DerValue = Union[Boolean, Integer, OctetString, BitString, Oid, Utf8String,
                 GeneralizedTime, Sequence, Set, ContextTagged, Raw]

_TAG_BOOLEAN = 0x01
_TAG_INTEGER = 0x02
_TAG_BITSTRING = 0x03
_TAG_OCTETSTRING = 0x04
_TAG_OID = 0x06
_TAG_UTF8 = 0x0C
_TAG_GENTIME = 0x18
_TAG_SEQUENCE = 0x30
_TAG_SET = 0x31


def format_time(t: datetime.datetime) -> str:
    if t.tzinfo is None or t.utcoffset() != datetime.timedelta(0):
        raise InvalidValue("GeneralizedTime must be a UTC instant")
    if t.microsecond != 0:
        raise InvalidValue("GeneralizedTime has seconds precision only")
    return (f"{t.year:04d}{t.month:02d}{t.day:02d}"
            f"{t.hour:02d}{t.minute:02d}{t.second:02d}Z")


def parse_time(text: str) -> datetime.datetime:
    """Parse strict Zulu GeneralizedTime text (``YYYYMMDDHHMMSSZ``)."""
    if len(text) != 15 or text[-1] != "Z" or not text[:14].isdigit():
        raise DecodeError(f"malformed GeneralizedTime {text!r}")
    try:
        t = datetime.datetime.strptime(text[:14], "%Y%m%d%H%M%S")
    except ValueError as exc:
        raise DecodeError(f"impossible GeneralizedTime {text!r}") from exc
    return t.replace(tzinfo=datetime.timezone.utc)


def _encode_length(n: int) -> bytes:
    if n < 0x80:
        return bytes([n])
    out = []
    while n:
        out.insert(0, n & 0xFF)
        n >>= 8
    return bytes([0x80 | len(out)]) + bytes(out)


def _encode_integer_content(v: int) -> bytes:
    bits = v.bit_length() if v >= 0 else (-1 - v).bit_length()
    return v.to_bytes(bits // 8 + 1, "big", signed=True)


def _encode_oid_content(oid: Oid) -> bytes:
    arcs = oid.arcs
    if len(arcs) < 2:
        raise InvalidValue("OID needs at least two arcs")
    if arcs[0] not in (0, 1, 2):
        raise InvalidValue(f"OID first arc {arcs[0]} out of range")
    if arcs[0] < 2 and arcs[1] >= 40:
        raise InvalidValue("OID second arc must be < 40 under arcs 0 and 1")
    if any(a < 0 for a in arcs):
        raise InvalidValue("OID arcs must be non-negative")
    subids = [arcs[0] * 40 + arcs[1], *arcs[2:]]
    out = bytearray()
    for sub in subids:
        chunk = [sub & 0x7F]
        sub >>= 7
        while sub:
            chunk.insert(0, (sub & 0x7F) | 0x80)
            sub >>= 7
        out.extend(chunk)
    return bytes(out)


def _tlv(tag: int, content: bytes) -> bytes:
    return bytes([tag]) + _encode_length(len(content)) + content


def encode(value: DerValue) -> bytes:
    """Encode to the unique DER byte string, or raise InvalidValue."""
    if isinstance(value, Boolean):
        return _tlv(_TAG_BOOLEAN, b"\xff" if value.value else b"\x00")
    if isinstance(value, Integer):
        return _tlv(_TAG_INTEGER, _encode_integer_content(value.value))
    if isinstance(value, BitString):
        if not 0 <= value.unused_bits <= 7:
            raise InvalidValue(f"bit string unused bits {value.unused_bits}")
        if not value.value and value.unused_bits:
            raise InvalidValue("empty bit string cannot have unused bits")
        if value.value and value.unused_bits and \
                value.value[-1] & ((1 << value.unused_bits) - 1):
            raise InvalidValue("bit string padding bits must be zero")
        return _tlv(_TAG_BITSTRING, bytes([value.unused_bits]) + value.value)
    if isinstance(value, OctetString):
        return _tlv(_TAG_OCTETSTRING, value.value)
    if isinstance(value, Oid):
        return _tlv(_TAG_OID, _encode_oid_content(value))
    if isinstance(value, Utf8String):
        return _tlv(_TAG_UTF8, value.value.encode("utf-8"))
    if isinstance(value, GeneralizedTime):
        return _tlv(_TAG_GENTIME, format_time(value.value).encode("ascii"))
    if isinstance(value, Sequence):
        return _tlv(_TAG_SEQUENCE, b"".join(encode(e) for e in value.elements))
    if isinstance(value, Set):
        return _tlv(_TAG_SET, b"".join(sorted(encode(e) for e in value.elements)))
    if isinstance(value, Raw):
        return value.der
    if isinstance(value, ContextTagged):
        if not 0 <= value.number <= 30:
            raise InvalidValue(f"context tag number {value.number} out of range")
        return _tlv(0xA0 | value.number, encode(value.inner))
    raise InvalidValue(f"not a DerValue: {type(value).__name__}")


def _read_length(data: bytes, pos: int, end: int) -> tuple[int, int]:
    if pos >= end:
        raise Truncated("missing length octet")
    first = data[pos]
    pos += 1
    if first < 0x80:
        return first, pos
    if first == 0x80:
        raise IndefiniteLength("indefinite length is not DER")
    count = first & 0x7F
    if count == 0x7F:
        raise DecodeError("reserved length form")
    if pos + count > end:
        raise Truncated("length octets run past input")
    if data[pos] == 0:
        raise NonMinimalLength("leading zero in long-form length")
    n = int.from_bytes(data[pos:pos + count], "big")
    if n < 0x80:
        raise NonMinimalLength("long form used for short length")
    return n, pos + count


def _decode_integer_content(content: bytes) -> int:
    if not content:
        raise DecodeError("empty integer content")
    if len(content) >= 2 and (
            (content[0] == 0x00 and content[1] < 0x80)
            or (content[0] == 0xFF and content[1] >= 0x80)):
        raise NonMinimalInteger("redundant leading integer octet")
    return int.from_bytes(content, "big", signed=True)


def _decode_oid_content(content: bytes) -> Oid:
    if not content:
        raise DecodeError("empty OID content")
    subids = []
    val = 0
    started = False
    for i, byte in enumerate(content):
        if not started and byte == 0x80:
            raise DecodeError("non-minimal OID arc encoding")
        started = True
        val = (val << 7) | (byte & 0x7F)
        if byte & 0x80:
            continue
        subids.append(val)
        val = 0
        started = False
    if started:
        raise Truncated("OID arc continuation runs past content")
    first = subids[0]
    if first < 40:
        arcs = (0, first, *subids[1:])
    elif first < 80:
        arcs = (1, first - 40, *subids[1:])
    else:
        arcs = (2, first - 80, *subids[1:])
    return Oid(arcs)


def _decode_at(data: bytes, pos: int, end: int, depth: int) -> tuple[DerValue, int]:
    if depth > MAX_DEPTH:
        raise DecodeError("nesting depth exceeds limit")
    if pos >= end:
        raise Truncated("expected a tag octet")
    start = pos
    tag = data[pos]
    pos += 1
    if tag & 0x1F == 0x1F:
        raise UnknownTag("long-form tag numbers unsupported")
    length, pos = _read_length(data, pos, end)
    if length > MAX_ELEMENT:
        raise DecodeError(f"element length {length} exceeds limit")
    if pos + length > end:
        raise Truncated("content runs past input")
    after = pos + length
    cls = tag & 0xC0
    constructed = bool(tag & 0x20)

    if cls == 0x80:  # context class: explicit tags only
        if not constructed:
            raise UnknownTag(f"implicit context tag 0x{tag:02x} unsupported")
        inner, stop = _decode_at(data, pos, after, depth + 1)
        if stop != after:
            raise DecodeError("explicit tag must wrap exactly one value")
        return ContextTagged(tag & 0x1F, inner), after
    if cls != 0x00:
        raise UnknownTag(f"unsupported tag class 0x{cls:02x}")

    if constructed:
        if tag not in (_TAG_SEQUENCE, _TAG_SET):
            raise UnknownTag(f"unsupported constructed tag 0x{tag:02x}")
        elements = []
        encodings = []  # only the SET order check needs child encodings
        at = pos
        while at < after:
            element, stop = _decode_at(data, at, after, depth + 1)
            elements.append(element)
            if tag == _TAG_SET:
                encodings.append(data[at:stop])
            at = stop
        if tag == _TAG_SEQUENCE:
            return Sequence(elements, data[start:after]), after
        if encodings != sorted(encodings):
            raise DecodeError("SET elements not in DER order")
        return Set(elements), after

    content = data[pos:after]
    if tag == _TAG_BOOLEAN:
        if content == b"\xff":
            return Boolean(True), after
        if content == b"\x00":
            return Boolean(False), after
        raise DecodeError("boolean content must be 00 or FF")
    if tag == _TAG_INTEGER:
        return Integer(_decode_integer_content(content)), after
    if tag == _TAG_BITSTRING:
        if not content:
            raise DecodeError("bit string missing unused-bit octet")
        unused = content[0]
        body = content[1:]
        if unused > 7:
            raise DecodeError(f"bit string unused bits {unused}")
        if not body and unused:
            raise DecodeError("empty bit string cannot have unused bits")
        if body and unused and body[-1] & ((1 << unused) - 1):
            raise DecodeError("bit string padding bits must be zero")
        return BitString(body, unused), after
    if tag == _TAG_OCTETSTRING:
        return OctetString(content), after
    if tag == _TAG_OID:
        return _decode_oid_content(content), after
    if tag == _TAG_UTF8:
        try:
            return Utf8String(content.decode("utf-8")), after
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid UTF-8 in string") from exc
    if tag == _TAG_GENTIME:
        try:
            text = content.decode("ascii")
        except UnicodeDecodeError as exc:
            raise DecodeError("non-ASCII byte in GeneralizedTime") from exc
        return GeneralizedTime(parse_time(text)), after
    raise UnknownTag(f"unsupported universal tag 0x{tag:02x}")


def decode(data: bytes) -> tuple[DerValue, int]:
    """Decode one value from the start of ``data``; returns (value, consumed)."""
    return _decode_at(bytes(data), 0, len(data), 0)


def decode_exact(data: bytes) -> DerValue:
    """Decode one value that must span the whole input."""
    value, used = decode(data)
    if used != len(data):
        raise TrailingGarbage(f"{len(data) - used} byte(s) after value")
    return value


def sequence_of(value: DerValue, *kinds) -> tuple | None:
    """The elements of ``value`` when it is a SEQUENCE holding exactly one
    value of each of ``kinds``, in order; else None."""
    if isinstance(value, Sequence) and len(value.elements) == len(kinds) \
            and all(map(isinstance, value.elements, kinds)):
        return value.elements
    return None


def tagged_fields(elements, numbers) -> dict | None:
    """``{n: inner}`` when every element is [n] EXPLICIT with ``n`` in
    ``numbers``, in ascending order and at most once each; else None."""
    fields = {}
    for item in elements:
        if not (isinstance(item, ContextTagged) and item.number in numbers
                and item.number > max(fields, default=-1)):
            return None
        fields[item.number] = item.inner
    return fields


def named_bits(positions) -> BitString:
    """BIT STRING with the given bit positions set, trailing zeros dropped."""
    bits = {int(p) for p in positions}
    if not bits:
        return BitString(b"", 0)
    top = max(bits)
    buf = bytearray(top // 8 + 1)
    for b in bits:
        buf[b // 8] |= 0x80 >> (b % 8)
    return BitString(bytes(buf), 8 * len(buf) - top - 1)


def bit_positions(value: BitString) -> set[int]:
    """Positions of the set bits of a BIT STRING."""
    total = 8 * len(value.value) - value.unused_bits
    return {i for i in range(total) if value.value[i // 8] & (0x80 >> (i % 8))}
