"""Certificate and CRL model with strict DER (de)serialization.

A certificate or CRL is its DER: it encodes its model once, when built, into
``der`` and ``tbs_der``, which are hashed, signed and verified as they are.
Parsing is canonical: a parsed object's ``der`` must equal the bytes its
value was decoded from.
Unknown extensions are preserved opaquely, and an unknown *critical*
extension marks the certificate so validation can reject it.  Name
comparison folds ASCII case and trims whitespace.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
from dataclasses import dataclass, field

from . import crypto, oids
from .der import (
    BitString,
    Boolean,
    ContextTagged,
    DerValue,
    GeneralizedTime,
    Integer,
    InvalidValue,
    OctetString,
    Oid,
    Raw,
    Sequence,
    Set,
    Utf8String,
    bit_positions,
    decode_exact,
    encode,
    named_bits,
    sequence_of,
    tagged_fields,
)


class StructureMismatch(Exception):
    """Input is well-formed DER but does not have the expected shape."""


class UnsupportedVersion(StructureMismatch):
    pass


def _fold(value: str) -> str:
    out = value.strip()
    return "".join(chr(ord(c) + 32) if "A" <= c <= "Z" else c for c in out)


@dataclass(frozen=True, eq=False)
class Name:
    """Ordered attribute list; equality is case/whitespace-insensitive."""

    attributes: tuple[tuple[Oid, str], ...]
    folded: tuple[tuple[Oid, str], ...] = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        folded = tuple((oid, _fold(v)) for oid, v in self.attributes)
        object.__setattr__(self, "folded", folded)
        object.__setattr__(self, "_hash", hash(folded))

    def __eq__(self, other) -> bool:
        return isinstance(other, Name) and self.folded == other.folded

    def __hash__(self) -> int:
        return self._hash

    def has_prefix(self, prefix: "Name") -> bool:
        mine, theirs = self.folded, prefix.folded
        return len(theirs) <= len(mine) and mine[:len(theirs)] == theirs

    @classmethod
    def from_string(cls, text: str) -> "Name":
        """Parse ``C=IT, O=Some Org, CN=thing`` (values may not contain commas)."""
        attrs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            label, _, value = part.partition("=")
            oid = oids.ATTRIBUTE_BY_LABEL.get(label.strip().upper())
            if oid is None or not _:
                raise ValueError(f"bad name component {part!r}")
            attrs.append((oid, value.strip()))
        if not attrs:
            raise ValueError(f"empty name {text!r}")
        return cls(tuple(attrs))

    def __str__(self) -> str:
        return ", ".join(
            f"{oids.ATTRIBUTE_LABELS.get(oid, oid.dotted())}={v}"
            for oid, v in self.attributes)


class KeyUsage(enum.IntEnum):
    # bit positions in the keyUsage BIT STRING
    DIGITAL_SIGNATURE = 0
    KEY_CERT_SIGN = 5
    CRL_SIGN = 6


class ReasonCode(enum.IntEnum):
    UNSPECIFIED = 0
    KEY_COMPROMISE = 1
    CA_COMPROMISE = 2
    SUPERSEDED = 4


@dataclass(frozen=True)
class BasicConstraints:
    is_ca: bool
    path_len: int | None = None


@dataclass(frozen=True)
class PolicyInfo:
    oid: Oid
    qualifier: bytes | None = None  # opaque, never interpreted


@dataclass(frozen=True)
class PolicyMapping:
    issuer_domain: Oid
    subject_domain: Oid


@dataclass(frozen=True)
class PolicyConstraints:
    require_explicit_policy: int | None = None
    inhibit_policy_mapping: int | None = None


@dataclass(frozen=True)
class NameConstraints:
    permitted: tuple[Name, ...] = ()
    excluded: tuple[Name, ...] = ()


@dataclass(frozen=True)
class Extension:
    oid: Oid
    critical: bool
    value: object  # structured value for known extensions, bytes otherwise


@dataclass(frozen=True)
class Extensions:
    entries: tuple[Extension, ...] = ()

    def _get(self, oid: Oid):
        for entry in self.entries:
            if entry.oid == oid:
                return entry.value
        return None

    @property
    def basic_constraints(self) -> BasicConstraints | None:
        return self._get(oids.EXT_BASIC_CONSTRAINTS)

    @property
    def key_usage(self) -> frozenset | None:
        return self._get(oids.EXT_KEY_USAGE)

    @property
    def certificate_policies(self) -> tuple[PolicyInfo, ...] | None:
        return self._get(oids.EXT_CERTIFICATE_POLICIES)

    @property
    def policy_mappings(self) -> tuple[PolicyMapping, ...] | None:
        return self._get(oids.EXT_POLICY_MAPPINGS)

    @property
    def policy_constraints(self) -> PolicyConstraints | None:
        return self._get(oids.EXT_POLICY_CONSTRAINTS)

    @property
    def name_constraints(self) -> NameConstraints | None:
        return self._get(oids.EXT_NAME_CONSTRAINTS)

    @property
    def crl_distribution_point(self) -> str | None:
        return self._get(oids.EXT_CRL_DISTRIBUTION_POINT)

    @property
    def has_unknown_critical(self) -> bool:
        return any(e.critical and isinstance(e.value, bytes)
                   for e in self.entries)


_KNOWN_EXTENSIONS = (
    oids.EXT_BASIC_CONSTRAINTS,
    oids.EXT_KEY_USAGE,
    oids.EXT_CERTIFICATE_POLICIES,
    oids.EXT_POLICY_MAPPINGS,
    oids.EXT_POLICY_CONSTRAINTS,
    oids.EXT_NAME_CONSTRAINTS,
    oids.EXT_CRL_DISTRIBUTION_POINT,
)

# standard criticality used when building certificates
_DEFAULT_CRITICAL = {
    oids.EXT_BASIC_CONSTRAINTS: True,
    oids.EXT_KEY_USAGE: True,
    oids.EXT_CERTIFICATE_POLICIES: False,
    oids.EXT_POLICY_MAPPINGS: False,
    oids.EXT_POLICY_CONSTRAINTS: True,
    oids.EXT_NAME_CONSTRAINTS: True,
    oids.EXT_CRL_DISTRIBUTION_POINT: False,
}


def make_extensions(basic_constraints: BasicConstraints | None = None,
                    key_usage: frozenset | None = None,
                    certificate_policies: tuple[PolicyInfo, ...] | None = None,
                    policy_mappings: tuple[PolicyMapping, ...] | None = None,
                    policy_constraints: PolicyConstraints | None = None,
                    name_constraints: NameConstraints | None = None,
                    crl_distribution_point: str | None = None,
                    extra: tuple[Extension, ...] = ()) -> Extensions:
    """Assemble extensions in canonical order with standard criticality."""
    values = (
        (oids.EXT_BASIC_CONSTRAINTS, basic_constraints),
        (oids.EXT_KEY_USAGE, key_usage),
        (oids.EXT_CERTIFICATE_POLICIES, certificate_policies),
        (oids.EXT_POLICY_MAPPINGS, policy_mappings),
        (oids.EXT_POLICY_CONSTRAINTS, policy_constraints),
        (oids.EXT_NAME_CONSTRAINTS, name_constraints),
        (oids.EXT_CRL_DISTRIBUTION_POINT, crl_distribution_point),
    )
    entries = [Extension(oid, _DEFAULT_CRITICAL[oid], v)
               for oid, v in values if v is not None]
    return Extensions(tuple(entries) + tuple(extra))


@dataclass(frozen=True)
class Certificate:
    version: int
    serial: int
    signature_alg: Oid
    issuer: Name
    not_before: datetime.datetime
    not_after: datetime.datetime
    subject: Name
    public_key_alg: Oid
    public_key: bytes
    extensions: Extensions
    signature: bytes
    der: bytes = field(init=False, compare=False, repr=False)
    tbs_der: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _set_der(self, tbs_value(self))

    @property
    def has_unknown_critical(self) -> bool:
        return self.extensions.has_unknown_critical

    @property
    def is_self_issued(self) -> bool:
        return self.subject == self.issuer


@dataclass(frozen=True)
class RevokedEntry:
    serial: int
    revocation_date: datetime.datetime
    reason: ReasonCode


@dataclass(frozen=True)
class Crl:
    issuer: Name
    this_update: datetime.datetime
    next_update: datetime.datetime
    revoked: tuple[RevokedEntry, ...]
    signature_alg: Oid
    signature: bytes
    der: bytes = field(init=False, compare=False, repr=False)
    tbs_der: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _set_der(self, _crl_tbs_value(self))

    def entry_for(self, serial: int) -> RevokedEntry | None:
        for entry in self.revoked:
            if entry.serial == serial:
                return entry
        return None


def _set_der(obj, tbs: Sequence) -> None:
    # encode the TBS once and wrap the signed envelope around those bytes
    tbs_der = encode(tbs)
    object.__setattr__(obj, "tbs_der", tbs_der)
    object.__setattr__(obj, "der", encode(Sequence(
        [Raw(tbs_der), BitString(obj.signature, 0)])))


# ---------------------------------------------------------------------------
# value-level builders (shared with the protocol module)

def name_value(name: Name) -> Sequence:
    if not name.attributes:
        raise InvalidValue("empty Name")
    return Sequence([
        Set([Sequence([oid, Utf8String(v)])]) for oid, v in name.attributes
    ])


def parse_name_value(value: DerValue) -> Name:
    if not isinstance(value, Sequence):
        raise StructureMismatch("Name must be a SEQUENCE of RDNs")
    attrs = []
    for rdn in value.elements:
        if not (isinstance(rdn, Set) and len(rdn.elements) == 1):
            raise StructureMismatch("RDN must be a single-attribute SET")
        attr = sequence_of(rdn.elements[0], Oid, Utf8String)
        if attr is None:
            raise StructureMismatch("attribute must be SEQUENCE {OID, UTF8String}")
        attrs.append((attr[0], attr[1].value))
    if not attrs:
        raise StructureMismatch("empty Name")
    return Name(tuple(attrs))


def _parse_key_usage(value: DerValue) -> frozenset:
    if not isinstance(value, BitString):
        raise StructureMismatch("keyUsage must be a BIT STRING")
    try:
        return frozenset(KeyUsage(b) for b in bit_positions(value))
    except ValueError as exc:
        raise StructureMismatch(f"unknown keyUsage bit: {exc}") from None


def _extension_value(ext: Extension) -> DerValue:
    oid, v = ext.oid, ext.value
    if isinstance(v, bytes):  # unknown extension, opaque
        return OctetString(v)
    if oid == oids.EXT_BASIC_CONSTRAINTS:
        inner = [Boolean(v.is_ca)]
        if v.path_len is not None:
            if v.path_len < 0:
                raise InvalidValue("pathLen must be non-negative")
            inner.append(Integer(v.path_len))
        return OctetString(encode(Sequence(inner)))
    if oid == oids.EXT_KEY_USAGE:
        return OctetString(encode(named_bits(v)))
    if oid == oids.EXT_CERTIFICATE_POLICIES:
        items = []
        for info in v:
            elems = [info.oid]
            if info.qualifier is not None:
                elems.append(OctetString(info.qualifier))
            items.append(Sequence(elems))
        return OctetString(encode(Sequence(items)))
    if oid == oids.EXT_POLICY_MAPPINGS:
        for m in v:
            if oids.ANY_POLICY in (m.issuer_domain, m.subject_domain):
                raise InvalidValue("anyPolicy cannot appear in a policy mapping")
        return OctetString(encode(Sequence(
            [Sequence([m.issuer_domain, m.subject_domain]) for m in v])))
    if oid == oids.EXT_POLICY_CONSTRAINTS:
        if v.require_explicit_policy is None and v.inhibit_policy_mapping is None:
            raise InvalidValue("policyConstraints needs at least one field")
        inner = []
        if v.require_explicit_policy is not None:
            if v.require_explicit_policy < 0:
                raise InvalidValue("skip count must be non-negative")
            inner.append(ContextTagged(0, Integer(v.require_explicit_policy)))
        if v.inhibit_policy_mapping is not None:
            if v.inhibit_policy_mapping < 0:
                raise InvalidValue("skip count must be non-negative")
            inner.append(ContextTagged(1, Integer(v.inhibit_policy_mapping)))
        return OctetString(encode(Sequence(inner)))
    if oid == oids.EXT_NAME_CONSTRAINTS:
        if not v.permitted and not v.excluded:
            raise InvalidValue("nameConstraints needs permitted or excluded")
        inner = []
        if v.permitted:
            inner.append(ContextTagged(
                0, Sequence([name_value(n) for n in v.permitted])))
        if v.excluded:
            inner.append(ContextTagged(
                1, Sequence([name_value(n) for n in v.excluded])))
        return OctetString(encode(Sequence(inner)))
    if oid == oids.EXT_CRL_DISTRIBUTION_POINT:
        return OctetString(encode(Utf8String(v)))
    raise InvalidValue(f"no encoder for extension {oid}")


def _parse_extension_body(oid: Oid, body: bytes) -> object:
    value = decode_exact(body)
    if oid == oids.EXT_BASIC_CONSTRAINTS:
        bc = sequence_of(value, Boolean) or sequence_of(value, Boolean, Integer)
        if bc is None or len(bc) == 2 and bc[1].value < 0:
            raise StructureMismatch("bad basicConstraints")
        return BasicConstraints(bc[0].value,
                                bc[1].value if len(bc) == 2 else None)
    if oid == oids.EXT_KEY_USAGE:
        return _parse_key_usage(value)
    if oid == oids.EXT_CERTIFICATE_POLICIES:
        if not isinstance(value, Sequence):
            raise StructureMismatch("bad certificatePolicies")
        infos = []
        for item in value.elements:
            info = sequence_of(item, Oid) or sequence_of(item, Oid, OctetString)
            if info is None:
                raise StructureMismatch("bad policy information")
            infos.append(PolicyInfo(info[0],
                                    info[1].value if len(info) == 2 else None))
        return tuple(infos)
    if oid == oids.EXT_POLICY_MAPPINGS:
        if not isinstance(value, Sequence):
            raise StructureMismatch("bad policyMappings")
        mappings = []
        for item in value.elements:
            pair = sequence_of(item, Oid, Oid)
            if pair is None:
                raise StructureMismatch("bad policy mapping")
            if oids.ANY_POLICY in pair:
                raise StructureMismatch("anyPolicy in a policy mapping")
            mappings.append(PolicyMapping(*pair))
        return tuple(mappings)
    if oid == oids.EXT_POLICY_CONSTRAINTS:
        fields = _constraint_fields(value, "policyConstraints")
        if not all(isinstance(v, Integer) and v.value >= 0
                   for v in fields.values()):
            raise StructureMismatch("bad policyConstraints field")
        return PolicyConstraints(*(fields[n].value if n in fields else None
                                   for n in (0, 1)))
    if oid == oids.EXT_NAME_CONSTRAINTS:
        fields = _constraint_fields(value, "nameConstraints")
        if not all(isinstance(v, Sequence) for v in fields.values()):
            raise StructureMismatch("bad nameConstraints field")
        return NameConstraints(*(
            tuple(parse_name_value(n) for n in fields[k].elements)
            if k in fields else () for k in (0, 1)))
    if oid == oids.EXT_CRL_DISTRIBUTION_POINT:
        if not isinstance(value, Utf8String):
            raise StructureMismatch("bad crlDistributionPoint")
        return value.value
    raise StructureMismatch(f"no parser for extension {oid}")


def _constraint_fields(value: DerValue, what: str) -> dict:
    """The [0]/[1] fields of a constraints extension, at least one."""
    fields = (tagged_fields(value.elements, (0, 1))
              if isinstance(value, Sequence) else None)
    if not fields:
        raise StructureMismatch(f"bad {what}")
    return fields


def extensions_value(extensions: Extensions) -> Sequence:
    seen = set()
    items = []
    for ext in extensions.entries:
        if ext.oid in seen:
            raise InvalidValue(f"duplicate extension {ext.oid}")
        seen.add(ext.oid)
        items.append(Sequence([ext.oid, Boolean(ext.critical),
                               _extension_value(ext)]))
    return Sequence(items)


def parse_extensions_value(value: DerValue) -> Extensions:
    if not isinstance(value, Sequence) or not value.elements:
        raise StructureMismatch("extensions must be a non-empty SEQUENCE")
    seen = set()
    entries = []
    for item in value.elements:
        entry = sequence_of(item, Oid, Boolean, OctetString)
        if entry is None:
            raise StructureMismatch("bad extension entry")
        oid, critical, body = entry[0], entry[1].value, entry[2].value
        if oid in seen:
            raise StructureMismatch(f"duplicate extension {oid}")
        seen.add(oid)
        if oid in _KNOWN_EXTENSIONS:
            parsed = _parse_extension_body(oid, body)
        else:
            parsed = body  # unknown: preserved opaquely
        entries.append(Extension(oid, critical, parsed))
    return Extensions(tuple(entries))


# ---------------------------------------------------------------------------
# certificates

def tbs_value(cert: Certificate) -> Sequence:
    if cert.not_before > cert.not_after:
        raise InvalidValue("notBefore is after notAfter")
    if cert.serial < 0:
        raise InvalidValue("serial must be non-negative")
    elements = [
        Integer(cert.version),
        Integer(cert.serial),
        cert.signature_alg,
        name_value(cert.issuer),
        Sequence([GeneralizedTime(cert.not_before),
                  GeneralizedTime(cert.not_after)]),
        name_value(cert.subject),
        Sequence([cert.public_key_alg, BitString(cert.public_key, 0)]),
    ]
    if cert.extensions.entries:
        elements.append(ContextTagged(0, extensions_value(cert.extensions)))
    return Sequence(elements)


def _parse_tbs(value: DerValue, signature: bytes) -> Certificate:
    if not isinstance(value, Sequence) or len(value.elements) < 7:
        raise StructureMismatch("bad TBS certificate shape")
    e = value.elements
    if not isinstance(e[0], Integer):
        raise StructureMismatch("version must be an INTEGER")
    if e[0].value != 3:
        raise UnsupportedVersion(f"certificate version {e[0].value}")
    if not isinstance(e[1], Integer) or e[1].value < 0:
        raise StructureMismatch("bad serial")
    if not isinstance(e[2], Oid):
        raise StructureMismatch("bad signature algorithm")
    issuer = parse_name_value(e[3])
    validity = sequence_of(e[4], GeneralizedTime, GeneralizedTime)
    if validity is None:
        raise StructureMismatch("bad validity")
    not_before, not_after = (t.value for t in validity)
    if not_before > not_after:
        raise StructureMismatch("notBefore is after notAfter")
    subject = parse_name_value(e[5])
    spki = sequence_of(e[6], Oid, BitString)
    if spki is None or spki[1].unused_bits != 0:
        raise StructureMismatch("bad subjectPublicKeyInfo")
    wrapped = tagged_fields(e[7:], (0,))
    if wrapped is None:
        raise StructureMismatch("bad extensions wrapper")
    extensions = (parse_extensions_value(wrapped[0]) if wrapped
                  else Extensions())
    return Certificate(
        version=3, serial=e[1].value, signature_alg=e[2], issuer=issuer,
        not_before=not_before, not_after=not_after, subject=subject,
        public_key_alg=spki[0], public_key=spki[1].value,
        extensions=extensions, signature=signature)


def _split_envelope(value: DerValue, what: str) -> tuple:
    """(TBS, signature bytes) of SEQUENCE {tbs SEQUENCE, signature BIT
    STRING}, the envelope of certificates and CRLs."""
    envelope = sequence_of(value, Sequence, BitString)
    if envelope is None or envelope[1].unused_bits != 0:
        raise StructureMismatch(f"bad {what} envelope")
    return envelope[0], envelope[1].value


def certificate_from_value(value: DerValue, stored=None) -> Certificate:
    """``stored`` maps fingerprints to certificates parsed before; one with
    the value's bytes is returned as it is, not parsed again."""
    tbs, signature = _split_envelope(value, "certificate")
    if stored and (cert := stored.get(crypto.digest(value.der))) is not None:
        return cert
    cert = _parse_tbs(tbs, signature)
    if cert.der != value.der:
        raise StructureMismatch("certificate does not re-encode canonically")
    return cert


def parse_certificate(data: bytes) -> Certificate:
    return certificate_from_value(decode_exact(data))


def fingerprint(cert: Certificate) -> bytes:
    return crypto.digest(cert.der)


def check_signature(cert: Certificate, issuer_public_key: bytes) -> bool:
    """True iff the certificate's signature verifies under the given key."""
    return crypto.verify(issuer_public_key, cert.signature_alg, cert.tbs_der,
                         cert.signature)


def sign_certificate(*, serial: int, issuer: Name, subject: Name,
                     not_before: datetime.datetime,
                     not_after: datetime.datetime,
                     public_key_alg: Oid, public_key: bytes,
                     extensions: Extensions,
                     issuer_key: crypto.KeyPair) -> Certificate:
    cert = Certificate(
        version=3, serial=serial, signature_alg=crypto.ALGORITHM,
        issuer=issuer, not_before=not_before, not_after=not_after,
        subject=subject, public_key_alg=public_key_alg, public_key=public_key,
        extensions=extensions, signature=b"")
    signature = crypto.sign(issuer_key, cert.tbs_der)
    return dataclasses.replace(cert, signature=signature)


# ---------------------------------------------------------------------------
# CRLs

def _crl_tbs_value(crl: Crl) -> Sequence:
    if crl.this_update > crl.next_update:
        raise InvalidValue("thisUpdate is after nextUpdate")
    serials = [e.serial for e in crl.revoked]
    if serials != sorted(set(serials)) or any(s < 0 for s in serials):
        raise InvalidValue("revoked serials must be strictly increasing")
    return Sequence([
        name_value(crl.issuer),
        GeneralizedTime(crl.this_update),
        GeneralizedTime(crl.next_update),
        Sequence([
            Sequence([Integer(e.serial), GeneralizedTime(e.revocation_date),
                      Integer(int(e.reason))])
            for e in crl.revoked
        ]),
        crl.signature_alg,
    ])


def crl_from_value(value: DerValue) -> Crl:
    tbs, signature = _split_envelope(value, "CRL")
    parts = sequence_of(tbs, Sequence, GeneralizedTime, GeneralizedTime,
                        Sequence, Oid)
    if parts is None:
        raise StructureMismatch("bad CRL TBS shape")
    issuer = parse_name_value(parts[0])
    this_update, next_update = parts[1].value, parts[2].value
    if this_update > next_update:
        raise StructureMismatch("thisUpdate is after nextUpdate")
    entries = []
    for item in parts[3].elements:
        entry = sequence_of(item, Integer, GeneralizedTime, Integer)
        if entry is None:
            raise StructureMismatch("bad revoked entry")
        try:
            reason = ReasonCode(entry[2].value)
        except ValueError:
            raise StructureMismatch(
                f"unknown reason code {entry[2].value}") from None
        entries.append(RevokedEntry(entry[0].value, entry[1].value, reason))
    serials = [e.serial for e in entries]
    if serials != sorted(set(serials)) or any(s < 0 for s in serials):
        raise StructureMismatch("revoked serials must be strictly increasing")
    crl = Crl(issuer, this_update, next_update, tuple(entries), parts[4],
              signature)
    if crl.der != value.der:
        raise StructureMismatch("CRL does not re-encode canonically")
    return crl


def parse_crl(data: bytes) -> Crl:
    return crl_from_value(decode_exact(data))


def check_crl_signature(crl: Crl, issuer_public_key: bytes) -> bool:
    """True iff the CRL's signature verifies under the given key."""
    return crypto.verify(issuer_public_key, crl.signature_alg, crl.tbs_der,
                         crl.signature)


class SignatureMemo:
    """Signature verdicts over a repository snapshot's certificates and CRLs,
    failures included, keyed by (issuer key, signed DER) and filled on first
    use.  A pair is kept only when its issuer certificate and its signed
    object are both stored, so no request can grow the memo past the
    snapshot's own pairs; the memo dies with the snapshot that owns it."""

    def __init__(self, stored=()):
        self.stored = frozenset(obj.der for obj in stored)
        self.verdicts: dict[tuple[bytes, bytes], bool] = {}

    def holds(self, issuer: Certificate, signed: Certificate | Crl) -> bool:
        return issuer.der in self.stored and signed.der in self.stored


def sign_crl(*, issuer: Name, this_update: datetime.datetime,
             next_update: datetime.datetime,
             revoked: tuple[RevokedEntry, ...],
             issuer_key: crypto.KeyPair) -> Crl:
    crl = Crl(issuer, this_update, next_update, tuple(revoked),
              crypto.ALGORITHM, b"")
    signature = crypto.sign(issuer_key, crl.tbs_der)
    return dataclasses.replace(crl, signature=signature)
