"""Validation-protocol messages: request, signed validation certificate
(DVC) response, and signed error notice, plus response verification and
text rendering.

Every message is one DER value carrying a context tag as the message kind
(0 request, 1 DVC, 2 error notice).  A response embeds a byte-exact copy of
the request's requestInformation; clients verify that echo, the nonce, and
the server signature before trusting any verdict.  The byte-level grammar
lives in docs/wire.md.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
import secrets
from dataclasses import dataclass, field

from . import crypto, oids, revocation
from .certs import (
    Certificate,
    Crl,
    Name,
    certificate_from_value,
    crl_from_value,
    fingerprint,
    name_value,
    parse_name_value,
)
from .der import (
    BitString,
    Boolean,
    ContextTagged,
    DerError,
    DerValue,
    GeneralizedTime,
    Integer,
    OctetString,
    Oid,
    Raw,
    Sequence,
    Utf8String,
    bit_positions,
    decode_exact,
    encode,
    named_bits,
    sequence_of,
    tagged_fields,
)
from .policytree import CprRequirement
from .validation import FailureReason, Verdict, VerdictStatus

DVCS_CONTENT_TYPE = "application/savacert-dvcs"

PROTOCOL_VERSION = 1
SERVICE_VPKC = 3

_KIND_REQUEST = 0
_KIND_DVC = 1
_KIND_ERROR = 2


class ProtocolError(Exception):
    """Message is structurally not a valid protocol message."""


class EchoMismatch(Exception):
    pass


class NonceMismatch(Exception):
    pass


class BadServerSignature(Exception):
    pass


class UnsignedRejected(Exception):
    pass


class ServerCertRejected(Exception):
    pass


class WantBack(enum.IntEnum):
    CHAIN = 0
    CRLS = 1
    ONLINE_REPLIES = 2
    VALIDATION_TIME = 3


class ErrorCode(enum.IntEnum):
    BAD_TIME = 0
    WRONG_SERVER = 1
    UNSUPPORTED_SERVICE = 2
    MALFORMED_REQUEST = 3
    UNKNOWN_REQUEST_POLICY = 4
    UNKNOWN_USAGE = 5
    INTERNAL_ERROR = 6


@dataclass(frozen=True)
class RequestExtension:
    oid: Oid
    critical: bool
    value: bytes  # DER of the extension's inner value


@dataclass(frozen=True)
class RequestInformation:
    nonce: int
    request_time: datetime.datetime
    version: int = PROTOCOL_VERSION
    service: int = SERVICE_VPKC
    requester: Name | None = None
    request_policy: Oid | None = None
    dvcs_name: Name | None = None
    extensions: tuple[RequestExtension, ...] = ()


@dataclass(frozen=True)
class RequestSignature:
    signer: Certificate
    algorithm: Oid
    value: bytes


@dataclass(frozen=True)
class ValidationRequest:
    info: RequestInformation
    targets: tuple  # Certificate or raw DER bytes (thin clients)
    acceptable_set: tuple[Oid, ...] = ()
    explicit_policy_required: bool = False
    inhibit_policy_mapping: bool = False
    signature: RequestSignature | None = None
    # the known request extensions' payloads, which parse_request decodes
    # once; see REQUEST_EXTENSIONS
    supplied: tuple[Certificate, ...] = ()
    intended_usage: str | None = None
    want_backs: frozenset | None = None  # None: the server default applies
    time_override: datetime.datetime | None = None
    # the signed body as received; None for a request built in process
    signed_der: bytes | None = field(default=None, compare=False, repr=False)

    def target_fingerprints(self) -> list[bytes]:
        return [target_fingerprint(t) for t in self.targets]


@dataclass(frozen=True)
class EvidenceOut:
    chain: tuple[Certificate, ...] | None = None  # anchor first
    crls: tuple[Crl, ...] | None = None
    replies: tuple[bytes, ...] | None = None
    validation_time: datetime.datetime | None = None


@dataclass(frozen=True)
class TargetResult:
    target_fingerprint: bytes
    status: VerdictStatus
    authorized_set: tuple[Oid, ...] = ()
    mappings_applied: tuple[tuple[Oid, Oid], ...] = ()
    reason: FailureReason | None = None
    failing_index: int | None = None
    unknown_cause: str | None = None
    evidence: EvidenceOut | None = None


@dataclass(frozen=True)
class DvcInfo:
    serial_number: int
    produced_at: datetime.datetime
    echo: RequestInformation
    results: tuple[TargetResult, ...]
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class DvcResponse:
    info: DvcInfo
    signer: Certificate | None = None
    signature: tuple[Oid, bytes] | None = None
    signed_der: bytes | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ErrorNotice:
    code: ErrorCode
    message: str
    echo: RequestInformation | None = None
    signer: Certificate | None = None
    signature: tuple[Oid, bytes] | None = None
    signed_der: bytes | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ResponseTrust:
    """Client-side response acceptance policy."""

    trust_unsigned: bool = False
    server_cert_check: str = "none"  # pinned | online | none
    pinned_fingerprint: bytes | None = None
    responder_url: str | None = None
    responder_cert: Certificate | None = None


def target_fingerprint(target) -> bytes:
    if isinstance(target, (bytes, bytearray)):
        return crypto.digest(bytes(target))
    return fingerprint(target)


# ---------------------------------------------------------------------------
# structure helpers

def _fields(elements, kinds: dict, complaint: str) -> dict:
    """der.tagged_fields over the numbers in ``kinds``, each field's value of
    its kind, or ProtocolError(complaint)."""
    fields = tagged_fields(elements, kinds)
    if fields is None or not all(isinstance(v, kinds[n])
                                 for n, v in fields.items()):
        raise ProtocolError(complaint)
    return fields


def _oid_list(value: DerValue, what: str) -> tuple[Oid, ...]:
    if not isinstance(value, Sequence) or \
            not all(isinstance(o, Oid) for o in value.elements):
        raise ProtocolError(f"{what} must be a SEQUENCE of OIDs")
    return tuple(value.elements)


def info_value(info: RequestInformation) -> Sequence:
    elements: list[DerValue] = [
        Integer(info.version),
        Integer(info.service),
        Integer(info.nonce),
        GeneralizedTime(info.request_time),
    ]
    if info.requester is not None:
        elements.append(ContextTagged(0, name_value(info.requester)))
    if info.request_policy is not None:
        elements.append(ContextTagged(1, info.request_policy))
    if info.dvcs_name is not None:
        elements.append(ContextTagged(2, name_value(info.dvcs_name)))
    if info.extensions:
        elements.append(ContextTagged(3, Sequence([
            Sequence([e.oid, Boolean(e.critical), OctetString(e.value)])
            for e in info.extensions
        ])))
    return Sequence(elements)


def parse_info_value(value: DerValue) -> RequestInformation:
    if not isinstance(value, Sequence) or len(value.elements) < 4:
        raise ProtocolError("bad requestInformation shape")
    e = value.elements
    if not (isinstance(e[0], Integer) and isinstance(e[1], Integer)
            and isinstance(e[2], Integer)
            and isinstance(e[3], GeneralizedTime)):
        raise ProtocolError("bad requestInformation header fields")
    fields = _fields(e[4:], {0: Sequence, 1: Oid, 2: Sequence, 3: Sequence},
                     "bad requestInformation field")
    if 3 in fields and not fields[3].elements:
        raise ProtocolError("empty request extensions list")
    extensions = []
    for item in fields[3].elements if 3 in fields else ():
        entry = sequence_of(item, Oid, Boolean, OctetString)
        if entry is None:
            raise ProtocolError("bad request extension entry")
        extensions.append(RequestExtension(entry[0], entry[1].value,
                                           entry[2].value))
    requester, dvcs_name = (parse_name_value(fields[n]) if n in fields
                            else None for n in (0, 2))
    return RequestInformation(
        nonce=e[2].value, request_time=e[3].value, version=e[0].value,
        service=e[1].value, requester=requester,
        request_policy=fields.get(1), dvcs_name=dvcs_name,
        extensions=tuple(extensions))


def encode_info(info: RequestInformation) -> bytes:
    return encode(info_value(info))


# ---------------------------------------------------------------------------
# requests

def _request_body(request: ValidationRequest) -> Sequence:
    """The signed part of a request."""
    return Sequence([
        info_value(request.info),
        Sequence([Raw(bytes(t) if isinstance(t, (bytes, bytearray)) else t.der)
                  for t in request.targets]),
        Sequence([Oid(o.arcs) for o in request.acceptable_set]),
        Boolean(request.explicit_policy_required),
        Boolean(request.inhibit_policy_mapping),
    ])


def encode_request(request: ValidationRequest) -> bytes:
    if not request.targets:
        raise ProtocolError("a request carries at least one target")
    parts = [_request_body(request)]
    if request.signature is not None:
        sig = request.signature
        parts.append(ContextTagged(0, Sequence([
            Raw(sig.signer.der), sig.algorithm, BitString(sig.value, 0)])))
    return encode(ContextTagged(_KIND_REQUEST, Sequence(parts)))


def _open_envelope(data: bytes) -> tuple[int, DerValue]:
    try:
        value = decode_exact(data)
    except DerError as exc:
        raise ProtocolError(f"not DER: {exc}") from exc
    if not isinstance(value, ContextTagged):
        raise ProtocolError("message must be a tagged envelope")
    return value.number, value.inner


def build_request(*, targets, cpr: CprRequirement, now: datetime.datetime,
                  requester: Name | None = None,
                  request_policy: Oid | None = None,
                  dvcs_name: Name | None = None,
                  want_backs=None,
                  time_override: datetime.datetime | None = None,
                  supplied_chains=(),
                  signer_key: crypto.KeyPair | None = None,
                  signer_cert: Certificate | None = None,
                  nonce: int | None = None) -> ValidationRequest:
    """Assemble a request: strict CPR goes into the dedicated fields, weak
    CPR rides the intendedUsage extension, and blank fields mean any policy
    is acceptable."""
    if nonce is None:
        nonce = secrets.randbits(64)
    extensions = []
    if cpr.mode == "weak":
        extensions.append(RequestExtension(
            oids.REQ_INTENDED_USAGE, True,
            encode(Utf8String(cpr.intended_usage))))
    if supplied_chains:
        extensions.append(RequestExtension(
            oids.REQ_SUPPLIED_CHAINS, False,
            encode(Sequence([Raw(c.der) for c in supplied_chains]))))
    if want_backs is not None:
        extensions.append(RequestExtension(
            oids.REQ_WANT_BACKS, False, encode(named_bits(want_backs))))
    if time_override is not None:
        extensions.append(RequestExtension(
            oids.REQ_TIME_OVERRIDE, False,
            encode(GeneralizedTime(time_override))))
    info = RequestInformation(
        nonce=nonce, request_time=now, requester=requester,
        request_policy=request_policy, dvcs_name=dvcs_name,
        extensions=tuple(extensions))
    request = ValidationRequest(
        info=info, targets=tuple(targets),
        acceptable_set=tuple(cpr.acceptable_set),
        explicit_policy_required=cpr.explicit_policy_required,
        inhibit_policy_mapping=cpr.inhibit_policy_mapping,
        supplied=tuple(supplied_chains), intended_usage=cpr.intended_usage,
        want_backs=None if want_backs is None else frozenset(want_backs),
        time_override=time_override)
    if signer_key is not None:
        if signer_cert is None:
            raise ProtocolError("request signing needs the signer certificate")
        value = crypto.sign(signer_key, encode(_request_body(request)))
        request = dataclasses.replace(request, signature=RequestSignature(
            signer_cert, crypto.ALGORITHM, value))
    return request


def _want_backs(value: BitString) -> frozenset:
    try:
        return frozenset(WantBack(b) for b in bit_positions(value))
    except ValueError as exc:
        raise ProtocolError(f"unknown want-back bit: {exc}") from None


# each known request extension: OID -> (ValidationRequest field, payload
# type, complaint when the payload has another type, payload -> field value)
REQUEST_EXTENSIONS = {
    oids.REQ_INTENDED_USAGE: ("intended_usage", Utf8String,
                              "intendedUsage must be a UTF8String",
                              lambda v: v.value),
    oids.REQ_SUPPLIED_CHAINS: ("supplied", Sequence,
                               "suppliedChains must be a SEQUENCE",
                               lambda v: v.elements),
    oids.REQ_WANT_BACKS: ("want_backs", BitString,
                          "wantBacks must be a BIT STRING", _want_backs),
    oids.REQ_TIME_OVERRIDE: ("time_override", GeneralizedTime,
                             "validationTimeOverride must be a time",
                             lambda v: v.value),
}


def _extension_payloads(info: RequestInformation) -> dict:
    """The known extensions' ValidationRequest fields; an extension OID may
    appear once."""
    fields, seen = {}, set()
    for ext in info.extensions:
        if ext.oid in seen:
            raise ProtocolError(f"repeated request extension {ext.oid}")
        seen.add(ext.oid)
        if ext.oid in REQUEST_EXTENSIONS:
            name, kind, complaint, convert = REQUEST_EXTENSIONS[ext.oid]
            value = decode_exact(ext.value)
            if not isinstance(value, kind):
                raise ProtocolError(complaint)
            fields[name] = convert(value)
    return fields


def parse_request(data: bytes, stored=None) -> ValidationRequest:
    """``stored`` (a snapshot's fingerprint index) supplies every target or
    supplied certificate it holds; see certificate_from_value."""
    kind, value = _open_envelope(data)
    if kind != _KIND_REQUEST:
        raise ProtocolError(f"expected a request, got message kind {kind}")
    if not isinstance(value, Sequence) or not value.elements:
        raise ProtocolError("bad request envelope")
    body = sequence_of(value.elements[0], Sequence, Sequence, Sequence,
                       Boolean, Boolean)
    if body is None:
        raise ProtocolError("bad request body shape")
    info = parse_info_value(body[0])
    if not body[1].elements:
        raise ProtocolError("a request carries at least one target")
    targets = tuple(certificate_from_value(t, stored)
                    for t in body[1].elements)
    signature = None
    wrapped = _fields(value.elements[1:], {0: Sequence},
                      "bad request signature")
    if wrapped:
        sig = sequence_of(wrapped[0], Sequence, Oid, BitString)
        if sig is None:
            raise ProtocolError("bad request signature")
        signature = RequestSignature(certificate_from_value(sig[0], stored),
                                     sig[1], sig[2].value)
    fields = _extension_payloads(info)
    fields["supplied"] = tuple(certificate_from_value(c, stored)
                               for c in fields.get("supplied", ()))
    return ValidationRequest(
        info=info, targets=targets,
        acceptable_set=_oid_list(body[2], "acceptablePolicySet"),
        explicit_policy_required=body[3].value,
        inhibit_policy_mapping=body[4].value, signature=signature,
        signed_der=value.elements[0].der, **fields)


def verify_request_signature(request: ValidationRequest) -> bool:
    """Check the signature over the body bytes as received; only a request
    built in process is encoded for it."""
    if request.signature is None:
        return False
    sig = request.signature
    signed = request.signed_der
    if signed is None:
        signed = encode(_request_body(request))
    return crypto.verify(sig.signer.public_key, sig.algorithm, signed,
                         sig.value)


# ---------------------------------------------------------------------------
# responses

def _evidence_value(evidence: EvidenceOut) -> Sequence:
    elements = []
    if evidence.chain is not None:
        elements.append(ContextTagged(0, Sequence(
            [Raw(c.der) for c in evidence.chain])))
    if evidence.crls is not None:
        elements.append(ContextTagged(1, Sequence(
            [Raw(c.der) for c in evidence.crls])))
    if evidence.replies is not None:
        elements.append(ContextTagged(2, Sequence(
            [OctetString(r) for r in evidence.replies])))
    if evidence.validation_time is not None:
        elements.append(ContextTagged(
            3, GeneralizedTime(evidence.validation_time)))
    return Sequence(elements)


def _parse_evidence(value: Sequence) -> EvidenceOut:
    fields = _fields(value.elements, {0: Sequence, 1: Sequence, 2: Sequence,
                                      3: GeneralizedTime}, "bad evidence entry")
    if 2 in fields and not all(isinstance(r, OctetString)
                               for r in fields[2].elements):
        raise ProtocolError("bad evidence entry")
    chain, crls, replies, at = (fields.get(n) for n in range(4))
    return EvidenceOut(
        chain and tuple(certificate_from_value(c) for c in chain.elements),
        crls and tuple(crl_from_value(c) for c in crls.elements),
        replies and tuple(r.value for r in replies.elements),
        at and at.value)


_STATUS_CODES = {VerdictStatus.VALID: 0, VerdictStatus.INVALID: 1,
                 VerdictStatus.UNKNOWN: 2}
_STATUS_BY_CODE = {v: k for k, v in _STATUS_CODES.items()}


def _result_value(result: TargetResult) -> Sequence:
    elements: list[DerValue] = [
        OctetString(result.target_fingerprint),
        Integer(_STATUS_CODES[result.status]),
        Sequence(list(result.authorized_set)),
        Sequence([Sequence([a, b]) for a, b in result.mappings_applied]),
    ]
    if result.reason is not None:
        elements.append(ContextTagged(0, Integer(int(result.reason))))
    if result.failing_index is not None:
        elements.append(ContextTagged(1, Integer(result.failing_index)))
    if result.unknown_cause is not None:
        elements.append(ContextTagged(2, Utf8String(result.unknown_cause)))
    if result.evidence is not None:
        elements.append(ContextTagged(3, _evidence_value(result.evidence)))
    return Sequence(elements)


def _parse_result(value: DerValue) -> TargetResult:
    if not (isinstance(value, Sequence) and len(value.elements) >= 4
            and isinstance(value.elements[0], OctetString)
            and isinstance(value.elements[1], Integer)):
        raise ProtocolError("bad target result shape")
    e = value.elements
    status = _STATUS_BY_CODE.get(e[1].value)
    if status is None:
        raise ProtocolError(f"bad verdict status {e[1].value}")
    authorized = _oid_list(e[2], "authorizedPolicySet")
    if not isinstance(e[3], Sequence):
        raise ProtocolError("bad mappings list")
    mappings = []
    for item in e[3].elements:
        pair = sequence_of(item, Oid, Oid)
        if pair is None:
            raise ProtocolError("bad mapping entry")
        mappings.append(pair)
    fields = _fields(e[4:], {0: Integer, 1: Integer, 2: Utf8String,
                             3: Sequence}, "bad target result field")
    reason = fields.get(0)
    if reason is not None:
        try:
            reason = FailureReason(reason.value)
        except ValueError as exc:
            raise ProtocolError(f"unknown failure reason: {exc}") from None
    failing_index, unknown_cause = (fields[n].value if n in fields else None
                                    for n in (1, 2))
    evidence = _parse_evidence(fields[3]) if 3 in fields else None
    return TargetResult(e[0].value, status, authorized, tuple(mappings),
                        reason, failing_index, unknown_cause, evidence)


def dvc_info_value(info: DvcInfo) -> Sequence:
    return Sequence([
        Integer(info.version),
        Integer(info.serial_number),
        GeneralizedTime(info.produced_at),
        info_value(info.echo),
        Sequence([_result_value(r) for r in info.results]),
    ])


def _parse_dvc_info(value: DerValue) -> DvcInfo:
    e = sequence_of(value, Integer, Integer, GeneralizedTime, Sequence,
                    Sequence)
    if e is None:
        raise ProtocolError("bad DVC info shape")
    return DvcInfo(serial_number=e[1].value, produced_at=e[2].value,
                   echo=parse_info_value(e[3]),
                   results=tuple(_parse_result(r) for r in e[4].elements),
                   version=e[0].value)


def _signed_envelope(kind: int, info: DerValue, signer: Certificate,
                     key: crypto.KeyPair) -> bytes:
    """The message, signed by ``key`` with ``signer`` attached."""
    info_der = encode(info)
    signature = crypto.sign(key, info_der)
    return encode(ContextTagged(kind, Sequence([
        Raw(info_der), ContextTagged(0, Raw(signer.der)),
        ContextTagged(1, Sequence([crypto.ALGORITHM,
                                   BitString(signature, 0)]))])))


def sign_dvc(info: DvcInfo, signer: Certificate,
             key: crypto.KeyPair) -> bytes:
    return _signed_envelope(_KIND_DVC, dvc_info_value(info), signer, key)


def notice_info_value(notice: ErrorNotice) -> Sequence:
    elements: list[DerValue] = [Integer(int(notice.code)),
                                Utf8String(notice.message)]
    if notice.echo is not None:
        elements.append(ContextTagged(0, info_value(notice.echo)))
    return Sequence(elements)


def sign_error_notice(notice: ErrorNotice, signer: Certificate,
                      key: crypto.KeyPair) -> bytes:
    return _signed_envelope(_KIND_ERROR, notice_info_value(notice), signer,
                            key)


def _parse_signed_tail(elements):
    """(signer, signature) from the optional [0] signer and [1] signature."""
    fields = _fields(elements, {0: Sequence, 1: Sequence},
                     "unexpected fields after signature")
    signer = signature = None
    if 0 in fields:
        signer = certificate_from_value(fields[0])
    if 1 in fields:
        sig = sequence_of(fields[1], Oid, BitString)
        if sig is None:
            raise ProtocolError("bad response signature")
        signature = (sig[0], sig[1].value)
    return signer, signature


def parse_response(data: bytes):
    """Parse a server response into a DvcResponse or ErrorNotice without
    verifying anything; see verify_response."""
    kind, value = _open_envelope(data)
    if not isinstance(value, Sequence) or not value.elements:
        raise ProtocolError("bad response envelope")
    if kind == _KIND_DVC:
        info = _parse_dvc_info(value.elements[0])
        signer, signature = _parse_signed_tail(value.elements[1:])
        return DvcResponse(info, signer, signature, value.elements[0].der)
    if kind == _KIND_ERROR:
        body = value.elements[0]
        if not (isinstance(body, Sequence) and len(body.elements) in (2, 3)
                and isinstance(body.elements[0], Integer)
                and isinstance(body.elements[1], Utf8String)):
            raise ProtocolError("bad error notice shape")
        try:
            code = ErrorCode(body.elements[0].value)
        except ValueError as exc:
            raise ProtocolError(f"unknown error code: {exc}") from None
        echo = _fields(body.elements[2:], {0: Sequence},
                       "bad error notice echo").get(0)
        if echo is not None:
            echo = parse_info_value(echo)
        signer, signature = _parse_signed_tail(value.elements[1:])
        return ErrorNotice(code, body.elements[1].value, echo, signer,
                           signature, body.der)
    raise ProtocolError(f"unexpected message kind {kind}")


def verify_response(message, expected: RequestInformation,
                    trust: ResponseTrust) -> None:
    """Bind the response to the sent request and authenticate the server.

    Checks, in order: nonce, byte-exact requestInformation echo, server
    signature over ``signed_der`` as received (or the unsigned opt-in),
    and the signer certificate per the configured check (pinned
    fingerprint or online status)."""
    echo = message.echo if isinstance(message, ErrorNotice) else message.info.echo
    if echo is not None:
        if echo.nonce != expected.nonce:
            raise NonceMismatch(
                f"response nonce {echo.nonce} != sent {expected.nonce}")
        if encode_info(echo) != encode_info(expected):
            raise EchoMismatch("requestInformation echo differs from request")
    elif isinstance(message, DvcResponse):
        raise EchoMismatch("validation response carries no echo")

    if message.signature is None:
        if not trust.trust_unsigned:
            raise UnsignedRejected("unsigned response rejected by profile")
        return
    if message.signer is None:
        raise BadServerSignature("signed response without a signer certificate")
    alg_oid, value = message.signature
    if not crypto.verify(message.signer.public_key, alg_oid,
                         message.signed_der, value):
        raise BadServerSignature("server signature does not verify")

    if trust.server_cert_check == "pinned":
        if fingerprint(message.signer) != trust.pinned_fingerprint:
            raise ServerCertRejected("signer does not match pinned fingerprint")
    elif trust.server_cert_check == "online":
        try:
            status = revocation.check_online(
                message.signer, trust.responder_url, trust.responder_cert)
        except revocation.StatusError as exc:
            raise ServerCertRejected(f"signer status check failed: {exc}") from exc
        if not status.is_good:
            raise ServerCertRejected(
                f"signer certificate status is {status.value.name}")


# ---------------------------------------------------------------------------
# rendering

def _clean(text: str) -> str:
    return "".join(c if c.isprintable() or c == "\n" else
                   f"\\x{ord(c):02x}" for c in str(text))


def _render_name(name: Name | None) -> str:
    return _clean(str(name)) if name is not None else "-"


def _render_info(info: RequestInformation, out: list) -> None:
    out.append(f"  version: {info.version}  service: {info.service}")
    out.append(f"  nonce: {info.nonce}")
    out.append(f"  request time: {info.request_time:%Y%m%d%H%M%S}Z")
    out.append(f"  requester: {_render_name(info.requester)}")
    out.append(f"  request policy: {info.request_policy or '-'}")
    out.append(f"  server name: {_render_name(info.dvcs_name)}")
    for ext in info.extensions:
        label = {oids.REQ_INTENDED_USAGE: "intendedUsage",
                 oids.REQ_SUPPLIED_CHAINS: "suppliedChains",
                 oids.REQ_WANT_BACKS: "wantBacks",
                 oids.REQ_TIME_OVERRIDE: "validationTimeOverride"}.get(
                     ext.oid, ext.oid.dotted())
        out.append(f"  extension {label} critical={ext.critical} "
                   f"({len(ext.value)} bytes)")


def render_certificate(cert: Certificate) -> str:
    out = ["certificate:"]
    out.append(f"  serial: {cert.serial}")
    out.append(f"  subject: {_render_name(cert.subject)}")
    out.append(f"  issuer: {_render_name(cert.issuer)}")
    out.append(f"  validity: {cert.not_before:%Y%m%d%H%M%S}Z "
               f"to {cert.not_after:%Y%m%d%H%M%S}Z")
    out.append(f"  fingerprint: {fingerprint(cert).hex()}")
    bc = cert.extensions.basic_constraints
    if bc is not None:
        out.append(f"  basic constraints: ca={bc.is_ca}"
                   + (f" pathlen={bc.path_len}" if bc.path_len is not None else ""))
    usage = cert.extensions.key_usage
    if usage is not None:
        names = ", ".join(sorted(u.name for u in usage)) or "(none)"
        out.append(f"  key usage: {names}")
    policies = cert.extensions.certificate_policies
    if policies is not None:
        out.append("  policies: " + ", ".join(str(p.oid) for p in policies))
    mappings = cert.extensions.policy_mappings
    if mappings:
        out.append("  policy mappings: " + ", ".join(
            f"{m.issuer_domain} -> {m.subject_domain}" for m in mappings))
    constraints = cert.extensions.policy_constraints
    if constraints is not None:
        out.append(f"  policy constraints: requireExplicitPolicy="
                   f"{constraints.require_explicit_policy} "
                   f"inhibitPolicyMapping={constraints.inhibit_policy_mapping}")
    nc = cert.extensions.name_constraints
    if nc is not None:
        if nc.permitted:
            out.append("  permitted names: "
                       + "; ".join(_render_name(n) for n in nc.permitted))
        if nc.excluded:
            out.append("  excluded names: "
                       + "; ".join(_render_name(n) for n in nc.excluded))
    if cert.extensions.crl_distribution_point:
        out.append(f"  crl distribution point: "
                   f"{_clean(cert.extensions.crl_distribution_point)}")
    if cert.has_unknown_critical:
        out.append("  warning: unknown critical extension present")
    return "\n".join(out)


def render_crl(crl: Crl) -> str:
    out = ["certificate revocation list:"]
    out.append(f"  issuer: {_render_name(crl.issuer)}")
    out.append(f"  thisUpdate: {crl.this_update:%Y%m%d%H%M%S}Z  "
               f"nextUpdate: {crl.next_update:%Y%m%d%H%M%S}Z")
    out.append(f"  entries: {len(crl.revoked)}")
    for entry in crl.revoked:
        out.append(f"    serial {entry.serial}: revoked "
                   f"{entry.revocation_date:%Y%m%d%H%M%S}Z "
                   f"reason={entry.reason.name}")
    return "\n".join(out)


def _render_result(index: int, result: TargetResult, out: list) -> None:
    out.append(f"  target {index + 1}: {result.target_fingerprint.hex()}")
    render_result_details(result, out)


def render_result_details(result: TargetResult, out: list) -> None:
    """Detail lines for one target result, indented under a caller header."""
    out.append(f"    status: {result.status.value.upper()}")
    if result.reason is not None:
        where = ("whole path" if result.failing_index == -1
                 else f"chain index {result.failing_index}")
        out.append(f"    reason: {result.reason.name} ({where})")
    if result.unknown_cause:
        out.append(f"    cause: {_clean(result.unknown_cause)}")
    if result.authorized_set:
        out.append("    authorized policies: "
                   + ", ".join(str(o) for o in result.authorized_set))
    if result.mappings_applied:
        out.append("    mappings applied: " + ", ".join(
            f"{a} -> {b}" for a, b in result.mappings_applied))
    evidence = result.evidence
    if evidence is None:
        return
    if evidence.validation_time is not None:
        out.append(f"    validation time: "
                   f"{evidence.validation_time:%Y%m%d%H%M%S}Z")
    if evidence.chain is not None:
        names = " -> ".join(_render_name(c.subject) for c in evidence.chain)
        out.append(f"    chain: {names}")
    if evidence.crls is not None:
        for crl in evidence.crls:
            count = len(crl.revoked)
            out.append(f"    crl: issuer {_render_name(crl.issuer)} "
                       f"({count} entr{'y' if count == 1 else 'ies'})")
            if result.reason is FailureReason.REVOKED:
                for e in crl.revoked:
                    out.append(f"      entry: serial {e.serial} revoked "
                               f"{e.revocation_date:%Y%m%d%H%M%S}Z "
                               f"reason={e.reason.name}")
    if evidence.replies is not None:
        out.append(f"    online replies: {len(evidence.replies)}")


def render(message) -> str:
    """Lossless, stably-ordered text dump of any protocol object."""
    if isinstance(message, Certificate):
        return render_certificate(message)
    if isinstance(message, Crl):
        return render_crl(message)
    if isinstance(message, ValidationRequest):
        out = ["validation request:"]
        _render_info(message.info, out)
        out.append(f"  acceptable policy set: "
                   + (", ".join(str(o) for o in message.acceptable_set) or
                      "(blank: any policy)"))
        out.append(f"  explicit policy required: "
                   f"{message.explicit_policy_required}")
        out.append(f"  inhibit policy mapping: "
                   f"{message.inhibit_policy_mapping}")
        out.append(f"  signed: {message.signature is not None}")
        out.append(f"  targets: {len(message.targets)}")
        for i, fp in enumerate(message.target_fingerprints()):
            out.append(f"    target {i + 1}: {fp.hex()}")
        return "\n".join(out)
    if isinstance(message, DvcResponse):
        out = ["validation certificate (DVC):"]
        out.append(f"  serial: {message.info.serial_number}")
        out.append(f"  produced at: {message.info.produced_at:%Y%m%d%H%M%S}Z")
        out.append(f"  signed: {message.signature is not None}")
        out.append("  request information echo:")
        _render_info(message.info.echo, out)
        out.append(f"  results: {len(message.info.results)}")
        for i, result in enumerate(message.info.results):
            _render_result(i, result, out)
        return "\n".join(out)
    if isinstance(message, ErrorNotice):
        out = ["error notice:"]
        out.append(f"  code: {message.code.name}")
        out.append(f"  message: {_clean(message.message)}")
        out.append(f"  signed: {message.signature is not None}")
        if message.echo is not None:
            out.append("  request information echo:")
            _render_info(message.echo, out)
        return "\n".join(out)
    raise ProtocolError(f"cannot render {type(message).__name__}")
