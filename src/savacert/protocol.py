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

    def extension(self, oid: Oid) -> RequestExtension | None:
        for ext in self.extensions:
            if ext.oid == oid:
                return ext
        return None

    def _payload(self, oid: Oid, kind, complaint: str):
        """The extension's decoded value, or None when it is absent."""
        ext = self.extension(oid)
        if ext is None:
            return None
        value = decode_exact(ext.value)
        if not isinstance(value, kind):
            raise ProtocolError(complaint)
        return value

    def intended_usage(self) -> str | None:
        value = self._payload(oids.REQ_INTENDED_USAGE, Utf8String,
                              "intendedUsage must be a UTF8String")
        return None if value is None else value.value

    def want_backs(self) -> frozenset | None:
        """None when the extension is absent (server default applies)."""
        value = self._payload(oids.REQ_WANT_BACKS, BitString,
                              "wantBacks must be a BIT STRING")
        if value is None:
            return None
        try:
            return frozenset(WantBack(b) for b in bit_positions(value))
        except ValueError as exc:
            raise ProtocolError(f"unknown want-back bit: {exc}") from None

    def time_override(self) -> datetime.datetime | None:
        value = self._payload(oids.REQ_TIME_OVERRIDE, GeneralizedTime,
                              "validationTimeOverride must be a time")
        return None if value is None else value.value


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
    supplied: tuple[Certificate, ...] = ()  # the suppliedChains extension
    # the other extension payloads, decoded once; see RequestInformation
    intended_usage: str | None = None
    want_backs: frozenset | None = None
    time_override: datetime.datetime | None = None

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

def _optional(elements, start, number):
    """Next element when it is [number] EXPLICIT, else None."""
    if start < len(elements):
        item = elements[start]
        if isinstance(item, ContextTagged) and item.explicit \
                and item.number == number:
            return item.inner
    return None


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
    at = 4
    requester = _optional(e, at, 0)
    if requester is not None:
        requester = parse_name_value(requester)
        at += 1
    request_policy = _optional(e, at, 1)
    if request_policy is not None:
        if not isinstance(request_policy, Oid):
            raise ProtocolError("requestPolicy must be an OID")
        at += 1
    dvcs_name = _optional(e, at, 2)
    if dvcs_name is not None:
        dvcs_name = parse_name_value(dvcs_name)
        at += 1
    extensions_value = _optional(e, at, 3)
    extensions: tuple[RequestExtension, ...] = ()
    if extensions_value is not None:
        at += 1
        if not isinstance(extensions_value, Sequence):
            raise ProtocolError("bad request extensions")
        parsed = []
        for item in extensions_value.elements:
            if not (isinstance(item, Sequence) and len(item.elements) == 3
                    and isinstance(item.elements[0], Oid)
                    and isinstance(item.elements[1], Boolean)
                    and isinstance(item.elements[2], OctetString)):
                raise ProtocolError("bad request extension entry")
            parsed.append(RequestExtension(
                item.elements[0], item.elements[1].value,
                item.elements[2].value))
        extensions = tuple(parsed)
    if at != len(e):
        raise ProtocolError("unexpected fields in requestInformation")
    return RequestInformation(
        nonce=e[2].value, request_time=e[3].value, version=e[0].value,
        service=e[1].value, requester=requester,
        request_policy=request_policy, dvcs_name=dvcs_name,
        extensions=extensions)


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
    if not (isinstance(value, ContextTagged) and value.explicit):
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


def parse_request(data: bytes, stored=None) -> ValidationRequest:
    """``stored`` (a snapshot's fingerprint index) supplies every target or
    supplied certificate it holds; see certificate_from_value."""
    kind, value = _open_envelope(data)
    if kind != _KIND_REQUEST:
        raise ProtocolError(f"expected a request, got message kind {kind}")
    if not (isinstance(value, Sequence) and len(value.elements) in (1, 2)):
        raise ProtocolError("bad request envelope")
    body = value.elements[0]
    if not (isinstance(body, Sequence) and len(body.elements) == 5):
        raise ProtocolError("bad request body shape")
    info = parse_info_value(body.elements[0])
    targets_value = body.elements[1]
    if not isinstance(targets_value, Sequence) or not targets_value.elements:
        raise ProtocolError("a request carries at least one target")
    targets = tuple(certificate_from_value(t, stored)
                    for t in targets_value.elements)
    acceptable = _oid_list(body.elements[2], "acceptablePolicySet")
    if not (isinstance(body.elements[3], Boolean)
            and isinstance(body.elements[4], Boolean)):
        raise ProtocolError("bad CPR flags")
    signature = None
    if len(value.elements) == 2:
        wrapper = value.elements[1]
        if not (isinstance(wrapper, ContextTagged) and wrapper.explicit
                and wrapper.number == 0
                and isinstance(wrapper.inner, Sequence)
                and len(wrapper.inner.elements) == 3
                and isinstance(wrapper.inner.elements[1], Oid)
                and isinstance(wrapper.inner.elements[2], BitString)):
            raise ProtocolError("bad request signature")
        signature = RequestSignature(
            certificate_from_value(wrapper.inner.elements[0], stored),
            wrapper.inner.elements[1],
            wrapper.inner.elements[2].value)
    supplied = info._payload(oids.REQ_SUPPLIED_CHAINS, Sequence,
                             "suppliedChains must be a SEQUENCE")
    supplied = () if supplied is None else tuple(
        certificate_from_value(c, stored) for c in supplied.elements)
    request = ValidationRequest(
        info=info, targets=targets, acceptable_set=acceptable,
        explicit_policy_required=body.elements[3].value,
        inhibit_policy_mapping=body.elements[4].value, signature=signature,
        supplied=supplied, intended_usage=info.intended_usage(),
        want_backs=info.want_backs(), time_override=info.time_override())
    return request


def verify_request_signature(request: ValidationRequest) -> bool:
    if request.signature is None:
        return False
    sig = request.signature
    return crypto.verify(sig.signer.public_key, sig.algorithm,
                         encode(_request_body(request)), sig.value)


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


def _parse_evidence(value: DerValue) -> EvidenceOut:
    if not isinstance(value, Sequence):
        raise ProtocolError("bad evidence shape")
    chain = crls = replies = validation_time = None
    last = -1  # entries come in ascending tag order, at most one of each
    for item in value.elements:
        if not (isinstance(item, ContextTagged) and item.explicit
                and item.number > last):
            raise ProtocolError("bad evidence entry")
        last = item.number
        if item.number == 0 and isinstance(item.inner, Sequence):
            chain = tuple(certificate_from_value(c)
                          for c in item.inner.elements)
        elif item.number == 1 and isinstance(item.inner, Sequence):
            crls = tuple(crl_from_value(c) for c in item.inner.elements)
        elif item.number == 2 and isinstance(item.inner, Sequence) and all(
                isinstance(r, OctetString) for r in item.inner.elements):
            replies = tuple(r.value for r in item.inner.elements)
        elif item.number == 3 and isinstance(item.inner, GeneralizedTime):
            validation_time = item.inner.value
        else:
            raise ProtocolError("bad evidence entry")
    return EvidenceOut(chain, crls, replies, validation_time)


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
        if not (isinstance(item, Sequence) and len(item.elements) == 2
                and all(isinstance(o, Oid) for o in item.elements)):
            raise ProtocolError("bad mapping entry")
        mappings.append((item.elements[0], item.elements[1]))
    reason = failing_index = unknown_cause = evidence = None
    last = -1  # fields come in ascending tag order, at most one of each
    for item in e[4:]:
        if not (isinstance(item, ContextTagged) and item.explicit
                and item.number > last):
            raise ProtocolError("bad target result field")
        last = item.number
        if item.number == 0 and isinstance(item.inner, Integer):
            reason = FailureReason(item.inner.value)
        elif item.number == 1 and isinstance(item.inner, Integer):
            failing_index = item.inner.value
        elif item.number == 2 and isinstance(item.inner, Utf8String):
            unknown_cause = item.inner.value
        elif item.number == 3:
            evidence = _parse_evidence(item.inner)
        else:
            raise ProtocolError("bad target result field")
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
    if not (isinstance(value, Sequence) and len(value.elements) == 5
            and isinstance(value.elements[0], Integer)
            and isinstance(value.elements[1], Integer)
            and isinstance(value.elements[2], GeneralizedTime)
            and isinstance(value.elements[4], Sequence)):
        raise ProtocolError("bad DVC info shape")
    return DvcInfo(
        serial_number=value.elements[1].value,
        produced_at=value.elements[2].value,
        echo=parse_info_value(value.elements[3]),
        results=tuple(_parse_result(r) for r in value.elements[4].elements),
        version=value.elements[0].value)


def _signed_envelope(kind: int, info: DerValue,
                     signer: Certificate | None = None,
                     key: crypto.KeyPair | None = None) -> bytes:
    """The message, signed by ``key`` with ``signer`` attached when given."""
    info_der = encode(info)
    parts: list[DerValue] = [Raw(info_der)]
    if key is not None:
        signature = crypto.sign(key, info_der)
        parts += [ContextTagged(0, Raw(signer.der)),
                  ContextTagged(1, Sequence([crypto.ALGORITHM,
                                             BitString(signature, 0)]))]
    return encode(ContextTagged(kind, Sequence(parts)))


def sign_dvc(info: DvcInfo, signer: Certificate,
             key: crypto.KeyPair) -> bytes:
    return _signed_envelope(_KIND_DVC, dvc_info_value(info), signer, key)


def unsigned_dvc(info: DvcInfo) -> bytes:
    return _signed_envelope(_KIND_DVC, dvc_info_value(info))


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


def _parse_signed_tail(elements, start):
    signer = signature = None
    at = start
    wrapped = _optional(elements, at, 0)
    if wrapped is not None:
        signer = certificate_from_value(wrapped)
        at += 1
    wrapped = _optional(elements, at, 1)
    if wrapped is not None:
        if not (isinstance(wrapped, Sequence) and len(wrapped.elements) == 2
                and isinstance(wrapped.elements[0], Oid)
                and isinstance(wrapped.elements[1], BitString)):
            raise ProtocolError("bad response signature")
        signature = (wrapped.elements[0], wrapped.elements[1].value)
        at += 1
    if at != len(elements):
        raise ProtocolError("unexpected fields after signature")
    return signer, signature


def parse_response(data: bytes):
    """Parse a server response into a DvcResponse or ErrorNotice without
    verifying anything; see verify_response."""
    kind, value = _open_envelope(data)
    if not isinstance(value, Sequence) or not value.elements:
        raise ProtocolError("bad response envelope")
    if kind == _KIND_DVC:
        info = _parse_dvc_info(value.elements[0])
        signer, signature = _parse_signed_tail(value.elements, 1)
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
        echo = None
        if len(body.elements) == 3:
            wrapped = _optional(body.elements, 2, 0)
            if wrapped is None:
                raise ProtocolError("bad error notice echo")
            echo = parse_info_value(wrapped)
        signer, signature = _parse_signed_tail(value.elements, 1)
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
