"""Certificate status determination: CRL lookup and the online status
protocol (signed, nonce-bound query/reply over ``POST /status``).

The online reply embeds the query byte-exactly and is signed by the
responder key, so a status verdict always carries independently
re-verifiable evidence (the CRL or the raw signed reply).  Queries go over
pooled HTTP/1.1 keep-alive connections (RFC 9112 section 9).
"""

from __future__ import annotations

import datetime
import enum
import http.client
import secrets
import threading
import urllib.parse
from dataclasses import dataclass

from . import crypto
from .certs import Certificate, Crl, Name, ReasonCode, name_value
from .der import (
    BitString,
    DecodeError,
    GeneralizedTime,
    Integer,
    OctetString,
    Oid,
    Raw,
    Sequence,
    Utf8String,
    decode_exact,
    encode,
    sequence_of,
)

STATUS_CONTENT_TYPE = "application/savacert-status"

CAUSE_STALE_CRL = "stale-crl"
CAUSE_CRL_NOT_YET_VALID = "crl-not-yet-valid"
CAUSE_FUTURE_REVOCATION = "revocation-date-in-future"
CAUSE_UNKNOWN_ISSUER = "unknown-issuer"
CAUSE_NO_CRL = "no-crl"


class StatusError(Exception):
    pass


class IssuerMismatch(StatusError):
    pass


class Transport(StatusError):
    pass


class BadResponderSignature(StatusError):
    pass


class NonceMismatch(StatusError):
    pass


class StatusValue(enum.IntEnum):
    GOOD = 0
    REVOKED = 1
    UNDETERMINED = 2


@dataclass(frozen=True)
class CertStatus:
    value: StatusValue
    source: str  # "crl" | "online"
    evidence: object  # Crl for CRL checks, raw signed reply bytes online
    revocation_date: datetime.datetime | None = None
    reason: ReasonCode | None = None
    cause: str | None = None

    @property
    def is_good(self) -> bool:
        return self.value is StatusValue.GOOD


def _status_against_crl(crl: Crl, serial: int,
                        at: datetime.datetime) -> tuple:
    """(value, date, reason, cause) shared by CRL checks and the responder."""
    entry = crl.entry_for(serial)
    if entry is not None and entry.revocation_date <= at:
        return StatusValue.REVOKED, entry.revocation_date, entry.reason, None
    if at > crl.next_update:
        return StatusValue.UNDETERMINED, None, None, CAUSE_STALE_CRL
    if at < crl.this_update:
        return StatusValue.UNDETERMINED, None, None, CAUSE_CRL_NOT_YET_VALID
    if entry is not None:
        return StatusValue.UNDETERMINED, None, None, CAUSE_FUTURE_REVOCATION
    return StatusValue.GOOD, None, None, None


def crl_for_time(crls: list[Crl], serial: int, at: datetime.datetime) -> Crl:
    """From non-empty ``crls``, freshest first: the freshest that revokes
    ``serial`` by ``at``, else the freshest whose window covers ``at``, else
    the freshest."""
    revoking = [c for c in crls if (e := c.entry_for(serial)) is not None
                and e.revocation_date <= at]
    covering = [c for c in crls if c.this_update <= at <= c.next_update]
    return (revoking + covering + crls)[0]


def check_crl(cert: Certificate, crl: Crl,
              at: datetime.datetime) -> CertStatus:
    """Status of ``cert`` per a CRL whose signature the caller has already
    verified against the issuing CA key."""
    if crl.issuer != cert.issuer:
        raise IssuerMismatch(f"CRL issuer {crl.issuer} is not {cert.issuer}")
    value, date, reason, cause = _status_against_crl(crl, cert.serial, at)
    return CertStatus(value, "crl", crl, date, reason, cause)


# ---------------------------------------------------------------------------
# online status protocol

def issuer_digest(issuer: Name) -> bytes:
    return crypto.digest(encode(name_value(issuer)))


def build_status_query(issuer: Name, serial: int,
                       nonce: int | None = None) -> tuple[bytes, int]:
    if nonce is None:
        nonce = secrets.randbits(64)
    query = Sequence([OctetString(issuer_digest(issuer)), Integer(serial),
                      Integer(nonce)])
    return encode(query), nonce


def parse_status_query(data: bytes) -> tuple[bytes, int, int]:
    query = sequence_of(decode_exact(data), OctetString, Integer, Integer)
    if query is None:
        raise DecodeError("bad status query shape")
    return tuple(e.value for e in query)


def _status_body(status: CertStatus) -> Sequence:
    elements = [Integer(int(status.value))]
    if status.value is StatusValue.REVOKED:
        elements.append(GeneralizedTime(status.revocation_date))
        elements.append(Integer(int(status.reason)))
    elif status.value is StatusValue.UNDETERMINED and status.cause:
        elements.append(Utf8String(status.cause))
    return Sequence(elements)


def _parse_status_body(value) -> tuple:
    if not (isinstance(value, Sequence) and value.elements
            and isinstance(value.elements[0], Integer)):
        raise DecodeError("bad status body")
    code = value.elements[0].value
    rest = value.elements[1:]
    if code == StatusValue.REVOKED:
        if not (len(rest) == 2 and isinstance(rest[0], GeneralizedTime)
                and isinstance(rest[1], Integer)):
            raise DecodeError("revoked status needs date and reason")
        try:
            reason = ReasonCode(rest[1].value)
        except ValueError:
            raise DecodeError(
                f"unknown reason code {rest[1].value}") from None
        return (StatusValue.REVOKED, rest[0].value, reason, None)
    if code == StatusValue.UNDETERMINED:
        if len(rest) > 1 or (rest and not isinstance(rest[0], Utf8String)):
            raise DecodeError("bad undetermined status")
        return (StatusValue.UNDETERMINED, None, None,
                rest[0].value if rest else None)
    if code == StatusValue.GOOD and not rest:
        return (StatusValue.GOOD, None, None, None)
    raise DecodeError(f"bad status code {code}")


def build_status_reply(query_der: bytes, status: CertStatus,
                       produced_at: datetime.datetime,
                       responder_key: crypto.KeyPair) -> bytes:
    """Signed reply echoing the (already parsed) query byte-exactly."""
    signed_part = [Raw(query_der), _status_body(status),
                   GeneralizedTime(produced_at), crypto.ALGORITHM]
    signature = crypto.sign(responder_key, encode(Sequence(signed_part)))
    return encode(Sequence(signed_part + [BitString(signature, 0)]))


def verify_status_reply(reply_der: bytes, query_der: bytes,
                        responder_cert: Certificate) -> CertStatus:
    """Check signature, echo and nonce; map the reply onto a CertStatus
    carrying the raw reply as evidence."""
    reply = sequence_of(decode_exact(reply_der), Sequence, Sequence,
                        GeneralizedTime, Oid, BitString)
    if reply is None:
        raise DecodeError("bad status reply shape")
    if not crypto.verify(responder_cert.public_key, reply[3],
                         encode(Sequence(reply[:4])), reply[4].value):
        raise BadResponderSignature("status reply signature does not verify")
    echoed = reply[0].der  # the query's bytes as received
    if echoed != query_der:
        _, _, sent_nonce = parse_status_query(query_der)
        try:
            _, _, got_nonce = parse_status_query(echoed)
        except DecodeError:
            got_nonce = None
        if got_nonce != sent_nonce:
            raise NonceMismatch(f"responder echoed nonce {got_nonce}, "
                                f"sent {sent_nonce}")
        raise StatusError("status reply query echo mismatch")
    status_value, date, reason, cause = _parse_status_body(reply[1])
    return CertStatus(status_value, "online", reply_der, date, reason, cause)


# idle keep-alive connections kept per responder (RFC 9112 section 9); a
# connection serves one query at a time
MAX_IDLE_PER_RESPONDER = 4
_CONNECTION_TYPES = {"http": http.client.HTTPConnection,
                     "https": http.client.HTTPSConnection}
_idle: dict[tuple, list] = {}  # (scheme, host, port) -> idle connections
_idle_lock = threading.Lock()


def _post(connection: http.client.HTTPConnection, target: str,
          query: bytes) -> http.client.HTTPResponse:
    connection.request("POST", target, query,
                       {"Content-Type": STATUS_CONTENT_TYPE})
    return connection.getresponse()


def _exchange(url: str, query: bytes, timeout: float
              ) -> tuple[tuple, http.client.HTTPConnection, bytes]:
    """POST ``query`` over an idle pooled connection, else a new one, and
    return the pool key, the connection and the body of a 200 reply.  A
    pooled connection that fails before any reply byte (the responder
    closed it while idle) is replaced once by a new one: the query only
    reads, so sending it twice is harmless."""
    try:
        parts = urllib.parse.urlsplit(url)
        key = (parts.scheme, parts.hostname, parts.port)  # port may raise
        if parts.scheme not in _CONNECTION_TYPES or not parts.hostname:
            raise ValueError("not an http(s) URL")
    except ValueError as exc:
        raise Transport(f"status query to {url} failed: {exc}") from exc
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    with _idle_lock:
        idle = _idle.get(key)
        connection = idle.pop() if idle else None
    response = None
    try:
        if connection is not None:
            connection.sock.settimeout(timeout)
            try:
                response = _post(connection, target, query)
            except (ConnectionResetError, BrokenPipeError):
                # closed while idle; RemoteDisconnected is a reset too
                connection.close()
        if response is None:
            connection = _CONNECTION_TYPES[parts.scheme](
                parts.hostname, parts.port, timeout=timeout)
            response = _post(connection, target, query)
        body = response.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        if connection is not None:
            connection.close()
        raise Transport(f"status query to {url} failed: {exc}") from exc
    if response.status != 200:
        connection.close()
        raise Transport(f"status query to {url} answered HTTP "
                        f"{response.status}")
    return key, connection, body


def check_online(cert: Certificate, responder_url: str,
                 responder_cert: Certificate,
                 nonce: int | None = None, timeout: float = 10.0) -> CertStatus:
    """Ask the online responder for the certificate's status."""
    query_der, _ = build_status_query(cert.issuer, cert.serial, nonce)
    key, connection, body = _exchange(responder_url, query_der, timeout)
    try:
        status = verify_status_reply(body, query_der, responder_cert)
    except DecodeError as exc:
        connection.close()
        raise Transport(f"unparseable status reply: {exc}") from exc
    except BaseException:
        connection.close()
        raise
    # http.client has already closed a connection whose reply closes it
    with _idle_lock:
        idle = _idle.setdefault(key, [])
        if connection.sock is not None and len(idle) < MAX_IDLE_PER_RESPONDER:
            idle.append(connection)
            return status
    connection.close()
    return status


def responder_status(crls_for_digest, digest: bytes, serial: int,
                     at: datetime.datetime) -> CertStatus:
    """Status as served by the built-in responder, which mirrors a CRL
    directory; ``crls_for_digest`` maps an issuer-name digest to its CRLs."""
    crls = crls_for_digest(digest)
    if not crls:
        return CertStatus(StatusValue.UNDETERMINED, "online", None,
                          cause=CAUSE_UNKNOWN_ISSUER)
    value, date, reason, cause = _status_against_crl(
        crl_for_time(crls, serial, at), serial, at)
    return CertStatus(value, "online", None, date, reason, cause)
