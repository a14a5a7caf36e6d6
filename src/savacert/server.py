"""Certificate validation server: request admission, per-target
orchestration of discovery/validation, DVC signing, the built-in status
responder, and the HTTP front end.

Protocol-level failures travel as signed error notices in HTTP 200 bodies
so clients can authenticate them; only transport-level problems use HTTP
error codes.  Targets within one request are processed sequentially in
request order; distinct requests are served concurrently.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from . import crypto, der, protocol, revocation
from .certs import Name, StructureMismatch, parse_certificate
from .config import (ConfigError, one_of, parse_bool, parse_int, parse_list,
                     parse_name, parse_oid, parse_oids, parse_sections,
                     parse_text, parse_timestamp, parse_url, read, word_set)
from .der import DerError, Oid
from .policytree import CprRequirement, UnknownUsage, resolve_weak
from .protocol import (
    DvcInfo,
    ErrorCode,
    ErrorNotice,
    TargetResult,
    ValidationRequest,
    WantBack,
)
from .revocation import STATUS_CONTENT_TYPE
from .storage import Clock, Repository, parse_clock
from .validation import (
    REVOCATION_REGIMES,
    RevocationConfig,
    Verdict,
    validate_target,
)

log = logging.getLogger("savacert.server")

_WANT_BACK_NAMES = {
    "chain": WantBack.CHAIN,
    "crls": WantBack.CRLS,
    "onlineReplies": WantBack.ONLINE_REPLIES,
    "validationTime": WantBack.VALIDATION_TIME,
}


@dataclass(frozen=True)
class ValidationPolicy:
    """Named server-side constraint bundle selected by requestPolicy OID."""

    oid: Oid
    label: str
    anchor_labels: tuple[str, ...] = ("*",)  # "*" = every manifest anchor
    revocation: str = "crl"
    max_chain_length: int = 8
    clock_skew: int = 300
    require_signed_requests: bool = False
    allow_supplied_chains: bool = True
    default_want_backs: frozenset = frozenset()
    usage_table: dict = field(default_factory=dict)
    is_default: bool = False


@dataclass
class ServerConfig:
    name: Name
    key_path: Path
    cert_path: Path
    repository: Path
    serial_state: Path
    listen: tuple[str, int] = ("127.0.0.1", 0)
    clock: Clock = field(default_factory=Clock)
    status_responder: bool = True
    responder_url: str | None = None
    responder_cert_path: Path | None = None
    policies: dict = field(default_factory=dict)  # Oid -> ValidationPolicy

    @property
    def default_policy(self) -> ValidationPolicy:
        for policy in self.policies.values():
            if policy.is_default:
                return policy
        raise ConfigError("no default validation policy")


def parse_listen(text: str, *, where: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1",
            parse_int(port, where=f"{where} port", low=0, high=65535))


# [server] key -> reader; the path keys are relative to the config file
_SERVER_KEYS = {
    "name": parse_name, "listen": parse_listen, "clock": parse_clock,
    "key": parse_text, "certificate": parse_text, "repository": parse_text,
    "serial_state": parse_text, "responder_certificate": parse_text,
    "status_responder": parse_bool, "responder_url": parse_url,
}
_SERVER_PATHS = ("key", "certificate", "repository", "serial_state",
                 "responder_certificate")
_SERVER_FIELDS = {"key": "key_path", "certificate": "cert_path",
                  "responder_certificate": "responder_cert_path"}

_POLICY_KEYS = {
    "oid": parse_oid,
    "anchors": parse_list,
    "revocation": one_of(*REVOCATION_REGIMES),
    "max_chain_length": partial(parse_int, low=1),
    "clock_skew": partial(parse_int, low=0),
    "require_signed_requests": parse_bool,
    "allow_supplied_chains": parse_bool,
    "want_backs": word_set(_WANT_BACK_NAMES),
    "default": parse_bool,
    "usage": parse_oids,  # usage <name> = <policy OIDs>
}
_POLICY_FIELDS = {"anchors": "anchor_labels", "default": "is_default",
                  "want_backs": "default_want_backs"}


def _parse_policy(section) -> ValidationPolicy:
    label = section.arg or "default"
    fields: dict = {"usage_table": {}}
    for key, value in read(section, _POLICY_KEYS, f"policy {label}: "):
        if key.partition(" ")[0] != "usage":
            fields[_POLICY_FIELDS.get(key, key)] = value
            continue
        usage = key[len("usage"):].strip()
        if not usage or not value:
            raise ConfigError(f"policy {label}: usage entries need a name "
                              f"and a non-empty policy set")
        fields["usage_table"][usage] = value
    if "oid" not in fields:
        raise ConfigError(f"policy {label}: missing oid")
    fields["anchor_labels"] = fields.get("anchor_labels") or ("*",)
    return ValidationPolicy(label=label, **fields)


def parse_server_config(text: str, base_dir: "Path | str" = ".") -> ServerConfig:
    base = Path(base_dir)
    settings = None
    policies: dict = {}
    for section in parse_sections(text):
        if section.name == "server":
            # repeated sections merge as [client] ones do: the last line wins
            settings = {**(settings or {}),
                        **dict(read(section, _SERVER_KEYS, "[server] "))}
        elif section.name == "policy":
            policy = _parse_policy(section)
            if policy.oid in policies:
                raise ConfigError(f"duplicate policy oid {policy.oid}")
            policies[policy.oid] = policy
        else:
            raise ConfigError(f"unknown section [{section.name}]")
    if settings is None:
        raise ConfigError("missing [server] section")
    if not policies:
        raise ConfigError("at least one [policy] section is required")
    defaults = [p for p in policies.values() if p.is_default]
    if len(defaults) != 1:
        raise ConfigError("exactly one policy must set default = true")
    if "name" not in settings:
        raise ConfigError("[server] needs a name")
    if not {"key", "certificate", "repository"} <= settings.keys():
        raise ConfigError("[server] needs key, certificate and repository")
    settings.setdefault("serial_state", "serial.state")
    for key in _SERVER_PATHS:
        if key in settings:
            settings[key] = base / settings[key]
    return ServerConfig(policies=policies, **{_SERVER_FIELDS.get(k, k): v
                                              for k, v in settings.items()})


def load_server_config(path: "Path | str") -> ServerConfig:
    path = Path(path)
    return parse_server_config(path.read_text(), path.parent)


def policy_anchors(repository: Repository, policy: ValidationPolicy,
                   usage: str | None = None) -> frozenset:
    """Fingerprints of the policy's trust anchors in one repository
    snapshot, restricted to those trusted for ``usage`` when given."""
    entries = repository.anchors
    if policy.anchor_labels != ("*",):
        by_label = {e.label: e for e in entries}
        for label in policy.anchor_labels:
            if label not in by_label:
                raise ConfigError(f"policy {policy.label}: anchor "
                                  f"{label!r} not in manifest")
        entries = [by_label[label] for label in policy.anchor_labels]
    return frozenset(e.fingerprint for e in entries
                     if usage is None or e.trusted_for(usage))


class _SerialCounter:
    """Monotone response serial with a persisted high-water mark."""

    def __init__(self, state_path: Path):
        self._path = state_path
        self._lock = threading.Lock()
        self._value = 0
        if state_path.exists():
            text = state_path.read_text().strip()
            try:
                self._value = int(text) if text else 0
            except ValueError:
                raise ConfigError(f"serial state {state_path}: "
                                  f"{text[:20]!r} is not a serial") from None
        else:
            state_path.parent.mkdir(parents=True, exist_ok=True)

    def next(self) -> int:
        with self._lock:
            self._value += 1
            # os.replace swaps in the whole file; a torn write stays in .tmp
            partial = self._path.with_name(self._path.name + ".tmp")
            partial.write_text(f"{self._value}\n")
            os.replace(partial, self._path)
            return self._value


class AdmissionFailure(Exception):
    def __init__(self, code: ErrorCode, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class CvsServer:
    """Protocol logic, independent of the HTTP listener."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.key = crypto.decode_key(config.key_path.read_bytes())
        self.certificate = parse_certificate(config.cert_path.read_bytes())
        self.responder_cert = (
            parse_certificate(config.responder_cert_path.read_bytes())
            if config.responder_cert_path is not None else self.certificate)
        self.serials = _SerialCounter(config.serial_state)
        self.repository = Repository.load(config.repository)
        for policy in config.policies.values():
            if not policy_anchors(self.repository, policy):
                raise ConfigError(f"policy {policy.label}: empty anchor set")
            if policy.revocation in ("online", "crl-then-online") \
                    and not config.responder_url:
                raise ConfigError(f"policy {policy.label}: {policy.revocation}"
                                  f" revocation needs a responder_url")

    # -- admission ----------------------------------------------------------

    def _select_policy(self, request: ValidationRequest) -> ValidationPolicy:
        wanted = request.info.request_policy
        if wanted is None:
            return self.config.default_policy
        policy = self.config.policies.get(wanted)
        if policy is None:
            raise AdmissionFailure(ErrorCode.UNKNOWN_REQUEST_POLICY,
                                   f"no validation policy {wanted}")
        return policy

    def admit(self, request: ValidationRequest, now) -> ValidationPolicy:
        """Request-validity checks; raises AdmissionFailure with the error
        code reported to the client."""
        try:
            policy = self._select_policy(request)
            skew_policy = policy
        except AdmissionFailure:
            policy = None
            skew_policy = self.config.default_policy

        drift = abs((request.info.request_time - now).total_seconds())
        if drift > skew_policy.clock_skew:
            raise AdmissionFailure(
                ErrorCode.BAD_TIME,
                f"requestTime is {drift:.0f}s from server time "
                f"(allowed {skew_policy.clock_skew}s)")
        if request.info.dvcs_name is not None \
                and request.info.dvcs_name != self.config.name:
            raise AdmissionFailure(
                ErrorCode.WRONG_SERVER,
                f"request addressed to {request.info.dvcs_name}")
        if request.info.service != protocol.SERVICE_VPKC:
            raise AdmissionFailure(
                ErrorCode.UNSUPPORTED_SERVICE,
                f"service {request.info.service} not offered")
        if request.info.version != protocol.PROTOCOL_VERSION:
            raise AdmissionFailure(ErrorCode.MALFORMED_REQUEST,
                                   f"protocol version {request.info.version}")
        if policy is None:
            self._select_policy(request)  # re-raise unknownRequestPolicy
        for ext in request.info.extensions:
            if ext.critical and ext.oid not in protocol.REQUEST_EXTENSIONS:
                raise AdmissionFailure(
                    ErrorCode.MALFORMED_REQUEST,
                    f"unknown critical request extension {ext.oid}")
        if request.intended_usage is not None \
                and request.acceptable_set:
            raise AdmissionFailure(
                ErrorCode.MALFORMED_REQUEST,
                "weak and strict certificate-policy requirements are "
                "mutually exclusive")
        if policy.require_signed_requests:
            if request.signature is None:
                raise AdmissionFailure(ErrorCode.MALFORMED_REQUEST,
                                       "policy requires signed requests")
            if not protocol.verify_request_signature(request):
                raise AdmissionFailure(ErrorCode.MALFORMED_REQUEST,
                                       "request signature does not verify")
            if request.info.requester is not None and \
                    request.info.requester != request.signature.signer.subject:
                raise AdmissionFailure(ErrorCode.MALFORMED_REQUEST,
                                       "requester name does not match signer")
        return policy

    # -- validation ---------------------------------------------------------

    def _revocation_config(self, policy: ValidationPolicy) -> RevocationConfig:
        return RevocationConfig(
            regime=policy.revocation,
            responder_url=self.config.responder_url,
            responder_cert=self.responder_cert)

    def _evidence(self, verdict: Verdict, want) -> protocol.EvidenceOut | None:
        if not want:
            return None
        chain = None
        if WantBack.CHAIN in want and verdict.chain is not None:
            chain = (verdict.chain.anchor,) + verdict.chain.certs
        crls = tuple(verdict.crls) if WantBack.CRLS in want else None
        replies = (tuple(verdict.online_replies)
                   if WantBack.ONLINE_REPLIES in want else None)
        at = (verdict.validated_at
              if WantBack.VALIDATION_TIME in want else None)
        if chain is None and crls is None and replies is None and at is None:
            return None
        return protocol.EvidenceOut(chain, crls, replies, at)

    def handle(self, request: ValidationRequest, policy: ValidationPolicy,
               now) -> DvcInfo:
        """Validate every target sequentially, in request order."""
        repository = self.repository
        at = request.time_override or now
        usage = request.intended_usage
        acceptable = (request.acceptable_set if usage is None
                      else resolve_weak(usage, policy.usage_table))
        cpr = CprRequirement.strict(acceptable,
                                    request.explicit_policy_required,
                                    request.inhibit_policy_mapping)
        anchors = policy_anchors(repository, policy, usage)
        if usage is not None and not anchors:
            raise UnknownUsage(usage)

        targets = request.targets  # parse_request yields Certificates
        # supplied certificates are hints for discovery (RFC 5055 3.2.5)
        extras = request.supplied if policy.allow_supplied_chains else ()
        graph = repository.graph(anchors).with_extra([*targets, *extras])
        revocation_config = self._revocation_config(policy)
        want = request.want_backs
        if want is None:
            want = policy.default_want_backs

        results = []
        checked: dict = {}  # edge memo shared by this request's targets
        for target in targets:
            verdict = validate_target(
                graph, target, at, cpr, revocation_config,
                repository.crls_for, policy.max_chain_length, checked,
                repository.signatures)
            results.append(TargetResult(
                target_fingerprint=protocol.target_fingerprint(target),
                status=verdict.status,
                authorized_set=verdict.authorized_set,
                mappings_applied=verdict.mappings_applied,
                reason=verdict.reason,
                failing_index=verdict.failing_index,
                unknown_cause=verdict.unknown_cause,
                evidence=self._evidence(verdict, want)))
        return DvcInfo(serial_number=self.serials.next(), produced_at=now,
                       echo=request.info, results=tuple(results))

    # -- whole transactions -------------------------------------------------

    def _notice(self, code: ErrorCode, message: str, echo) -> bytes:
        notice = ErrorNotice(code, message, echo)
        return protocol.sign_error_notice(notice, self.certificate, self.key)

    def handle_dvcs_bytes(self, body: bytes) -> bytes:
        """One full transaction; always returns a response body."""
        started = time.monotonic()
        now = self.config.clock.now()
        echo = None
        try:
            request = protocol.parse_request(body, self.repository.index.nodes)
        except (DerError, StructureMismatch, protocol.ProtocolError,
                ValueError, OverflowError) as exc:
            log.info("dvcs malformed request: %s", exc)
            return self._notice(ErrorCode.MALFORMED_REQUEST,
                                f"unparseable request: {exc}", None)
        echo = request.info
        try:
            policy = self.admit(request, now)
            info = self.handle(request, policy, now)
        except AdmissionFailure as exc:
            log.info("dvcs rejected nonce=%d code=%s: %s",
                     request.info.nonce, exc.code.name, exc.message)
            return self._notice(exc.code, exc.message, echo)
        except UnknownUsage as exc:
            log.info("dvcs rejected nonce=%d code=UNKNOWN_USAGE",
                     request.info.nonce)
            return self._notice(ErrorCode.UNKNOWN_USAGE, str(exc), echo)
        except Exception:  # never hang or leak a stack to the peer
            log.exception("dvcs internal error nonce=%d", request.info.nonce)
            return self._notice(ErrorCode.INTERNAL_ERROR,
                                "internal server error", echo)
        verdicts = ",".join(r.status.value for r in info.results)
        log.info("dvcs nonce=%d policy=%s targets=%d verdicts=%s serial=%d "
                 "duration_ms=%.1f", request.info.nonce, policy.label,
                 len(info.results), verdicts, info.serial_number,
                 (time.monotonic() - started) * 1000)
        return protocol.sign_dvc(info, self.certificate, self.key)

    def handle_status_bytes(self, body: bytes) -> bytes:
        now = self.config.clock.now()
        digest, serial, _nonce = revocation.parse_status_query(body)
        status = revocation.responder_status(
            self.repository.crls_by_digest.get, digest, serial, now)
        return revocation.build_status_reply(body, status, now, self.key)


# ---------------------------------------------------------------------------
# HTTP front end

# the largest body der.decode can accept: one tag octet, at most four length
# octets, and the per-element content bound
MAX_BODY = 1 + 4 + der.MAX_ELEMENT


class _Handler(BaseHTTPRequestHandler):
    server_version = "savacert-cvs/0.1"
    protocol_version = "HTTP/1.1"
    # seconds a socket read or write may stall, so a body shorter than its
    # Content-Length cannot hold a handler thread; http.server turns the
    # TimeoutError into a closed connection
    timeout = 30

    def _send(self, status: int, content_type: str, body: bytes,
              close: bool = False) -> None:
        """Write the whole response in one write.  Headers flushed ahead of
        the body would leave the body, with Nagle on, waiting for the peer's
        delayed ACK on a kept-alive connection (RFC 896, RFC 1122
        4.2.3.2)."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        if self.request_version != "HTTP/0.9":  # 0.9 replies carry no head
            body = b"".join([*self._headers_buffer, b"\r\n", body])
            self._headers_buffer = []
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802  (http.server API)
        if self.path == "/health":
            self._send(200, "text/plain", b"ok\n")
        else:
            self._send(404, "text/plain", b"not found\n")

    def do_POST(self):  # noqa: N802
        # a rejected body is never read, so the connection cannot be reused
        text = self.headers.get("Content-Length", "0").strip()
        if not (text.isascii() and text.isdigit()):
            self._send(400, "text/plain", b"bad Content-Length\n", close=True)
            return
        length = int(text)
        if length > MAX_BODY:
            self._send(413, "text/plain", b"body too large\n", close=True)
            return
        body = self.rfile.read(length)
        core: CvsServer = self.server.core  # type: ignore[attr-defined]
        if self.path == "/dvcs":
            self._send(200, protocol.DVCS_CONTENT_TYPE,
                       core.handle_dvcs_bytes(body))
        elif self.path == "/status" and core.config.status_responder:
            try:
                reply = core.handle_status_bytes(body)
            except (DerError, StructureMismatch, ValueError,
                    OverflowError) as exc:
                self._send(400, "text/plain", f"bad query: {exc}\n".encode())
                return
            except Exception:  # never leave a kept-alive client mid-reply
                log.exception("status internal error")
                self._send(500, "text/plain", b"internal server error\n",
                           close=True)
                return
            self._send(200, STATUS_CONTENT_TYPE, reply)
        else:
            self._send(404, "text/plain", b"not found\n")

    def send_error(self, code, message=None, explain=None):
        """http.server's own error replies (501 for an unknown method, 400
        for a malformed request line), as plain text in one write."""
        text = message or self.responses.get(code, ("error",))[0]
        self._send(code, "text/plain", f"{text}\n".encode(), close=True)

    def log_message(self, format, *args):  # route to logging, not stderr
        log.debug("http %s " + format, self.address_string(), *args)


class CvsHttpServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, core: CvsServer):
        super().__init__(core.config.listen, _Handler)
        self.core = core

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(config: ServerConfig) -> int:
    core = CvsServer(config)
    httpd = CvsHttpServer(core)
    log.info("listening on %s repository=%s policies=%d", httpd.url,
             config.repository, len(config.policies))

    def _stop(signum, frame):
        log.info("signal %d: shutting down", signum)
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvs-server", description="certificate validation server")
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--listen", help="host:port override")
    parser.add_argument("--clock-fixed", metavar="TIME",
                        help="freeze the server clock (YYYYMMDDHHMMSSZ)")
    parser.add_argument("--repository", type=Path, help="repository override")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        config = load_server_config(args.config)
        if args.listen is not None:
            config.listen = parse_listen(args.listen, where="--listen")
        if args.clock_fixed is not None:
            config.clock = Clock(fixed=parse_timestamp(args.clock_fixed,
                                                        where="--clock-fixed"))
        if args.repository is not None:
            config.repository = args.repository
        return serve(config)
    except (ConfigError, OSError, DerError, StructureMismatch,
            crypto.CryptoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
