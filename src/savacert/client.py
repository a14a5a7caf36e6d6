"""Relying-party CLI: builds validation requests from a profile, talks to
the server, verifies the response envelope (echo, nonce, signature, signer
certificate), and renders per-target reports.

Exit codes: 0 all targets valid, 2 any invalid, 3 any unknown, 1 transport
or protocol failure (including verification errors on the response and
results that do not answer the requested targets in order).
"""

from __future__ import annotations

import argparse
import datetime
import sys
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from . import config, crypto, protocol
from .certs import (
    Name,
    StructureMismatch,
    parse_certificate,
    parse_crl,
)
from .der import DerError, Oid
from .policytree import CprRequirement
from .protocol import DvcResponse, ErrorNotice, ResponseTrust, WantBack
from .storage import Clock, parse_clock
from .validation import VerdictStatus

_WANT_WORDS = {
    "chain": WantBack.CHAIN,
    "crls": WantBack.CRLS,
    "replies": WantBack.ONLINE_REPLIES,
    "time": WantBack.VALIDATION_TIME,
}


class ProfileError(Exception):
    pass


@dataclass
class ClientProfile:
    server_url: str = "http://127.0.0.1:8450"
    server_name: Name | None = None
    acceptable_policies: tuple[Oid, ...] = ()
    explicit_policy_required: bool = False
    inhibit_policy_mapping: bool = False
    weak_usage: str | None = None  # "default" behaves like no usage at all
    request_policy: Oid | None = None
    want_backs: frozenset | None = None  # None: leave to the server default
    sign_request: bool = False
    key_path: Path | None = None
    cert_path: Path | None = None
    trust_unsigned: bool = False
    server_cert_check: str = "none"  # pinned | online | none
    pinned_fingerprint: bytes | None = None
    responder_cert_path: Path | None = None
    store_evidence: Path | None = None
    supply: tuple[Path, ...] = ()
    thin: bool = False
    time_override: datetime.datetime | None = None
    clock: Clock = field(default_factory=Clock)

    def check(self) -> None:
        if self.sign_request and self.key_path is None:
            raise ProfileError("sign_request needs a key path")
        if self.sign_request and self.cert_path is None:
            raise ProfileError("sign_request needs a signer certificate")
        if self.server_cert_check == "pinned" and not self.pinned_fingerprint:
            raise ProfileError("pinned check needs pinned_fingerprint")
        if self.server_cert_check not in ("pinned", "online", "none"):
            raise ProfileError(f"bad server_cert_check "
                               f"{self.server_cert_check!r}")
        if self.weak_usage and self.acceptable_policies \
                and self.weak_usage.lower() != "default":
            raise ProfileError("weak usage and an acceptable policy set are "
                               "mutually exclusive")

    def cpr(self) -> CprRequirement:
        usage = self.weak_usage
        if usage and usage.lower() != "default":
            return CprRequirement.weak(usage)
        return CprRequirement.strict(self.acceptable_policies,
                                     self.explicit_policy_required,
                                     self.inhibit_policy_mapping)

    def effective_cert_check(self) -> str:
        # thin clients keep only the pinned-fingerprint check
        if self.thin and self.server_cert_check == "online":
            return "pinned" if self.pinned_fingerprint else "none"
        return self.server_cert_check


# [client] key -> reader; the path keys are relative to the profile file
_PROFILE_KEYS = {
    "server_url": config.parse_url,
    "server_name": config.parse_name,
    "acceptable_policies": config.parse_oids,
    "explicit_policy_required": config.parse_bool,
    "inhibit_policy_mapping": config.parse_bool,
    "weak_usage": config.parse_text,
    "request_policy": config.parse_oid,
    "want": config.word_set(_WANT_WORDS),
    "sign_request": config.parse_bool,
    "key": config.parse_text,
    "certificate": config.parse_text,
    "trust_unsigned": config.parse_bool,
    "server_cert_check": config.one_of("pinned", "online", "none"),
    "pinned_fingerprint": config.parse_fingerprint,
    "responder_certificate": config.parse_text,
    "store_evidence": config.parse_text,
    "supply": config.list_of(config.parse_text, ";"),
    "thin": config.parse_bool,
    "time_override": config.parse_timestamp,
    "clock": parse_clock,
}
_PATH_KEYS = ("key", "certificate", "responder_certificate", "store_evidence")
_PROFILE_FIELDS = {"want": "want_backs", "key": "key_path",
                   "certificate": "cert_path",
                   "responder_certificate": "responder_cert_path"}
# validate's flags (argparse dest) -> profile key; a switch stores "true"
_FLAG_KEYS = {
    "server_url": "server_url", "server_name": "server_name",
    "strict_policy": "acceptable_policies", "weak_usage": "weak_usage",
    "explicit_policy": "explicit_policy_required",
    "inhibit_mapping": "inhibit_policy_mapping",
    "request_policy": "request_policy", "want": "want", "sign": "sign_request",
    "key": "key", "certificate": "certificate", "thin": "thin",
    "trust_unsigned": "trust_unsigned", "time_override": "time_override",
    "server_cert_check": "server_cert_check",
    "responder_certificate": "responder_certificate",
    "store_evidence": "store_evidence",
}


def _assign(profile: ClientProfile, key: str, value, base: Path) -> None:
    if key in _PATH_KEYS:
        value = base / value
    elif key == "supply":
        value = tuple(base / path for path in value)
    setattr(profile, _PROFILE_FIELDS.get(key, key), value)


def parse_profile(text: str, base_dir: "Path | str" = ".") -> ClientProfile:
    profile = ClientProfile()
    for section in config.parse_sections(text):
        if section.name != "client":
            raise config.ConfigError(f"unknown section [{section.name}]")
        for key, value in config.read(section, _PROFILE_KEYS):
            _assign(profile, key, value, Path(base_dir))
    return profile


def _post(url: str, body: bytes, content_type: str, timeout: float) -> bytes:
    request = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": content_type})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.read()


def _trust(profile: ClientProfile) -> ResponseTrust:
    responder_cert = None
    check = profile.effective_cert_check()
    if check == "online":
        if profile.responder_cert_path is None:
            raise ProfileError("online server_cert_check needs "
                               "responder_certificate")
        responder_cert = parse_certificate(
            profile.responder_cert_path.read_bytes())
    return ResponseTrust(
        trust_unsigned=profile.trust_unsigned,
        server_cert_check=check,
        pinned_fingerprint=profile.pinned_fingerprint,
        responder_url=profile.server_url.rstrip("/") + "/status",
        responder_cert=responder_cert)


def build_client_request(profile: ClientProfile, targets, supplied=(),
                         signer_key=None, signer_cert=None, nonce=None):
    """Map the profile onto one request; every profile field either lands
    in the request encoding or alters response verification."""
    return protocol.build_request(
        targets=targets, cpr=profile.cpr(), now=profile.clock.now(),
        requester=signer_cert.subject if signer_cert is not None else None,
        request_policy=profile.request_policy,
        dvcs_name=profile.server_name,
        want_backs=profile.want_backs,
        time_override=profile.time_override,
        supplied_chains=supplied,
        signer_key=signer_key, signer_cert=signer_cert, nonce=nonce)


def validate(profile: ClientProfile, target_paths,
             out=None, timeout: float = 10.0) -> int:
    """One validation transaction; prints the per-target report."""
    out = out if out is not None else sys.stdout
    profile.check()
    paths = [Path(p) for p in target_paths]
    try:
        if profile.thin:
            targets = [p.read_bytes() for p in paths]
        else:
            targets = [parse_certificate(p.read_bytes()) for p in paths]
        supplied = [parse_certificate(p.read_bytes()) for p in profile.supply]
        signer_key = signer_cert = None
        if profile.sign_request:
            signer_key = crypto.decode_key(profile.key_path.read_bytes())
            signer_cert = parse_certificate(profile.cert_path.read_bytes())
    except (OSError, DerError, StructureMismatch, crypto.CryptoError) as exc:
        print(f"error: {exc}", file=out)
        return 1

    request = build_client_request(profile, targets, supplied,
                                   signer_key, signer_cert)
    body = protocol.encode_request(request)
    url = profile.server_url.rstrip("/") + "/dvcs"
    try:
        raw = _post(url, body, protocol.DVCS_CONTENT_TYPE, timeout)
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        print(f"error: transport failure talking to {url}: {exc}", file=out)
        return 1

    try:
        message = protocol.parse_response(raw)
        protocol.verify_response(message, request.info, _trust(profile))
    except (DerError, StructureMismatch, protocol.ProtocolError) as exc:
        print(f"error: unparseable response: {exc}", file=out)
        return 1
    except (protocol.EchoMismatch, protocol.NonceMismatch,
            protocol.BadServerSignature, protocol.UnsignedRejected,
            protocol.ServerCertRejected) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return 1

    if profile.store_evidence is not None:
        profile.store_evidence.mkdir(parents=True, exist_ok=True)
        stem = (f"dvc-{message.info.serial_number}"
                if isinstance(message, DvcResponse)
                else f"notice-{request.info.nonce}")
        (profile.store_evidence / f"{stem}.der").write_bytes(raw)

    if isinstance(message, ErrorNotice):
        print(protocol.render(message), file=out)
        return 1
    results = message.info.results
    if [r.target_fingerprint for r in results] != request.target_fingerprints():
        print(f"error: the DVC's {len(results)} result(s) do not answer the "
              f"{len(paths)} target(s) requested, in order", file=out)
        return 1

    exit_code = 0
    counts = {status: 0 for status in VerdictStatus}
    lines = [f"validation certificate serial {message.info.serial_number}, "
             f"produced at {message.info.produced_at:%Y%m%d%H%M%S}Z"]
    for path, result in zip(paths, results):
        counts[result.status] += 1
        lines.append(f"== {path}")
        protocol.render_result_details(result, lines)
        lines.append(f"    fingerprint: {result.target_fingerprint.hex()}")
    lines.append(f"summary: {counts[VerdictStatus.VALID]} valid, "
                 f"{counts[VerdictStatus.INVALID]} invalid, "
                 f"{counts[VerdictStatus.UNKNOWN]} unknown")
    print("\n".join(lines), file=out)
    if counts[VerdictStatus.INVALID]:
        exit_code = 2
    elif counts[VerdictStatus.UNKNOWN]:
        exit_code = 3
    return exit_code


def inspect(path: "Path | str", out=None) -> int:
    """Render any stored message, certificate or CRL as text."""
    out = out if out is not None else sys.stdout
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        print(f"error: {exc}", file=out)
        return 1
    parsers = (
        lambda b: protocol.parse_response(b),
        lambda b: protocol.parse_request(b),
        lambda b: parse_certificate(b),
        lambda b: parse_crl(b),
    )
    for parser in parsers:
        try:
            print(protocol.render(parser(data)), file=out)
            return 0
        except (DerError, StructureMismatch, protocol.ProtocolError):
            continue
    try:
        key = crypto.decode_key(data)
        print("private key file: algorithm ed25519, "
              f"public key {key.public_key.hex()}", file=out)
        return 0
    except (DerError, crypto.CryptoError):
        pass
    print("error: not a recognized certificate, CRL or protocol message",
          file=out)
    return 1


def _apply_overrides(profile: ClientProfile, args) -> ClientProfile:
    if args.pin is not None:  # --pin also selects the pinned check
        profile.pinned_fingerprint = config.parse_fingerprint(
            args.pin, where="--pin")
        profile.server_cert_check = "pinned"
    for dest, key in _FLAG_KEYS.items():
        text = getattr(args, dest)
        if text is not None:
            flag = "--" + dest.replace("_", "-")
            _assign(profile, key, _PROFILE_KEYS[key](text, where=flag), Path())
    if args.supply is not None:  # comma-separated, not the profile's ';'
        _assign(profile, "supply",
                config.parse_list(args.supply, where="--supply"), Path())
    if args.clock_fixed is not None:
        profile.clock = Clock(fixed=config.parse_timestamp(
            args.clock_fixed, where="--clock-fixed"))
    return profile


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rp-client", description="relying-party validation client")
    commands = parser.add_subparsers(dest="command", required=True)

    val = commands.add_parser("validate", help="validate certificates")
    val.add_argument("targets", nargs="+", type=Path)
    val.add_argument("--profile", type=Path)
    val.add_argument("--server-url")
    val.add_argument("--server-name")
    val.add_argument("--strict-policy", metavar="OIDS",
                     help="comma-separated acceptable policy OIDs")
    val.add_argument("--weak-usage", metavar="USAGE")
    val.add_argument("--explicit-policy", action="store_const", const="true")
    val.add_argument("--inhibit-mapping", action="store_const", const="true")
    val.add_argument("--request-policy", metavar="OID")
    val.add_argument("--want", metavar="LIST",
                     help="comma-separated from chain,crls,replies,time")
    val.add_argument("--sign", action="store_const", const="true")
    val.add_argument("--key")
    val.add_argument("--certificate")
    val.add_argument("--trust-unsigned", action="store_const", const="true")
    val.add_argument("--pin", metavar="HEXFP")
    val.add_argument("--server-cert-check", choices=("pinned", "online", "none"))
    val.add_argument("--responder-certificate")
    val.add_argument("--store-evidence")
    val.add_argument("--supply", metavar="PATHS")
    val.add_argument("--thin", action="store_const", const="true")
    val.add_argument("--time-override", metavar="TIME")
    val.add_argument("--clock-fixed", metavar="TIME")

    ins = commands.add_parser("inspect", help="render a stored file as text")
    ins.add_argument("file", type=Path)

    args = parser.parse_args(argv)
    if args.command == "inspect":
        return inspect(args.file)
    try:
        profile = (parse_profile(args.profile.read_text(), args.profile.parent)
                   if args.profile else ClientProfile())
        profile = _apply_overrides(profile, args)
        return validate(profile, args.targets)
    except (config.ConfigError, ProfileError, DerError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
