"""Full validation of one candidate chain, and target-level validation that
iterates candidate chains in discovery order until one validates.

Per certificate, in order: signature under the working key, validity
window, name chaining, accumulated name constraints, revocation status per
the configured regime, the policy-tree step, CA constraints for non-last
certificates, and rejection of unknown critical extensions.  The first
failure wins.  The trust anchor itself is never signature- or
revocation-checked.
"""

from __future__ import annotations

import dataclasses
import datetime
import enum
from dataclasses import dataclass

from . import policytree, revocation
from .certs import (
    Certificate,
    Crl,
    KeyUsage,
    Name,
    check_crl_signature,
    check_signature,
)
from .der import Oid
from .pathbuild import CandidateChain, CertGraph, discover
from .policytree import CprRequirement


class VerdictStatus(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNKNOWN = "unknown"


class FailureReason(enum.IntEnum):
    EXPIRED = 0
    NOT_YET_VALID = 1
    BAD_SIGNATURE = 2
    REVOKED = 3
    REVOCATION_UNDETERMINED = 4
    NAME_CHAINING = 5
    BASIC_CONSTRAINTS = 6
    KEY_USAGE = 7
    NAME_CONSTRAINT = 8
    POLICY_FAILURE = 9
    UNKNOWN_CRITICAL_EXTENSION = 10


CAUSE_NO_PATH = "no-path"

REVOCATION_REGIMES = ("crl", "online", "crl-then-online", "none")


@dataclass(frozen=True)
class RevocationConfig:
    regime: str = "crl"  # one of REVOCATION_REGIMES
    responder_url: str | None = None
    responder_cert: Certificate | None = None

    def __post_init__(self):
        if self.regime not in REVOCATION_REGIMES:
            raise ValueError(f"bad revocation regime {self.regime!r}")


@dataclass(frozen=True)
class Verdict:
    status: VerdictStatus
    validated_at: datetime.datetime
    reason: FailureReason | None = None
    failing_index: int | None = None  # -1 for whole-path policy failure
    unknown_cause: str | None = None
    authorized_set: tuple[Oid, ...] = ()
    mappings_applied: tuple[tuple[Oid, Oid], ...] = ()
    chain: CandidateChain | None = None
    crls: tuple[Crl, ...] = ()
    online_replies: tuple[bytes, ...] = ()

    @property
    def is_valid(self) -> bool:
        return self.status is VerdictStatus.VALID


def _check_name_constraints(subject: Name, accumulated) -> bool:
    for constraints in accumulated:
        if constraints.permitted and not any(
                subject.has_prefix(p) for p in constraints.permitted):
            return False
        if any(subject.has_prefix(e) for e in constraints.excluded):
            return False
    return True


def _verified(checked: dict, check, signed, key: bytes) -> bool:
    """``check(signed, key)``, run once per (DER, key) in ``checked``."""
    memo_key = (signed.der, key)
    if memo_key not in checked:
        checked[memo_key] = check(signed, key)
    return checked[memo_key]


def _revocation_status(cert: Certificate, at, issuer_key: bytes,
                       config: RevocationConfig, crls_for,
                       checked: dict) -> revocation.CertStatus | None:
    if config.regime == "none":
        return None

    def by_crl():
        verified = [crl for crl in crls_for(cert.issuer)
                    if _verified(checked, check_crl_signature, crl,
                                 issuer_key)]
        if not verified:
            return revocation.CertStatus(
                revocation.StatusValue.UNDETERMINED, "crl", None,
                cause=revocation.CAUSE_NO_CRL)
        return revocation.check_crl(
            cert, revocation.crl_for_time(verified, cert.serial, at), at)

    def by_responder():
        try:
            return revocation.check_online(cert, config.responder_url,
                                           config.responder_cert)
        except revocation.StatusError as exc:
            return revocation.CertStatus(
                revocation.StatusValue.UNDETERMINED, "online", None,
                cause=f"responder: {exc}")

    if config.regime == "crl":
        return by_crl()
    if config.regime == "online":
        return by_responder()
    status = by_crl()
    if status.value is revocation.StatusValue.UNDETERMINED:
        return by_responder()
    return status


def validate_path(chain: CandidateChain, at: datetime.datetime,
                  cpr: CprRequirement, revocation_config: RevocationConfig,
                  crls_for, checked: dict | None = None) -> Verdict:
    """Run the whole validation algorithm over one candidate chain.
    ``crls_for`` maps an issuer Name to its stored CRLs, freshest first.
    ``checked`` holds signature results by (DER, key), so candidate chains
    that share certificates or CRLs share their checks."""
    if checked is None:
        checked = {}
    certs = chain.certs
    working_key = chain.anchor.public_key
    anchor_bc = chain.anchor.extensions.basic_constraints
    max_path = anchor_bc.path_len if anchor_bc is not None else None
    constraints_acc: list = []
    state = policytree.init_state(cpr, len(certs))
    crls: list[Crl] = []
    replies: list[bytes] = []

    def invalid(reason: FailureReason, index: int) -> Verdict:
        return Verdict(VerdictStatus.INVALID, at, reason=reason,
                       failing_index=index, chain=chain, crls=tuple(crls),
                       online_replies=tuple(replies))

    for i, cert in enumerate(certs):
        is_last = i == len(certs) - 1
        self_issued = cert.is_self_issued

        if not _verified(checked, check_signature, cert, working_key):
            return invalid(FailureReason.BAD_SIGNATURE, i)
        if at < cert.not_before:
            return invalid(FailureReason.NOT_YET_VALID, i)
        if at > cert.not_after:
            return invalid(FailureReason.EXPIRED, i)
        expected_issuer = chain.anchor.subject if i == 0 else certs[i - 1].subject
        if cert.issuer != expected_issuer:
            return invalid(FailureReason.NAME_CHAINING, i)
        if not _check_name_constraints(cert.subject, constraints_acc):
            return invalid(FailureReason.NAME_CONSTRAINT, i)

        status = _revocation_status(cert, at, working_key,
                                    revocation_config, crls_for, checked)
        if status is not None:
            if isinstance(status.evidence, Crl):
                crls.append(status.evidence)
            elif isinstance(status.evidence, bytes):
                replies.append(status.evidence)
            if status.value is revocation.StatusValue.REVOKED:
                return invalid(FailureReason.REVOKED, i)
            if status.value is revocation.StatusValue.UNDETERMINED:
                return invalid(FailureReason.REVOCATION_UNDETERMINED, i)

        state = policytree.process_cert(state, cert, self_issued, is_last)

        if not is_last:
            bc = cert.extensions.basic_constraints
            if bc is None or not bc.is_ca:
                return invalid(FailureReason.BASIC_CONSTRAINTS, i)
            usage = cert.extensions.key_usage
            if usage is not None and KeyUsage.KEY_CERT_SIGN not in usage:
                return invalid(FailureReason.KEY_USAGE, i)
            if not self_issued:
                if max_path is not None and max_path == 0:
                    return invalid(FailureReason.BASIC_CONSTRAINTS, i)
                if max_path is not None:
                    max_path -= 1
            if bc.path_len is not None:
                max_path = (bc.path_len if max_path is None
                            else min(max_path, bc.path_len))
            if cert.extensions.name_constraints is not None:
                constraints_acc.append(cert.extensions.name_constraints)

        if cert.has_unknown_critical:
            return invalid(FailureReason.UNKNOWN_CRITICAL_EXTENSION, i)
        working_key = cert.public_key

    outcome = policytree.final_verdict(state, cpr)
    if not outcome.ok:
        return dataclasses.replace(
            invalid(FailureReason.POLICY_FAILURE, -1),
            mappings_applied=outcome.mappings_applied)
    return Verdict(VerdictStatus.VALID, at,
                   authorized_set=outcome.authorized_set,
                   mappings_applied=outcome.mappings_applied,
                   chain=chain, crls=tuple(crls), online_replies=tuple(replies))


def validate_target(graph: CertGraph, target: Certificate,
                    at: datetime.datetime, cpr: CprRequirement,
                    revocation_config: RevocationConfig, crls_for,
                    max_length: int = 8,
                    checked: dict | None = None) -> Verdict:
    """Validate candidate chains in discovery order; the first valid chain
    wins, otherwise the first candidate's verdict is returned, and a target
    with no chains at all yields an unknown verdict.  Each signature is
    checked once: the candidates share the memo ``checked``, which the
    caller keeps for one request at most (a fresh one by default), so a
    repository reload never meets a stale entry."""
    if checked is None:
        checked = {}
    first: Verdict | None = None
    for chain in discover(graph, target, max_length):
        verdict = validate_path(chain, at, cpr, revocation_config, crls_for,
                                checked)
        if verdict.is_valid:
            return verdict
        if first is None:
            first = verdict
    return first or Verdict(VerdictStatus.UNKNOWN, at,
                            unknown_cause=CAUSE_NO_PATH)
