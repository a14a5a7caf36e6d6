"""Full validation of one candidate chain, and target-level validation that
searches candidate chains in discovery order until one validates.

Per certificate, in order: signature under the working key, validity
window, name chaining, accumulated name constraints, revocation status per
the configured regime, the policy-graph step, CA constraints for non-last
certificates, pathLen, and rejection of unknown critical extensions.  The
first failure wins.  The trust anchor itself is never signature- or
revocation-checked.

All but name constraints, pathLen and the policy graph depend on one
(issuer, subject, subject is last) edge, checked once per request.  A
signature over a stored certificate or CRL under a stored issuer is checked
once per repository snapshot, in the snapshot's ``SignatureMemo``; any
other signature once per request.  Once the first candidate fails, the
search walks only edges that pass, and it stops with an unknown verdict
after ``MAX_FULL_VALIDATIONS`` full validations.
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
    SignatureMemo,
    check_crl_signature,
    check_signature,
)
from .der import Oid
from .pathbuild import CandidateChain, CertGraph, chains
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
CAUSE_BUDGET = "budget"

# full validations per target; only path-level failures can spend them
MAX_FULL_VALIDATIONS = 64

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


def _once(checked: dict, memo_key, check, *args):
    """``check(*args)``, run once per ``memo_key`` in ``checked``."""
    if memo_key not in checked:
        checked[memo_key] = check(*args)
    return checked[memo_key]


def _signature_ok(check, signed: Certificate | Crl, issuer: Certificate,
                  checked: dict, signatures: SignatureMemo | None) -> bool:
    """``check(signed, issuer's key)``, run once per snapshot when
    ``signatures`` holds the pair, else once per request in ``checked``."""
    memo = (signatures.verdicts if signatures is not None
            and signatures.holds(issuer, signed) else checked)
    return _once(memo, (issuer.public_key, signed.der), check, signed,
                 issuer.public_key)


def _revocation_status(cert: Certificate, at, issuer: Certificate,
                       config: RevocationConfig, crls_for, checked: dict,
                       signatures) -> revocation.CertStatus | None:
    if config.regime == "none":
        return None

    def by_crl():
        verified = [crl for crl in crls_for(cert.issuer)
                    if _signature_ok(check_crl_signature, crl, issuer,
                                     checked, signatures)]
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


def _edge(issuer: Certificate, cert: Certificate, is_last: bool, at,
          config: RevocationConfig, crls_for, checked: dict, signatures):
    """The checks of ``cert`` under ``issuer`` that need nothing else: the
    first failing reason or None, and the revocation evidence."""
    if not _signature_ok(check_signature, cert, issuer, checked, signatures):
        return FailureReason.BAD_SIGNATURE, None
    if at < cert.not_before:
        return FailureReason.NOT_YET_VALID, None
    if at > cert.not_after:
        return FailureReason.EXPIRED, None
    if cert.issuer != issuer.subject:
        return FailureReason.NAME_CHAINING, None
    status = _revocation_status(cert, at, issuer, config, crls_for, checked,
                                signatures)
    evidence = None if status is None else status.evidence
    if status is not None:
        if status.value is revocation.StatusValue.REVOKED:
            return FailureReason.REVOKED, evidence
        if status.value is revocation.StatusValue.UNDETERMINED:
            return FailureReason.REVOCATION_UNDETERMINED, evidence
    if not is_last:
        bc = cert.extensions.basic_constraints
        if bc is None or not bc.is_ca:
            return FailureReason.BASIC_CONSTRAINTS, evidence
        usage = cert.extensions.key_usage
        if usage is not None and KeyUsage.KEY_CERT_SIGN not in usage:
            return FailureReason.KEY_USAGE, evidence
    if cert.has_unknown_critical:
        return FailureReason.UNKNOWN_CRITICAL_EXTENSION, evidence
    return None, evidence


# edge failures that come before a name-constraint failure
_BEFORE_NAME_CONSTRAINTS = (FailureReason.BAD_SIGNATURE,
                            FailureReason.NOT_YET_VALID,
                            FailureReason.EXPIRED, FailureReason.NAME_CHAINING)


def validate_path(chain: CandidateChain, at: datetime.datetime,
                  cpr: CprRequirement, revocation_config: RevocationConfig,
                  crls_for, checked: dict | None = None,
                  signatures: SignatureMemo | None = None) -> Verdict:
    """Run the whole validation algorithm over one candidate chain.
    ``crls_for`` maps an issuer Name to its stored CRLs, freshest first.
    ``checked`` holds edge and signature results, so candidate chains that
    share edges or CRLs share their checks; ``signatures`` is the snapshot's
    memo for signatures over its own certificates and CRLs."""
    if checked is None:
        checked = {}
    certs = chain.certs
    issuer = chain.anchor
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
        reason, evidence = _once(
            checked, (issuer.der, cert.der, is_last), _edge, issuer, cert,
            is_last, at, revocation_config, crls_for, checked, signatures)
        if reason in _BEFORE_NAME_CONSTRAINTS:
            return invalid(reason, i)
        if not _check_name_constraints(cert.subject, constraints_acc):
            return invalid(FailureReason.NAME_CONSTRAINT, i)
        if isinstance(evidence, Crl):
            crls.append(evidence)
        elif isinstance(evidence, bytes):
            replies.append(evidence)
        if reason not in (None, FailureReason.UNKNOWN_CRITICAL_EXTENSION):
            return invalid(reason, i)

        state = policytree.process_cert(state, cert, self_issued, is_last)

        if not is_last:
            if not self_issued:
                if max_path is not None and max_path == 0:
                    return invalid(FailureReason.BASIC_CONSTRAINTS, i)
                if max_path is not None:
                    max_path -= 1
            path_len = cert.extensions.basic_constraints.path_len
            if path_len is not None:
                max_path = (path_len if max_path is None
                            else min(max_path, path_len))
            if cert.extensions.name_constraints is not None:
                constraints_acc.append(cert.extensions.name_constraints)

        if reason is not None:
            return invalid(reason, i)
        issuer = cert

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
                    max_length: int = 8, checked: dict | None = None,
                    signatures: SignatureMemo | None = None) -> Verdict:
    """The first valid chain in discovery order, else the first candidate's
    verdict, else (no chain, or ``MAX_FULL_VALIDATIONS`` spent) an unknown
    one.  Past the first candidate, only chains whose every edge passes are
    validated.  The memo ``checked`` lives for one request at most (a fresh
    one by default), so it never outlives the snapshot it was filled from;
    ``signatures`` belongs to the snapshot that ``crls_for`` reads."""
    if checked is None:
        checked = {}
    first = next(chains(graph, target, max_length), None)
    if first is None:
        return Verdict(VerdictStatus.UNKNOWN, at, unknown_cause=CAUSE_NO_PATH)
    verdict = validate_path(first, at, cpr, revocation_config, crls_for,
                            checked, signatures)
    if verdict.is_valid:
        return verdict

    def edge_ok(issuer: Certificate, cert: Certificate, is_last: bool):
        return _once(checked, (issuer.der, cert.der, is_last), _edge, issuer,
                     cert, is_last, at, revocation_config, crls_for,
                     checked, signatures)[0] is None

    others = (chain for chain in chains(graph, target, max_length, edge_ok)
              if chain != first)
    for validated, chain in enumerate(others, 1):
        if validated == MAX_FULL_VALIDATIONS:
            return Verdict(VerdictStatus.UNKNOWN, at,
                           unknown_cause=CAUSE_BUDGET)
        candidate = validate_path(chain, at, cpr, revocation_config,
                                  crls_for, checked, signatures)
        if candidate.is_valid:
            return candidate
    return verdict
