"""Directory-backed repository of certificates, CRLs and trust anchors,
plus the injectable clock used to make validation time-deterministic."""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from pathlib import Path

from .certs import Crl, Name, SignatureMemo, parse_certificate, parse_crl
from .config import ConfigError, parse_timestamp
from .pathbuild import CertGraph
from .revocation import issuer_digest


class RepositoryError(Exception):
    pass


@dataclass(frozen=True)
class AnchorEntry:
    fingerprint: bytes
    label: str
    usages: tuple[str, ...]  # empty tuple = trusted for every usage

    def trusted_for(self, usage: str) -> bool:
        return not self.usages or usage in self.usages


def parse_anchor_manifest(text: str) -> list[AnchorEntry]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise RepositoryError(
                f"anchors.txt line {lineno}: expected 'fingerprint label usages'")
        fp_hex, label, usages = parts
        try:
            fp = bytes.fromhex(fp_hex)
        except ValueError as exc:
            raise RepositoryError(
                f"anchors.txt line {lineno}: bad fingerprint") from exc
        usage_tuple = () if usages == "-" else tuple(usages.split(","))
        entries.append(AnchorEntry(fp, label, usage_tuple))
    return entries


@dataclass
class Repository:
    """One immutable snapshot of the on-disk store."""

    root: Path
    # every stored certificate, indexed once; per-request graphs share it
    index: CertGraph
    # CRL lists are sorted freshest first; both maps share each list
    crls_by_issuer: dict[Name, list[Crl]] = field(default_factory=dict)
    crls_by_digest: dict[bytes, list[Crl]] = field(default_factory=dict)
    anchors: list[AnchorEntry] = field(default_factory=list)
    signatures: SignatureMemo = field(default_factory=SignatureMemo,
                                      compare=False, repr=False)

    @classmethod
    def load(cls, root: "Path | str") -> "Repository":
        root = Path(root)
        cert_dir = root / "certs"
        if not cert_dir.is_dir():
            raise RepositoryError(f"no certs/ directory under {root}")
        certificates = []
        for path in sorted(cert_dir.glob("*.der")):
            try:
                certificates.append(parse_certificate(path.read_bytes()))
            except Exception as exc:
                raise RepositoryError(f"{path}: {exc}") from exc
        repo = cls(root, CertGraph(certificates, ()))
        crl_dir = root / "crls"
        if crl_dir.is_dir():
            for path in sorted(crl_dir.glob("*.crl")):
                try:
                    crl = parse_crl(path.read_bytes())
                except Exception as exc:
                    raise RepositoryError(f"{path}: {exc}") from exc
                repo.crls_by_issuer.setdefault(crl.issuer, []).append(crl)
        for issuer, crls in repo.crls_by_issuer.items():
            crls.sort(key=lambda c: c.this_update, reverse=True)
            repo.crls_by_digest[issuer_digest(issuer)] = crls
        repo.signatures = SignatureMemo(
            [*certificates, *(crl for crls in repo.crls_by_issuer.values()
                              for crl in crls)])
        manifest = root / "anchors.txt"
        if manifest.is_file():
            repo.anchors = parse_anchor_manifest(manifest.read_text())
        for entry in repo.anchors:
            if entry.fingerprint not in repo.index.nodes:
                raise RepositoryError(
                    f"anchor {entry.label} not among stored certificates")
        return repo

    def graph(self, anchor_fingerprints=None) -> CertGraph:
        """The snapshot's index under the given anchors (default: every
        manifest anchor)."""
        if anchor_fingerprints is None:
            anchor_fingerprints = [e.fingerprint for e in self.anchors]
        return self.index.with_anchors(anchor_fingerprints)

    def crls_for(self, issuer: Name) -> list[Crl]:
        """CRLs claiming the given issuer, freshest first."""
        return self.crls_by_issuer.get(issuer, [])


@dataclass
class Clock:
    """Time source; a fixed instant makes whole test runs reproducible.
    Callers capture ``now()`` once per request."""

    fixed: datetime.datetime | None = None

    def now(self) -> datetime.datetime:
        if self.fixed is not None:
            return self.fixed
        return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)


def parse_clock(value: str, *, where: str) -> Clock:
    """A clock setting: ``system``, or ``fixed <YYYYMMDDHHMMSSZ>``."""
    words = value.split(None, 1)
    if words == ["system"]:
        return Clock()
    if len(words) == 2 and words[0] == "fixed":
        return Clock(fixed=parse_timestamp(words[1].strip(), where=where))
    raise ConfigError(f"{where}: expected 'system' or 'fixed <time>', "
                      f"got {value!r}")
