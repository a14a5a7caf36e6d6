"""Deterministic test-PKI generator.

Builds certificate hierarchies, meshes and cross-certifications from a
topology spec file, emits CRLs and key files, and ships a catalog of named
misbehavior scenarios that each isolate one validation failure mode.
Output is byte-identical for a given spec and seed.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from . import config, crypto, oids
from .certs import (
    BasicConstraints,
    Certificate,
    KeyUsage,
    Name,
    NameConstraints,
    PolicyConstraints,
    PolicyInfo,
    PolicyMapping,
    ReasonCode,
    RevokedEntry,
    check_signature,
    fingerprint,
    make_extensions,
    sign_certificate,
    sign_crl,
)
from .der import Oid

EPOCH = datetime.datetime(2025, 1, 1, tzinfo=datetime.timezone.utc)
CA_LIFETIME = 10  # years
EE_LIFETIME = 1

# policy vocabulary used by the built-in scenarios
POLICY_HIGH = Oid("1.3.6.1.4.1.57264.8.1")
POLICY_MAPPED = Oid("1.3.6.1.4.1.57264.8.2")
POLICY_MAIL = Oid("1.3.6.1.4.1.57264.8.3")
POLICY_ALT = Oid("1.3.6.1.4.1.57264.8.4")

_KINDS = ("rootCa", "subCa", "endEntity")
_REASONS = {
    "unspecified": ReasonCode.UNSPECIFIED,
    "keyCompromise": ReasonCode.KEY_COMPROMISE,
    "caCompromise": ReasonCode.CA_COMPROMISE,
    "superseded": ReasonCode.SUPERSEDED,
}


class SpecError(config.ConfigError):
    pass


class UnknownScenario(Exception):
    pass


@dataclass
class EntitySpec:
    label: str
    kind: str
    name: Name
    policies: tuple[Oid, ...] = ()
    mappings: tuple[PolicyMapping, ...] = ()
    require_explicit_policy: int | None = None
    inhibit_policy_mapping: int | None = None
    path_len: int | None = None
    permitted: tuple[Name, ...] = ()
    excluded: tuple[Name, ...] = ()
    not_before: datetime.datetime | None = None
    not_after: datetime.datetime | None = None
    usages: tuple[str, ...] = ()
    anchor: bool = True  # rootCa entities only


@dataclass
class TopologySpec:
    seed: int
    entities: dict[str, EntitySpec]
    edges: list[tuple[str, str]]
    revocations: list[tuple[str, str, datetime.datetime, ReasonCode]]


@dataclass
class RepositoryLayout:
    out_dir: Path
    certs: dict[tuple[str, str], Path] = field(default_factory=dict)
    crls: dict[str, Path] = field(default_factory=dict)
    keys: dict[str, Path] = field(default_factory=dict)
    anchors: list[tuple[str, str, tuple[str, ...]]] = field(default_factory=list)

    @property
    def anchors_path(self) -> Path:
        return self.out_dir / "anchors.txt"

    def cert_path(self, subject: str, issuer: str) -> Path:
        return self.certs[(subject, issuer)]


def _parse_mapping(text: str, *, where: str) -> PolicyMapping:
    left, sep, right = text.partition("->")
    if not sep:
        raise config.ConfigError(f"{where}: expected 'oid -> oid'")
    return PolicyMapping(config.parse_oid(left.strip(), where=where),
                         config.parse_oid(right.strip(), where=where))


_PKI_KEYS = {"seed": config.parse_int}  # it only names keys: any integer
_ENTITY_KEYS = {
    "kind": config.one_of(*_KINDS),
    "name": config.parse_name,
    "policies": config.parse_oids,
    "map": _parse_mapping,  # repeatable
    "require_explicit_policy": partial(config.parse_int, low=0),
    "inhibit_policy_mapping": partial(config.parse_int, low=0),
    "pathlen": partial(config.parse_int, low=0),
    "permitted": config.list_of(config.parse_name, ";"),
    "excluded": config.list_of(config.parse_name, ";"),
    "not_before": config.parse_timestamp,
    "not_after": config.parse_timestamp,
    "usages": config.parse_list,
    "anchor": config.parse_bool,
}


def _parse_entity(section) -> EntitySpec:
    label = section.arg
    if not label or " " in label:
        raise SpecError(f"line {section.lineno}: entity needs a one-word label")
    fields: dict = {"mappings": ()}
    for key, value in config.read(section, _ENTITY_KEYS, f"entity {label}: "):
        if key == "map":
            fields["mappings"] += (value,)
        else:
            fields["path_len" if key == "pathlen" else key] = value
    if "kind" not in fields:
        raise SpecError(f"entity {label}: kind must be one of {_KINDS}")
    fields.setdefault("name", Name(((oids.AT_ORGANIZATION, "Test PKI"),
                                    (oids.AT_COMMON_NAME, label))))
    return EntitySpec(label=label, **fields)


def parse_topology(text: str) -> TopologySpec:
    seed = 0
    entities: dict[str, EntitySpec] = {}
    edges: list[tuple[str, str]] = []
    revocations = []
    for section in config.parse_sections(text):
        if section.name == "pki":
            seed = dict(config.read(section, _PKI_KEYS, "[pki] ")).get(
                "seed", seed)
        elif section.name == "entity":
            entity = _parse_entity(section)
            if entity.label in entities:
                raise SpecError(f"duplicate entity label {entity.label}")
            entities[entity.label] = entity
        elif section.name == "edges":
            for lineno, line in section.lines:
                issuer, sep, subject = line.partition("->")
                if not sep:
                    raise SpecError(f"line {lineno}: edge needs 'issuer -> subject'")
                edges.append((issuer.strip(), subject.strip()))
        elif section.name == "revocations":
            for lineno, line in section.lines:
                parts = line.split()
                if len(parts) != 4:
                    raise SpecError(
                        f"line {lineno}: expected 'issuer subject time reason'")
                issuer, subject, when, reason = parts
                if reason not in _REASONS:
                    raise SpecError(f"line {lineno}: unknown reason {reason!r}")
                revocations.append((issuer, subject, config.parse_timestamp(
                    when, where=f"[revocations] line {lineno}: time"),
                    _REASONS[reason]))
        else:
            raise SpecError(f"line {section.lineno}: unknown section "
                            f"[{section.name}]")
    spec = TopologySpec(seed, entities, edges, revocations)
    _check_spec(spec)
    return spec


def _check_spec(spec: TopologySpec) -> None:
    seen = set()
    for issuer, subject in spec.edges:
        for label in (issuer, subject):
            if label not in spec.entities:
                raise SpecError(f"edge references unknown label {label!r}")
        if (issuer, subject) in seen:
            raise SpecError(f"duplicate edge {issuer} -> {subject}")
        seen.add((issuer, subject))
    for entity in spec.entities.values():
        if entity.kind == "endEntity" and \
                not any(s == entity.label for _, s in spec.edges):
            raise SpecError(f"end entity {entity.label} has no issuer")
    for issuer, subject, _, _ in spec.revocations:
        if issuer not in spec.entities or subject not in spec.entities:
            raise SpecError("revocation references unknown label")
        if issuer != subject and (issuer, subject) not in seen:
            raise SpecError(f"revocation for non-existent edge "
                            f"{issuer} -> {subject}")


def _default_validity(entity: EntitySpec):
    years = EE_LIFETIME if entity.kind == "endEntity" else CA_LIFETIME
    not_before = entity.not_before or EPOCH
    not_after = entity.not_after or EPOCH.replace(year=EPOCH.year + years)
    return not_before, not_after


def _entity_extensions(subject: EntitySpec, issuer_label: str):
    policies = tuple(PolicyInfo(p) for p in subject.policies) or None
    constraints = None
    if subject.require_explicit_policy is not None or \
            subject.inhibit_policy_mapping is not None:
        constraints = PolicyConstraints(subject.require_explicit_policy,
                                        subject.inhibit_policy_mapping)
    name_constraints = None
    if subject.permitted or subject.excluded:
        name_constraints = NameConstraints(subject.permitted, subject.excluded)
    if subject.kind == "endEntity":
        return make_extensions(
            key_usage=frozenset({KeyUsage.DIGITAL_SIGNATURE}),
            certificate_policies=policies,
            crl_distribution_point=f"crls/{issuer_label}.crl")
    return make_extensions(
        basic_constraints=BasicConstraints(True, subject.path_len),
        key_usage=frozenset({KeyUsage.KEY_CERT_SIGN, KeyUsage.CRL_SIGN}),
        certificate_policies=policies,
        policy_mappings=subject.mappings or None,
        policy_constraints=constraints,
        name_constraints=name_constraints,
        crl_distribution_point=f"crls/{issuer_label}.crl")


def forge(spec: TopologySpec, out_dir: "Path | str") -> RepositoryLayout:
    """Emit the repository tree for a topology spec and self-check it."""
    out = Path(out_dir)
    layout = RepositoryLayout(out)
    for sub in ("certs", "crls", "keys"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    keys = {
        label: crypto.generate(seed=f"{spec.seed}:{label}".encode())
        for label in spec.entities
    }
    for label, key in keys.items():
        path = out / "keys" / f"{label}.key"
        path.write_bytes(crypto.encode_key(key))
        layout.keys[label] = path

    # implicit self-signed certificate for every root, then the edge list
    all_edges = [(label, label) for label, e in spec.entities.items()
                 if e.kind == "rootCa"]
    all_edges += spec.edges

    serial_counters: dict[str, int] = {}
    certificates: dict[tuple[str, str], Certificate] = {}
    for issuer_label, subject_label in all_edges:
        if (subject_label, issuer_label) in certificates:
            raise SpecError(f"duplicate edge {issuer_label} -> {subject_label}")
        issuer = spec.entities[issuer_label]
        subject = spec.entities[subject_label]
        serial = serial_counters.get(issuer_label, 0) + 1
        serial_counters[issuer_label] = serial
        not_before, not_after = _default_validity(subject)
        cert = sign_certificate(
            serial=serial, issuer=issuer.name, subject=subject.name,
            not_before=not_before, not_after=not_after,
            public_key_alg=crypto.ALGORITHM,
            public_key=keys[subject_label].public_key,
            extensions=_entity_extensions(subject, issuer_label),
            issuer_key=keys[issuer_label])
        certificates[(subject_label, issuer_label)] = cert
        path = out / "certs" / f"{subject_label}__{issuer_label}.der"
        path.write_bytes(cert.der)
        layout.certs[(subject_label, issuer_label)] = path

    revoked_by_issuer: dict[str, list[RevokedEntry]] = {}
    for issuer_label, subject_label, when, reason in spec.revocations:
        cert = certificates.get((subject_label, issuer_label))
        if cert is None:
            raise SpecError(f"revocation for non-existent edge "
                            f"{issuer_label} -> {subject_label}")
        revoked_by_issuer.setdefault(issuer_label, []).append(
            RevokedEntry(cert.serial, when, reason))

    issuers = []
    for issuer_label, _ in all_edges:
        if issuer_label not in issuers:
            issuers.append(issuer_label)
    for issuer_label in issuers:
        entries = tuple(sorted(revoked_by_issuer.get(issuer_label, []),
                               key=lambda e: e.serial))
        crl = sign_crl(
            issuer=spec.entities[issuer_label].name,
            this_update=EPOCH,
            next_update=EPOCH.replace(year=EPOCH.year + CA_LIFETIME),
            revoked=entries, issuer_key=keys[issuer_label])
        path = out / "crls" / f"{issuer_label}.crl"
        path.write_bytes(crl.der)
        layout.crls[issuer_label] = path

    lines = []
    for label, entity in spec.entities.items():
        if entity.kind == "rootCa" and entity.anchor:
            fp = fingerprint(certificates[(label, label)]).hex()
            usages = ",".join(entity.usages) if entity.usages else "-"
            lines.append(f"{fp} {label} {usages}")
            layout.anchors.append((fp, label, entity.usages))
    layout.anchors_path.write_text("".join(line + "\n" for line in lines))

    for (subject_label, issuer_label), cert in certificates.items():
        if not check_signature(cert, keys[issuer_label].public_key):
            raise SpecError(
                f"self-check failed for {subject_label}__{issuer_label}")
    return layout


# ---------------------------------------------------------------------------
# scenario catalog

def _tamper_ee(layout: RepositoryLayout) -> None:
    # flip a bit inside the signature BIT STRING; structure stays parseable
    path = layout.cert_path("ee", "sub")
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))


_LINEAR = f"""
[pki]
seed = 101
[entity root]
kind = rootCa
policies = {POLICY_HIGH}
usages = e-mail, web
{{root_extra}}
[entity sub]
kind = {{sub_kind}}
policies = {POLICY_HIGH}
{{sub_extra}}
[entity ee]
kind = endEntity
{{ee_extra}}
[edges]
root -> sub
sub -> ee
{{tail}}
"""


def _linear(root_extra="", sub_kind="subCa", sub_extra="",
            ee_extra=f"policies = {POLICY_HIGH}", tail=""):
    return _LINEAR.format(root_extra=root_extra, sub_kind=sub_kind,
                          sub_extra=sub_extra, ee_extra=ee_extra, tail=tail)


_MESH = f"""
[pki]
seed = 202
[entity r1]
kind = rootCa
policies = {POLICY_HIGH}
[entity r2]
kind = rootCa
policies = {POLICY_HIGH}
[entity s]
kind = subCa
policies = {POLICY_HIGH}
[entity ee]
kind = endEntity
policies = {POLICY_HIGH}
[edges]
r1 -> s
r2 -> s
s -> ee
{{tail}}
"""

_CYCLE = f"""
[pki]
seed = 303
[entity a]
kind = rootCa
policies = {POLICY_HIGH}
[entity b]
kind = rootCa
policies = {POLICY_HIGH}
anchor = false
[entity ee]
kind = endEntity
policies = {POLICY_HIGH}
[edges]
a -> b
b -> a
b -> ee
"""


@dataclass(frozen=True)
class Scenario:
    description: str
    spec_text: str
    post: object = None  # optional callable applied to the emitted layout


SCENARIOS: dict[str, Scenario] = {
    "happy3": Scenario(
        "valid three-certificate chain (root, sub CA, end entity)",
        _linear()),
    "expired-intermediate": Scenario(
        "intermediate CA expired before the validation time",
        _linear(sub_extra="not_before = 20230101000000Z\n"
                          "not_after = 20240101000000Z")),
    "revoked-ee": Scenario(
        "end-entity certificate revoked in its issuer's CRL",
        _linear(tail="[revocations]\nsub ee 20250102000000Z keyCompromise")),
    "revoked-intermediate": Scenario(
        "intermediate CA revoked in the root's CRL",
        _linear(tail="[revocations]\nroot sub 20250102000000Z caCompromise")),
    "bad-signature": Scenario(
        "end-entity signature bytes tampered after issuance",
        _linear(), post=_tamper_ee),
    "pathlen-violated": Scenario(
        "root allows zero intermediates but the chain has one",
        _linear(root_extra="pathlen = 0")),
    "not-a-ca": Scenario(
        "issuing intermediate lacks basicConstraints.isCa",
        _linear(sub_kind="endEntity")),
    "policy-mapped": Scenario(
        "intermediate maps one policy onto another mid-chain",
        _linear(sub_extra=f"map = {POLICY_HIGH} -> {POLICY_MAPPED}\n"
                          "require_explicit_policy = 0",
                ee_extra=f"policies = {POLICY_MAPPED}")),
    "no-policy-ee": Scenario(
        "end entity asserts no certificate policies; fails clients that "
        "require explicit policy",
        _linear(ee_extra="")),
    "name-constraint-violated": Scenario(
        "end-entity name falls outside the intermediate's permitted subtree",
        _linear(sub_extra="name = C=IT, O=Trusted Org, CN=sub\n"
                          "permitted = C=IT, O=Trusted Org",
                ee_extra="name = C=IT, O=Rogue Org, CN=ee")),
    "mesh2paths": Scenario(
        "two distinct anchor-to-target paths through a cross-certified CA",
        _MESH.format(tail="")),
    "mesh2paths-revoked": Scenario(
        "two paths where one CA certificate is revoked; the other validates",
        _MESH.format(tail="[revocations]\nr1 s 20250102000000Z caCompromise")),
    "cycle": Scenario(
        "cross-certification loop between two CAs with one trusted anchor",
        _CYCLE),
}


def scenario(name: str, out_dir: "Path | str") -> RepositoryLayout:
    """Emit the named fixture from the built-in catalog."""
    try:
        entry = SCENARIOS[name]
    except KeyError:
        raise UnknownScenario(name) from None
    layout = forge(parse_topology(entry.spec_text), out_dir)
    (layout.out_dir / "scenario.spec").write_text(entry.spec_text)
    if entry.post is not None:
        entry.post(layout)
    return layout


# ---------------------------------------------------------------------------
# CLI

def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pki-forge", description="deterministic test-PKI generator")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="forge a PKI from a topology spec")
    build.add_argument("--spec", required=True, type=Path)
    build.add_argument("--out", required=True, type=Path)

    scen = commands.add_parser("scenario", help="emit a built-in fixture")
    scen.add_argument("--name", required=True)
    scen.add_argument("--out", required=True, type=Path)

    commands.add_parser("list-scenarios", help="list the fixture catalog")

    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            layout = forge(parse_topology(args.spec.read_text()), args.out)
            print(f"forged {len(layout.certs)} certificate(s), "
                  f"{len(layout.crls)} CRL(s) into {layout.out_dir}")
        elif args.command == "scenario":
            layout = scenario(args.name, args.out)
            print(f"scenario {args.name!r} written to {layout.out_dir}")
        else:
            for name, entry in SCENARIOS.items():
                print(f"{name:26} {entry.description}")
    except (config.ConfigError, UnknownScenario, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
