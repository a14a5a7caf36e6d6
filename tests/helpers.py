"""Shared test utilities: lightweight certificate fabrication, the
brute-force simple-path enumerator used as the discovery oracle, the
validate-every-chain reference for target validation, a random DER value
generator for round-trip properties, a DVC rewriter that adds a junk entry
to online-replies lists, an unsigned DVC encoder and the policy graph
unrolled into its tree."""

import datetime
import random

from savacert import der, oids, protocol
from savacert.pathbuild import discover
from savacert.policytree import ANY, PolicyState
from savacert.validation import (
    Verdict,
    VerdictStatus,
    validate_path,
)
from savacert.certs import (
    Certificate,
    Extensions,
    Name,
    fingerprint,
    make_extensions,
)

_EPOCH = datetime.datetime(2025, 1, 1, tzinfo=datetime.timezone.utc)
_LATER = datetime.datetime(2035, 1, 1, tzinfo=datetime.timezone.utc)


def label_name(label: str) -> Name:
    return Name(((oids.AT_COMMON_NAME, label),))


def fabricate_cert(subject: str, issuer: str, *, serial: int = 1,
                   rng: "random.Random | None" = None,
                   extensions: Extensions | None = None,
                   public_key: bytes | None = None) -> Certificate:
    """Structurally valid certificate with a dummy signature; good enough
    for anything that does not verify signatures (discovery, policy walks)."""
    # a str seed is hashed with SHA-512, the same in every process; hash()
    # of a str is salted per process
    rng = rng or random.Random(repr((subject, issuer, serial)))
    return Certificate(
        version=3, serial=serial, signature_alg=oids.ALG_ED25519,
        issuer=label_name(issuer), not_before=_EPOCH, not_after=_LATER,
        subject=label_name(subject), public_key_alg=oids.ALG_ED25519,
        public_key=public_key or rng.randbytes(32),
        extensions=extensions if extensions is not None else make_extensions(),
        signature=rng.randbytes(64))


def junk_in_replies(value: der.DerValue) -> der.DerValue:
    """``value`` with INTEGER 5 appended to every evidence online-replies
    list ([2] EXPLICIT SEQUENCE OF OCTET STRING); all else as it was."""
    if isinstance(value, der.Sequence):
        return der.Sequence([junk_in_replies(e) for e in value.elements])
    if isinstance(value, der.ContextTagged):
        inner = junk_in_replies(value.inner)
        if value.number == 2 and isinstance(inner, der.Sequence) \
                and inner.elements and all(isinstance(r, der.OctetString)
                                           for r in inner.elements):
            inner = der.Sequence([*inner.elements, der.Integer(5)])
        return der.ContextTagged(value.number, inner)
    return value


def unsigned_dvc(info: protocol.DvcInfo) -> bytes:
    """The DVC envelope with no signer and no signature."""
    return der.encode(der.ContextTagged(protocol._KIND_DVC, der.Sequence(
        [protocol.dvc_info_value(info)])))


def tree_paths(state: PolicyState) -> frozenset:
    """The policy graph unrolled into the valid_policy_tree's root-to-leaf
    paths of (valid policy, expected set); every copy of a policy at one
    depth has the same expected set, so the unrolled graph is the tree."""
    if state.tree is None:
        return frozenset()
    paths = {ANY: [((ANY, frozenset({ANY})),)]}
    for level in state.tree[1:]:
        paths = {policy: [path + ((policy, expected),)
                          for parent in above for path in paths[parent]]
                 for policy, (expected, above) in level.items()}
    return frozenset(path for unrolled in paths.values() for path in unrolled)


def all_simple_paths(certificates, anchors, target, max_length):
    """Brute-force enumeration of loop-free anchor-to-target chains; returns
    a set of (anchor fingerprint, tuple of member fingerprints)."""
    target_fp = fingerprint(target)
    anchor_fps = {fingerprint(a) for a in anchors}
    by_fp = {fingerprint(c): c for c in certificates}
    found = set()

    def extend(path_fps):
        head = by_fp[path_fps[0]]
        for anchor in anchors:
            if anchor.subject == head.issuer:
                found.add((fingerprint(anchor), tuple(path_fps)))
        if len(path_fps) >= max_length:
            return
        for fp, cert in by_fp.items():
            if fp in anchor_fps or fp in path_fps:
                continue
            if cert.subject == head.issuer:
                extend((fp,) + path_fps)

    if target_fp in by_fp:
        extend((target_fp,))
    return found


def discovery_order(paths):
    """``all_simple_paths`` results in the order ``discover`` promises:
    length, then member fingerprints, then anchor fingerprint."""
    return sorted(paths, key=lambda path: (len(path[1]), path[1], path[0]))


def reference_validate_target(graph, target, at, cpr, revocation_config,
                              crls_for, max_length=8):
    """``validate_target``'s contract the slow way: every chain ``discover``
    lists is validated in full, each with a fresh memo; the first valid one
    wins, otherwise the first chain's verdict is returned."""
    verdicts = [validate_path(chain, at, cpr, revocation_config, crls_for)
                for chain in discover(graph, target, max_length)]
    if not verdicts:
        return Verdict(VerdictStatus.UNKNOWN, at, unknown_cause="no-path")
    return next((v for v in verdicts if v.is_valid), verdicts[0])


_UTF8_POOL = ("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
              "0123456789 '()+,-./:=?äöüßéèñ€漢字🙂\n\t")


def _random_time(rng: random.Random) -> datetime.datetime:
    return datetime.datetime(
        rng.randint(1, 9999), rng.randint(1, 12), rng.randint(1, 28),
        rng.randint(0, 23), rng.randint(0, 59), rng.randint(0, 59),
        tzinfo=datetime.timezone.utc)


def _random_oid(rng: random.Random) -> der.Oid:
    first = rng.randint(0, 2)
    second = rng.randint(0, 39) if first < 2 else rng.randint(0, 999)
    tail = [rng.choice((rng.randint(0, 127), rng.randint(0, 2 ** 32)))
            for _ in range(rng.randint(0, 4))]
    return der.Oid((first, second, *tail))


def _random_bitstring(rng: random.Random) -> der.BitString:
    body = bytearray(rng.randbytes(rng.randint(0, 6)))
    unused = rng.randint(0, 7) if body else 0
    if body and unused:
        body[-1] &= (0xFF << unused) & 0xFF
    return der.BitString(bytes(body), unused)


def random_der_value(rng: random.Random, depth: int = 0) -> der.DerValue:
    """Random valid DerValue with nesting depth <= 6; Sets are generated in
    canonical element order so decode(encode(v)) == v holds."""
    leaves = ("bool", "int", "octets", "bits", "oid", "utf8", "time")
    kinds = leaves if depth >= 6 else leaves + ("seq", "set", "ctx")
    kind = rng.choice(kinds)
    if kind == "bool":
        return der.Boolean(rng.random() < 0.5)
    if kind == "int":
        magnitude = rng.choice((1 << 7, 1 << 16, 1 << 63, 1 << 130))
        return der.Integer(rng.randint(-magnitude, magnitude))
    if kind == "octets":
        return der.OctetString(rng.randbytes(rng.randint(0, 12)))
    if kind == "bits":
        return _random_bitstring(rng)
    if kind == "oid":
        return _random_oid(rng)
    if kind == "utf8":
        return der.Utf8String("".join(
            rng.choice(_UTF8_POOL) for _ in range(rng.randint(0, 10))))
    if kind == "time":
        return der.GeneralizedTime(_random_time(rng))
    if kind == "seq":
        return der.Sequence([random_der_value(rng, depth + 1)
                             for _ in range(rng.randint(0, 4))])
    if kind == "set":
        children = [random_der_value(rng, depth + 1)
                    for _ in range(rng.randint(0, 4))]
        children.sort(key=der.encode)
        return der.Set(children)
    return der.ContextTagged(rng.randint(0, 30),
                             random_der_value(rng, depth + 1))


def random_cert_graph(rng: random.Random, max_nodes: int = 12,
                      edge_probability: float = 0.3):
    """Random certificate graph of at most max_nodes certificates (one per
    issuer/subject entity pair, self-issued pairs included), with random
    anchors and a random target."""
    entity_count = rng.randint(2, 6)
    labels = [f"n{i}" for i in range(entity_count)]
    pairs = [(i, s) for i in labels for s in labels]
    rng.shuffle(pairs)
    certificates = []
    serial = 0
    for issuer, subject in pairs:
        if len(certificates) >= max_nodes:
            break
        if rng.random() < edge_probability:
            serial += 1
            certificates.append(fabricate_cert(subject, issuer,
                                               serial=serial, rng=rng))
    if not certificates:
        certificates.append(fabricate_cert(labels[0], labels[0],
                                           serial=1, rng=rng))
    anchor_count = rng.randint(1, min(3, len(certificates)))
    anchors = rng.sample(certificates, anchor_count)
    target = rng.choice(certificates)
    return certificates, anchors, target
