import hashlib

import pytest

from savacert import crypto, forge
from savacert.config import ConfigError
from savacert.certs import (
    check_signature,
    parse_certificate,
    parse_crl,
)
from savacert.storage import parse_anchor_manifest

LINEAR = """
[pki]
seed = 11
[entity root]
kind = rootCa
[entity sub]
kind = subCa
[entity ee]
kind = endEntity
[edges]
root -> sub
sub -> ee
"""

CROSS = """
[pki]
seed = 12
[entity r1]
kind = rootCa
[entity r2]
kind = rootCa
[entity e1]
kind = endEntity
[entity e2]
kind = endEntity
[edges]
r1 -> r2
r2 -> r1
r1 -> e1
r2 -> e2
"""


def _tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_linear_counts(tmp_path):
    layout = forge.forge(forge.parse_topology(LINEAR), tmp_path)
    assert len(layout.certs) == 3
    assert len(layout.crls) == 2  # root's and sub's
    assert set(layout.crls) == {"root", "sub"}
    for crl_path in layout.crls.values():
        assert parse_crl(crl_path.read_bytes()).revoked == ()
    assert len(layout.keys) == 3
    assert len(layout.anchors) == 1


def test_cross_certification_counts(tmp_path):
    layout = forge.forge(forge.parse_topology(CROSS), tmp_path)
    assert len(layout.certs) == 6  # 2 self-signed + 2 cross + 2 end entities
    subjects = {(s, i) for s, i in layout.certs}
    assert ("r2", "r1") in subjects and ("r1", "r2") in subjects
    # cross-certified subject keeps one key across both certificates
    a = parse_certificate(layout.cert_path("r2", "r1").read_bytes())
    b = parse_certificate(layout.cert_path("r2", "r2").read_bytes())
    assert a.public_key == b.public_key
    assert a.serial != b.serial or a.issuer != b.issuer


def test_deterministic_output(tmp_path):
    forge.forge(forge.parse_topology(LINEAR), tmp_path / "a")
    forge.forge(forge.parse_topology(LINEAR), tmp_path / "b")
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


def test_every_cert_verifies_under_its_issuer_key(tmp_path):
    layout = forge.forge(forge.parse_topology(CROSS), tmp_path)
    for (subject, issuer), path in layout.certs.items():
        cert = parse_certificate(path.read_bytes())
        issuer_key = crypto.decode_key(layout.keys[issuer].read_bytes())
        assert check_signature(cert, issuer_key.public_key), (subject, issuer)


def test_serials_sequential_per_issuer(tmp_path):
    layout = forge.forge(forge.parse_topology(LINEAR), tmp_path)
    root_self = parse_certificate(layout.cert_path("root", "root").read_bytes())
    sub = parse_certificate(layout.cert_path("sub", "root").read_bytes())
    ee = parse_certificate(layout.cert_path("ee", "sub").read_bytes())
    assert root_self.serial == 1
    assert sub.serial == 2
    assert ee.serial == 1


def test_anchor_manifest_contents(tmp_path):
    layout = forge.scenario("happy3", tmp_path)
    entries = parse_anchor_manifest(layout.anchors_path.read_text())
    assert len(entries) == 1
    root = parse_certificate(layout.cert_path("root", "root").read_bytes())
    from savacert.certs import fingerprint
    assert entries[0].fingerprint == fingerprint(root)
    assert entries[0].label == "root"
    assert entries[0].usages == ("e-mail", "web")
    assert entries[0].trusted_for("e-mail")
    assert not entries[0].trusted_for("fax")


def test_scenario_catalog_complete(tmp_path):
    required = {
        "happy3", "expired-intermediate", "revoked-ee",
        "revoked-intermediate", "bad-signature", "pathlen-violated",
        "not-a-ca", "policy-mapped", "no-policy-ee",
        "name-constraint-violated", "mesh2paths", "cycle",
    }
    assert required <= set(forge.SCENARIOS)
    with pytest.raises(forge.UnknownScenario):
        forge.scenario("no-such-fixture", tmp_path)


def test_revoked_ee_scenario_crl(tmp_path):
    layout = forge.scenario("revoked-ee", tmp_path)
    ee = parse_certificate(layout.cert_path("ee", "sub").read_bytes())
    crl = parse_crl(layout.crls["sub"].read_bytes())
    entry = crl.entry_for(ee.serial)
    assert entry is not None
    assert entry.reason.name == "KEY_COMPROMISE"


def test_bad_signature_scenario_still_parses(tmp_path):
    layout = forge.scenario("bad-signature", tmp_path)
    ee = parse_certificate(layout.cert_path("ee", "sub").read_bytes())
    sub_key = crypto.decode_key(layout.keys["sub"].read_bytes())
    assert not check_signature(ee, sub_key.public_key)


def test_spec_errors():
    with pytest.raises(forge.SpecError, match="unknown label"):
        forge.parse_topology("""
[pki]
seed = 1
[entity a]
kind = rootCa
[edges]
a -> missing
""")
    with pytest.raises(forge.SpecError, match="duplicate entity"):
        forge.parse_topology("""
[entity a]
kind = rootCa
[entity a]
kind = rootCa
""")
    with pytest.raises(forge.SpecError, match="no issuer"):
        forge.parse_topology("""
[entity lonely]
kind = endEntity
""")
    with pytest.raises(forge.SpecError, match="duplicate edge"):
        forge.parse_topology("""
[entity a]
kind = rootCa
[entity b]
kind = subCa
[edges]
a -> b
a -> b
""")
    with pytest.raises(forge.SpecError, match="non-existent edge"):
        forge.parse_topology("""
[entity a]
kind = rootCa
[entity b]
kind = subCa
[edges]
a -> b
[revocations]
b a 20250102000000Z keyCompromise
""")


def test_cli(tmp_path, capsys):
    spec = tmp_path / "pki.spec"
    spec.write_text(LINEAR)
    assert forge.main(["build", "--spec", str(spec),
                       "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "anchors.txt").exists()
    assert forge.main(["scenario", "--name", "happy3",
                       "--out", str(tmp_path / "s")]) == 0
    assert forge.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "happy3" in out and "cycle" in out
    assert forge.main(["scenario", "--name", "nope",
                       "--out", str(tmp_path / "x")]) == 1


def test_repeated_map_lines_keep_every_mapping_in_order(tmp_path):
    spec = forge.parse_topology(f"""
[entity root]
kind = rootCa
[entity sub]
kind = subCa
map = {forge.POLICY_HIGH} -> {forge.POLICY_MAPPED}
map = {forge.POLICY_MAIL} -> {forge.POLICY_ALT}
[edges]
root -> sub
""")
    layout = forge.forge(spec, tmp_path)
    sub = parse_certificate(layout.cert_path("sub", "root").read_bytes())
    assert [(m.issuer_domain, m.subject_domain)
            for m in sub.extensions.policy_mappings] == [
        (forge.POLICY_HIGH, forge.POLICY_MAPPED),
        (forge.POLICY_MAIL, forge.POLICY_ALT)]


@pytest.mark.parametrize("spec, where", [
    ("[pki]\nsed = 1\n", "[pki] unknown key 'sed'"),
    ("[entity a]\nkind = rootCa\nanchr = false\n",
     "entity a: unknown key 'anchr'"),
    ("[entity a]\nkind = rootCa\nanchor = ture\n", "entity a: anchor: "),
    ("[entity a]\nkind = root\n", "entity a: kind: "),
    ("[entity a]\nkind = rootCa\npathlen = x\n", "entity a: pathlen: "),
    ("[entity a]\nkind = rootCa\nname = bogus\n", "entity a: name: "),
    ("[entity a]\nkind = rootCa\npolicies = 1.2.x\n", "entity a: policies: "),
    ("[entity a]\nkind = rootCa\nmap = 1.2.3 -> 1\n", "entity a: map: "),
    ("[entity a]\nkind = rootCa\nnot_after = 2025\n",
     "entity a: not_after: "),
    ("[pki]\nseed = x\n", "[pki] seed: "),
    ("[entity a]\nkind = rootCa\n[revocations]\na a 2025 keyCompromise\n",
     "[revocations] line 4: time: "),
], ids=["pki-key", "entity-key", "anchor-ture", "kind", "pathlen", "name",
        "policies", "map", "time", "seed", "revocation-time"])
def test_bad_spec_settings_fail_naming_the_key(tmp_path, capsys, spec, where):
    with pytest.raises(ConfigError) as raised:
        forge.parse_topology(spec)
    assert str(raised.value).startswith(where)
    path = tmp_path / "bad.spec"
    path.write_text(spec)
    assert forge.main(["build", "--spec", str(path),
                       "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {raised.value}\n"


def test_seed_is_any_integer():
    assert forge.parse_topology("[pki]\nseed = -7\n").seed == -7
