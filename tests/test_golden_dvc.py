"""Signed DVC bytes stay byte-identical for every golden scenario.

Ed25519 is deterministic, and the clock, nonce and serial state are fixed,
so each scenario's signed DVC has one exact encoding.  The digests in
``golden/dvc_sha256.json`` were recorded before certificates kept their DER;
any change to them means the wire output changed.  The ``supplied_sha256``
digests cover happy3 requests that supply certificates with the target; they
were recorded while supplied sets were still ordered into a chain of their
own, and show that letting discovery use them moved no wire output.
"""

import hashlib
import json
from pathlib import Path

from savacert import protocol, server as cvs
from savacert.protocol import WantBack

from conftest import NOW, make_server_config
from test_validation import GOLDEN, cpr_from_options

GOLDEN_DVC = Path(__file__).parent / "golden" / "dvc_sha256.json"
NONCE = 0x5A7A_CE47
WANT_BACKS = frozenset({WantBack.CHAIN, WantBack.CRLS,
                        WantBack.VALIDATION_TIME})
# supplied certificates (scenario, subject, issuer) per happy3 request
SUPPLIED_SETS = {
    "sub,ee": [("happy3", "sub", "root"), ("happy3", "ee", "sub")],
    "root,sub,ee": [("happy3", "root", "root"), ("happy3", "sub", "root"),
                    ("happy3", "ee", "sub")],
    "mesh2paths ee": [("mesh2paths", "ee", "s")],
}


def signed_dvc_digest(scenarios, server_identity, state, name, target,
                      options, supplied=()) -> str:
    """SHA-256 of the signed DVC for one request to a fresh server."""
    state.mkdir()
    text = make_server_config(scenarios.layout(name).out_dir, state,
                              server_identity)
    core = cvs.CvsServer(cvs.parse_server_config(text, state.parent))
    request = protocol.build_request(
        targets=[scenarios.cert(name, *target)],
        cpr=cpr_from_options(options), now=NOW, want_backs=WANT_BACKS,
        nonce=NONCE, supplied_chains=[scenarios.cert(*c) for c in supplied])
    body = core.handle_dvcs_bytes(protocol.encode_request(request))
    return hashlib.sha256(body).hexdigest()


def dvc_digests(scenarios, server_identity, tmp_path) -> dict:
    """SHA-256 of the signed DVC for each golden row, keyed by scenario."""
    digests = {}
    for row in GOLDEN["rows"]:
        name = row["scenario"]
        digests[name] = signed_dvc_digest(
            scenarios, server_identity, tmp_path / f"state-{name}", name,
            row["target"], row["options"])
    return digests


def supplied_dvc_digests(scenarios, server_identity, tmp_path) -> dict:
    """SHA-256 of the signed DVC for happy3's ee under each supplied set."""
    return {label: signed_dvc_digest(
                scenarios, server_identity, tmp_path / f"supplied-{i}",
                "happy3", ("ee", "sub"), {}, supplied)
            for i, (label, supplied) in enumerate(SUPPLIED_SETS.items())}


def test_signed_dvc_bytes_match_golden(scenarios, server_identity, tmp_path):
    expected = json.loads(GOLDEN_DVC.read_text())["dvc_sha256"]
    assert dvc_digests(scenarios, server_identity, tmp_path) == expected


def test_supplied_set_dvc_bytes_match_golden(scenarios, server_identity,
                                             tmp_path):
    expected = json.loads(GOLDEN_DVC.read_text())["supplied_sha256"]
    assert supplied_dvc_digests(scenarios, server_identity,
                                tmp_path) == expected
