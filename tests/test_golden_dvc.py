"""Signed DVC bytes stay byte-identical for every golden scenario.

Ed25519 is deterministic, and the clock, nonce and serial state are fixed,
so each scenario's signed DVC has one exact encoding.  The digests in
``golden/dvc_sha256.json`` were recorded before certificates kept their DER;
any change to them means the wire output changed.
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


def dvc_digests(scenarios, server_identity, tmp_path) -> dict:
    """SHA-256 of the signed DVC for each golden row, keyed by scenario."""
    digests = {}
    for row in GOLDEN["rows"]:
        name = row["scenario"]
        state = tmp_path / f"state-{name}"
        state.mkdir()
        text = make_server_config(scenarios.layout(name).out_dir, state,
                                  server_identity)
        core = cvs.CvsServer(cvs.parse_server_config(text, tmp_path))
        request = protocol.build_request(
            targets=[scenarios.cert(name, *row["target"])],
            cpr=cpr_from_options(row["options"]), now=NOW,
            want_backs=WANT_BACKS, nonce=NONCE)
        body = core.handle_dvcs_bytes(protocol.encode_request(request))
        digests[name] = hashlib.sha256(body).hexdigest()
    return digests


def test_signed_dvc_bytes_match_golden(scenarios, server_identity, tmp_path):
    expected = json.loads(GOLDEN_DVC.read_text())["dvc_sha256"]
    assert dvc_digests(scenarios, server_identity, tmp_path) == expected
