"""The benchmark under bench/ wraps and imports program names by string;
this fails when a refactor removes or moves one of them, or changes the
result shape the tracer reads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from savacert import certs, server, storage

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    yield
    for name in ("tracing", "harness", "workloads"):
        sys.modules.pop(name, None)


def test_tracer_installs_and_uninstalls(bench_path):
    import tracing

    before = (certs.fingerprint, storage.Repository.__dict__["load"],
              server.CvsServer.handle_dvcs_bytes)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert certs.fingerprint is not before[0]
    finally:
        tracer.uninstall()
    assert (certs.fingerprint, storage.Repository.__dict__["load"],
            server.CvsServer.handle_dvcs_bytes) == before


def test_harness_imports(bench_path):
    import harness

    assert callable(harness.make_fixture)


def _run_bench(*args):
    return subprocess.run([sys.executable, *args], cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=300)


def test_bench_selfcheck_passes():
    done = _run_bench("bench/selfcheck.py")
    assert done.returncode == 0, done.stdout + done.stderr


def _traced_run(workload: str) -> dict:
    """Per-layer metrics of a 1 s traced run, which must be correct."""
    done = _run_bench("bench/run.py", "--workload", workload, "--seed", "1",
                      "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    return result["metrics"]


def test_traced_bench_run_is_correct():
    metrics = _traced_run("mesh3-crl")
    # the revoked target (1 in 4) fails on its last edge, which prunes
    # every other chain: about one full validation per target
    per_target = metrics["validation.validate_path_calls_per_target"]
    assert per_target["value"] <= 1.05, per_target
    # every signature checked is over a stored certificate or CRL, which
    # the snapshot verifies once, not once per request
    verifies = metrics["crypto.verify_calls_per_dvc"]
    assert verifies["value"] <= 1.0, verifies


def test_traced_online_bench_run_is_correct():
    # check_online and /status run under the tracer; a status reply's echo
    # is compared as received, not re-encoded
    encodes = _traced_run("small-online")["der.encode_calls_per_dvc"]
    assert encodes["value"] <= 12, encodes
