"""The benchmark under bench/ wraps and imports program names by string;
this fails when a refactor removes or moves one of them."""

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
