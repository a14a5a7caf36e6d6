"""Fixtures, the server under test, the closed-loop load generator and the
response oracle.

The load generator uses plain ``http.client`` keep-alive connections with
default socket options: no TCP_QUICKACK, and no reconnecting except after a
transport error, so the delayed-ACK stall the server's two-send responses
cause stays visible.
"""

from __future__ import annotations

import datetime
import http.client
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from savacert import forge, protocol, server as cvs_server
from savacert.certs import Name, fingerprint, parse_certificate
from savacert.der import Oid
from savacert.policytree import CprRequirement

from workloads import POLICY, Workload

NOW = datetime.datetime(2025, 1, 31, tzinfo=datetime.timezone.utc)
NOW_TEXT = "20250131000000Z"
SERVER_NAME = "C=IT, O=Validation Service, CN=CVS Bench"
POLICY_OID = "1.3.6.1.4.1.57264.3.1"
HEALTH_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


@dataclass
class Fixture:
    """A forged workload repository plus the server identity and config."""

    workload: Workload
    config_path: Path
    port: int
    server_cert_fp: bytes
    targets: dict  # end-entity label -> Certificate
    forge_s: float


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def make_fixture(workload: Workload, forge_seed: int, work: Path) -> Fixture:
    """Forge the workload PKI and a server identity, and write the server
    configuration.  Only the forge of the workload PKI is timed."""
    started = time.perf_counter()
    layout = forge.forge(forge.parse_topology(workload.spec_text(forge_seed)),
                         work / "repo")
    forge_s = time.perf_counter() - started
    identity = forge.forge(forge.parse_topology(
        f"[pki]\nseed = {forge_seed}\n[entity cvs]\nkind = rootCa\n"
        f"name = {SERVER_NAME}\n"), work / "identity")
    cert_path = identity.cert_path("cvs", "cvs")
    port = free_port()
    responder = (f"responder_url = http://127.0.0.1:{port}/status\n"
                 if workload.regime == "online" else "")
    config_path = work / "server.cfg"
    config_path.write_text(
        f"[server]\nname = {SERVER_NAME}\nlisten = 127.0.0.1:{port}\n"
        f"key = {identity.keys['cvs']}\ncertificate = {cert_path}\n"
        f"repository = {layout.out_dir}\n"
        f"serial_state = {work / 'serial.state'}\n"
        f"clock = fixed {NOW_TEXT}\n{responder}"
        f"[policy default]\noid = {POLICY_OID}\ndefault = true\n"
        f"anchors = *\nrevocation = {workload.regime}\n")
    targets = {}
    for issuer, subject in workload.edges:
        if subject in workload.ees:
            targets[subject] = parse_certificate(
                layout.cert_path(subject, issuer).read_bytes())
    return Fixture(workload, config_path, port,
                   fingerprint(parse_certificate(cert_path.read_bytes())),
                   targets, forge_s)


# ---------------------------------------------------------------------------
# the server under test

def _health_ok(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/health")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


class ServerProcess:
    """``cvs-server`` as a subprocess of this interpreter."""

    def __init__(self, fixture: Fixture, src_dir: Path, log_path: Path):
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "savacert.server",
                 "--config", str(fixture.config_path)],
                env=env, stdin=subprocess.DEVNULL, stdout=self._log,
                stderr=subprocess.STDOUT)
        except OSError:
            self._log.close()
            raise
        try:
            while not _health_ok(fixture.port):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"cvs-server exited with {self.proc.returncode}; "
                        f"see {log_path}")
                if time.perf_counter() - started > HEALTH_TIMEOUT_S:
                    raise RuntimeError("cvs-server did not become healthy")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def cpu_ticks(self) -> int:
        """utime + stime of the whole server process, in clock ticks."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def vm_hwm_kb(self) -> int:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class InProcessServer:
    """The HTTP server in a thread of this process, as the tests run it."""

    def __init__(self, fixture: Fixture):
        config = cvs_server.load_server_config(fixture.config_path)
        self.core = cvs_server.CvsServer(config)
        self.httpd = cvs_server.CvsHttpServer(self.core)
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       daemon=True)
        self.thread.start()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()


# ---------------------------------------------------------------------------
# the closed-loop load generator

@dataclass
class Sample:
    target: str
    info: protocol.RequestInformation
    warm: bool
    rtt_s: float = 0.0
    response: bytes | None = None
    error: str | None = None


@dataclass
class LoopResult:
    samples: list = field(default_factory=list)
    wall_s: float = 0.0
    server_ticks: int = 0

    @property
    def timed(self) -> list:
        return [s for s in self.samples if not s.warm]


class RequestSource:
    """Hands out (target, request bytes) in the seeded order; the target
    and nonce of the n-th request do not depend on thread timing."""

    def __init__(self, fixture: Fixture, order, order_seed: int):
        self._order = order
        self._nonces = random.Random(order_seed + 1)
        self._lock = threading.Lock()
        self._targets = fixture.targets
        self._cpr = CprRequirement.strict((Oid(POLICY),), True)
        self._name = Name.from_string(SERVER_NAME)
        self._want = (frozenset(getattr(protocol.WantBack, w)
                                for w in fixture.workload.want_backs)
                      or None)
        self.sent: list = []

    def next(self, warm: bool) -> tuple[Sample, bytes]:
        with self._lock:
            target = next(self._order)
            nonce = self._nonces.getrandbits(63)
            self.sent.append(target)
        request = protocol.build_request(
            targets=[self._targets[target]], cpr=self._cpr, now=NOW,
            dvcs_name=self._name, want_backs=self._want, nonce=nonce)
        return (Sample(target, request.info, warm),
                protocol.encode_request(request))


def closed_loop(port: int, source: RequestSource, connections: int,
                seconds: float, warmup: int, cpu_ticks=None) -> LoopResult:
    """Each connection sends its next request only when the previous reply
    has been read in full.  Every connection first sends ``warmup``
    untimed requests; the timed window then starts for all at once."""
    result = LoopResult()
    lock = threading.Lock()
    clock: dict = {}

    def start_window():
        clock["start"] = time.perf_counter()
        clock["ticks"] = cpu_ticks() if cpu_ticks else 0

    barrier = threading.Barrier(connections, action=start_window,
                                timeout=HEALTH_TIMEOUT_S)
    ends: list = []
    errors: list = []

    def exchange(conn, warm):
        sample, body = source.next(warm)
        started = time.perf_counter()
        try:
            conn.request("POST", "/dvcs", body=body,
                         headers={"Content-Type": protocol.DVCS_CONTENT_TYPE})
            response = conn.getresponse()
            data = response.read()
            sample.rtt_s = time.perf_counter() - started
            if response.status != 200:
                sample.error = f"HTTP {response.status}"
            else:
                sample.response = data
        except (OSError, http.client.HTTPException) as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
            conn.close()  # http.client reconnects on the next request
        with lock:
            result.samples.append(sample)

    def drive():
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            for _ in range(warmup):
                exchange(conn, True)
            barrier.wait()
            deadline = clock["start"] + seconds
            while time.perf_counter() < deadline:
                exchange(conn, False)
            with lock:
                ends.append(time.perf_counter())
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)
            barrier.abort()
        finally:
            conn.close()

    threads = [threading.Thread(target=drive) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    result.wall_s = max(ends) - clock["start"]
    if cpu_ticks:
        result.server_ticks = cpu_ticks() - clock["ticks"]
    return result


def percentile_ms(samples, q: int) -> float:
    """The q-th percentile of the round trips, in ms (inclusive method)."""
    rtts = sorted(s.rtt_s * 1000 for s in samples)
    return statistics.quantiles(rtts, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# the response oracle

def check_sample(sample: Sample, fixture: Fixture,
                 trust: protocol.ResponseTrust) -> str | None:
    """None when the response is a DVC that authenticates against the
    pinned server certificate and carries the spec's verdict; otherwise
    why the operation failed."""
    if sample.error is not None:
        return sample.error
    try:
        message = protocol.parse_response(sample.response)
        if isinstance(message, protocol.ErrorNotice):
            return f"error notice {message.code.name}: {message.message}"
        protocol.verify_response(message, sample.info, trust)
    except Exception as exc:  # any rejection is one failed operation
        return f"{type(exc).__name__}: {exc}"
    results = message.info.results
    if len(results) != 1:
        return f"{len(results)} results for one target"
    result = results[0]
    target = fixture.targets[sample.target]
    if result.target_fingerprint != fingerprint(target):
        return "result names another target"
    expected = fixture.workload.expected(sample.target)
    got = (result.status.value,
           result.reason.name if result.reason is not None else None,
           result.failing_index)
    if got != expected:
        return f"{sample.target}: got {got}, expected {expected}"
    return None


def check_samples(samples, fixture: Fixture) -> dict:
    """id(sample) -> why it failed, for each failed operation."""
    trust = protocol.ResponseTrust(server_cert_check="pinned",
                                   pinned_fingerprint=fixture.server_cert_fp)
    failures = {}
    for sample in samples:
        problem = check_sample(sample, fixture, trust)
        if problem is not None:
            failures[id(sample)] = problem
    return failures
