"""Signed-DVC benchmark: one run of one workload.

    python3 bench/run.py --workload hier221-crl --seed 1 --seconds 20 --trace 0

Forges the workload's PKI from ``--seed``, then:

* ``--trace 0``: starts ``cvs-server`` as a subprocess with a fixed clock
  several times (``setup_s`` is the median start-to-first-healthy time),
  drives the last one in a closed loop over two keep-alive HTTP/1.1
  connections for ``--seconds``, and reports the end-to-end metrics.
* ``--trace 1``: runs the server in-process over one connection, first
  untraced and then with the layer wrappers of ``tracing.py`` installed, each
  for half of ``--seconds``, and reports the per-layer metrics and the
  tracing overhead.

Every response is checked after the loop against the pinned server
certificate and the verdict the topology spec implies.  Run facts (inputs,
seeds, machine, a calibration rate before and after, sample counts) go out
as one JSON line; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the units that
BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

CONNECTIONS = 2
SETUP_STARTS = 9
WARMUP_PER_CONNECTION = 3

CALIBRATION_S = 0.5


def declared_units(trace: int) -> dict:
    """{metric name: unit} as BENCHMARK.json declares them for ``trace``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def calibration_rate() -> float:
    """Rounds per second of a fixed pure-Python loop, run alone.  It moves
    only with the machine, so two runs whose rates differ were made on a
    faster or slower host, not on faster or slower code."""
    rounds = 0
    started = time.perf_counter()
    while (elapsed := time.perf_counter() - started) < CALIBRATION_S:
        total = 0
        for i in range(20_000):
            total += i * i % 7
        rounds += 1
    return rounds / elapsed


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "loadavg_at_start": list(os.getloadavg())}


def end_to_end(fixture, work: Path, seconds: float, order_seed: int):
    from harness import (RequestSource, ServerProcess, check_samples,
                         closed_loop, percentile_ms)

    setups = []
    srv = None
    try:
        for _ in range(SETUP_STARTS):
            if srv is not None:
                srv.stop()
            srv = ServerProcess(fixture, SRC, work / "server.log")
            setups.append(srv.setup_s)
        source = RequestSource(
            fixture, fixture.workload.target_order(order_seed), order_seed)
        loop = closed_loop(fixture.port, source, CONNECTIONS, seconds,
                           WARMUP_PER_CONNECTION, srv.cpu_ticks)
        hwm_kb = srv.vm_hwm_kb()
    finally:
        if srv is not None:
            srv.stop()
    failures = check_samples(loop.samples, fixture)
    timed = loop.timed
    good = [s for s in timed if id(s) not in failures]
    if not good:
        raise RuntimeError("no correct DVC in the timed loop")
    ticks_per_s = os.sysconf("SC_CLK_TCK")
    metrics = {
        "dvc_per_s": len(good) / loop.wall_s,
        "rtt_p50_ms": percentile_ms(good, 50),
        "rtt_p90_ms": percentile_ms(good, 90),
        "cpu_ms_per_dvc": loop.server_ticks * 1000 / ticks_per_s / len(good),
        "server_rss_mb": hwm_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    facts = {"timed_samples": len(timed), "warmup_samples":
             len(loop.samples) - len(timed), "loop_wall_s": loop.wall_s,
             "rtt_p99_ms_not_gated": percentile_ms(good, 99),
             "setup_starts_s": setups, "connections": CONNECTIONS,
             "sent": source.sent}
    return metrics, loop.samples, failures, facts


def traced(fixture, work: Path, seconds: float, order_seed: int):
    from harness import (InProcessServer, RequestSource, check_samples,
                         closed_loop, percentile_ms)
    from tracing import Tracer, layer_metrics

    def phase(warmup):
        source = RequestSource(
            fixture, fixture.workload.target_order(order_seed), order_seed)
        srv = InProcessServer(fixture)
        try:
            return closed_loop(fixture.port, source, 1, seconds / 2,
                               warmup), source
        finally:
            srv.stop()

    base, _ = phase(WARMUP_PER_CONNECTION)
    failures = check_samples(base.samples, fixture)
    tracer = Tracer()
    tracer.install()
    try:
        loop, source = phase(0)
        failures.update(check_samples(loop.samples, fixture))
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"trace-{fixture.workload.name}.jsonl")
    good = [s for s in loop.samples if id(s) not in failures]
    good_base = [s for s in base.timed if id(s) not in failures]
    if not good or not good_base:
        raise RuntimeError("no correct DVC in a traced or untraced loop")
    metrics = layer_metrics(tracer.spans, [s.rtt_s for s in good])
    metrics["forge.forge_s"] = fixture.forge_s
    untraced_p50 = percentile_ms(good_base, 50)
    metrics["trace.untraced_rtt_p50_ms"] = untraced_p50
    metrics["trace.rtt_p50_ms"] = percentile_ms(good, 50)
    metrics["trace.overhead_rtt_p50_ms"] = (metrics["trace.rtt_p50_ms"]
                                           - untraced_p50)
    facts = {"traced_samples": len(loop.samples),
             "untraced_samples": len(base.timed), "spans": len(tracer.spans),
             "connections": 1, "sent": source.sent}
    return metrics, base.samples + loop.samples, failures, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "savacert" / "server.py").is_file():
        print(f"error: no savacert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import make_fixture
    from workloads import WORKLOADS, input_properties
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    units = declared_units(args.trace)
    machine = machine_info()
    calibration = [calibration_rate()]
    forge_seed = args.seed
    order_seed = random.Random(f"order:{args.seed}").getrandbits(32)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        fixture = make_fixture(workload, forge_seed, work)
        run = traced if args.trace else end_to_end
        metrics, samples, failures, facts = run(
            fixture, work, args.seconds, order_seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calibration.append(calibration_rate())
    if set(metrics) != set(units):
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1

    sent = facts.pop("sent")
    failed = len(failures)
    for problem in list(dict.fromkeys(failures.values()))[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({"run": {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "forge_seed": forge_seed,
        "order_seed": order_seed, "machine": machine,
        "calibration_rounds_per_s": calibration,
        "inputs": input_properties(workload, sent), **facts}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
