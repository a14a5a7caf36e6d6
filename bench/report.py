"""Every end-to-end and per-layer metric of every workload, by name with
its unit.

    python3 bench/report.py [--seed 1]

Runs ``run.py`` once untraced and once traced on every workload, each for
the ``run_seconds`` of BENCHMARK.json, prints one line per metric, and
exits 1 if any operation failed or any run did not complete (``run.py``
itself fails when its metric names differ from BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
DECLARED = RUN.parent.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = json.loads(DECLARED.read_text())["run_seconds"]
    clean = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: run failed with exit code "
                      f"{done.returncode}")
                clean = False
                continue
            facts = json.loads(lines[-2])["run"]
            result = json.loads(lines[-1])
            samples = facts.get("timed_samples", facts.get("traced_samples"))
            print(f"# {workload} trace={trace}: attempted "
                  f"{result['attempted']}, failed {result['failed']}, "
                  f"{samples} timed samples")
            for name, metric in result["metrics"].items():
                print(f"{workload:13} {name:42} {metric['value']:14.4f} "
                      f"{metric['unit']}")
            if "rtt_p99_ms_not_gated" in facts:
                print(f"{workload:13} {'rtt_p99_ms (not gated)':42} "
                      f"{facts['rtt_p99_ms_not_gated']:14.4f} ms")
            clean = clean and result["correct"] and result["failed"] == 0
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
