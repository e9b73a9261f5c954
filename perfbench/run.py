"""Benchmark command: one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src``.  With ``--trace 0`` it first starts SETUP_PROBES set-up-only
worker processes, then one worker that times whole rounds of the
workload, and prints the end-to-end metrics.  With ``--trace 1`` it starts
one worker with the span tracer installed and prints the per-layer
metrics.  Every worker's output is checked (see checks.py); the last line
of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without a result when the checkout has no program or a
worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"

# set-up time is the median over these fresh processes plus the timed one
SETUP_PROBES = 2
# every run must end within 180 s
DEADLINE_S = 170.0


def _worker(args, deadline):
    """Run worker.py with args; return (spawn time, parsed last line)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - spawned),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return spawned, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "hessiancone" / "__init__.py").is_file():
        print(f"no hessiancone package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                spawned, probe = _worker(base + ["--setup-only"], deadline)
                setups.append(probe["ready"] - spawned)
        spawned, res = _worker(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["ready"] - spawned)

    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        for name in res["missing_wraps"]:
            print(f"not traced (attribute missing): {name}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": statistics.median(res["cpus"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
