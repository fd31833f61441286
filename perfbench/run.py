#!/usr/bin/env python3
"""Benchmark command for oscm-gaps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: desk_sweeps, heuristics_large
(see perfbench/README.md). Run from the repository root. Each run starts
the workload in a fresh worker process (worker.py), so peak memory is per
workload. With --trace 0 it starts SETUP_REPEATS set-up-only workers, half
before the measured worker and half after it, so they see the machine at
both ends of the run, and reports their median wall time as setup_s; the
end-to-end metrics are printed by name with their units. With
--trace 1 the worker alternates untraced and traced rounds and the
per-layer metrics are printed instead. Every solve is checked; the last
line of standard output is the JSON result, and the exit code is 0 only
when every solve passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 10
DEADLINE_S = 170.0  # the whole command, set-up workers included


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "oscm_gaps" / "__init__.py").is_file():
        print(f"run.py: no oscm_gaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    setup_times: list[float] = []

    def set_up(repeats: int) -> None:
        for _ in range(repeats):
            started = perf_counter()
            # stdout is a pipe so the wait ends at the worker's exit, not at
            # the next poll of a timed wait
            subprocess.run(
                worker + ["--setup-only"], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                timeout=deadline - monotonic(),
            )
            setup_times.append(perf_counter() - started)

    repeats = 0 if args.trace else SETUP_REPEATS
    try:
        set_up(repeats // 2)
        proc = subprocess.run(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=deadline - monotonic(),
        )
        set_up(repeats - repeats // 2)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: worker failed: {exc}", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = report.get("metrics", {})
    if setup_times:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    attempted, failed = report["attempted"], report["failed"]
    for message in report["failures"]:
        print(f"FAIL {message}", file=sys.stderr)

    info = report.get("info", {})
    notes = {
        "solve_ms_p50": f"(p50 of {info.get('solve_samples')} samples)",
        "solve_ms_tail": f"(p{info.get('tail_percentile')} of {info.get('solve_samples')} samples)",
        "wall_s": f"(best pieces of {info.get('rounds')} rounds)",
        "setup_s": f"(median of {len(setup_times)} set-ups)",
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'failed_frac':36s} {failed / attempted:14.6g} {'':6s} ({failed} of {attempted} solves)")

    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
