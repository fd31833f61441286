#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads desk_sweeps,heuristics_large \\
        --seeds 1-10 --trace 0 --out spread.json

For every workload and metric it prints the median of the per-seed values,
and the distance between the first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`), next to the metric's bound in
BENCHMARK.json, and the range of the command's own run times, to check
the benchmark's time budget. The JSON written with --out also records the machine:
CPU model, `os.cpu_count()` and the Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", help="write the per-seed values and summary here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]
    summary: dict = {
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version()},
        "seconds": seconds,
        "trace": args.trace,
        "workloads": {},
    }
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        run_s: list[float] = []
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            started = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            run_s.append(perf_counter() - started)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}, result {result}", file=sys.stderr)
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload:17s} command took {min(run_s):.1f}-{max(run_s):.1f} s per run")
        table = summary["workloads"][workload] = {"command_s": run_s}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else 0.0
            table[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound:.2f}" + ("" if spread < bound / 3 else "  spread >= bound/3")
            print(f"{workload:17s} {name:38s} {median:14.6g} {units[name]:6s} spread {spread:7.2%}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
