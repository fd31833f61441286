#!/usr/bin/env python3
"""Gap-count sweep: how much do extra gaps buy?

Runs the k-gap algorithm matrix for k = 1..5 over seeded random instances
and writes results.csv plus SVG plots. The default desk-scale setup
(n=16) includes the exact solver so crossing ratios are available; with
--paper-scale the heuristics run at 40 nodes per layer and the exact
solver is dropped (it would time out routinely at that size).
"""

from __future__ import annotations

import argparse
import sys

from oscm_gaps.bench import BenchConfig, run_bench
from oscm_gaps.core import InputError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/gap_count", help="output directory")
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--time-budget-s", type=float, default=300.0)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="40 nodes per layer, heuristics only (no exact reference)",
    )
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    if args.paper_scale:
        n, algos = 40, ["median_kgaps", "barycenter_kgaps"]
    else:
        n, algos = 16, ["median_kgaps", "barycenter_kgaps", "exact_kgaps"]

    try:
        config = BenchConfig.from_dict(
            {
                "sweep_param": "k",
                "values": [1, 2, 3, 4, 5],
                "instances": args.instances,
                "base_params": {"n": n, "f_dm": "0.2", "deg_avg": 3, "seed": args.seed},
                "algos": algos,
            }
        )
        csv_path, plots = run_bench(
            config, args.out, jobs=args.jobs, time_budget_s=args.time_budget_s
        )
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {csv_path}")
    for path in plots:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
