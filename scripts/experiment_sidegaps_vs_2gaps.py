#!/usr/bin/env python3
"""Side gaps versus two free gaps.

Side-gap permutations are a special case of 2-gap permutations, so the
2-gap optimum can only be better; this experiment measures by how much,
for the heuristic pipelines and (at desk scale) the exact solvers. The
varied parameter is the layer size n.
"""

from __future__ import annotations

import argparse
import sys

from oscm_gaps.bench import BenchConfig, run_bench
from oscm_gaps.core import InputError

HEURISTICS = [
    "median_sidegaps",
    "barycenter_sidegaps",
    "median_kgaps:2",
    "barycenter_kgaps:2",
]
EXACT = ["exact_sidegaps", "exact_kgaps:2"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/sidegaps_vs_2gaps")
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--time-budget-s", type=float, default=300.0)
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="sweep up to 40 nodes per layer, heuristics only",
    )
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    if args.paper_scale:
        values, algos = [10, 20, 30, 40], HEURISTICS
    else:
        values, algos = [8, 12, 16, 20], HEURISTICS + EXACT

    try:
        config = BenchConfig.from_dict(
            {
                "sweep_param": "n",
                "values": values,
                "instances": args.instances,
                "base_params": {"f_dm": "0.2", "deg_avg": 3, "seed": args.seed},
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
