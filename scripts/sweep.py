"""The experiment scripts' shared front end: their six flags, a bench run
of the script's sweep, and the exit codes (2 for bad input, as the CLI).

The instances follow the paper's protocol (dummy fraction 0.2, average
degree 3); a script gives only its sweep, sizes and algorithm list.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from oscm_gaps.bench import BenchConfig, run_bench
from oscm_gaps.core import InputError
from oscm_gaps.exact import DEFAULT_TIME_BUDGET_S


def main(doc: str, out: str, sweep: Callable[[bool], dict]) -> int:
    """Run the bench config `sweep(paper_scale)` (its sweep_param, values,
    base_params and algos) with the command line's instances and seed."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--out", default=out, help="output directory")
    # read by BenchConfig and GenParams, as a config's values are: 2.0 is 2
    parser.add_argument("--instances", default=20)
    parser.add_argument("--seed", default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--time-budget-s", type=float, default=DEFAULT_TIME_BUDGET_S)
    parser.add_argument(
        "--paper-scale", action="store_true", help="the paper's sizes: up to 40 nodes per layer"
    )
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if not args.time_budget_s >= 0:  # NaN would switch the deadline off
        parser.error(f"--time-budget-s must be >= 0, got {args.time_budget_s}")

    config = sweep(args.paper_scale)
    base = {"f_dm": "0.2", "deg_avg": 3, "seed": args.seed, **config.get("base_params", {})}
    try:
        config = BenchConfig.from_dict({**config, "instances": args.instances, "base_params": base})
        csv_path, plots = run_bench(
            config, args.out, jobs=args.jobs, time_budget_s=args.time_budget_s
        )
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    for path in [csv_path, *plots]:
        print(f"wrote {path}")
    return 0
