#!/usr/bin/env python3
"""Record reference.json: the crossing count of every (instance, pipeline)
pair any workload seed can produce, as the current code computes it.

    python3 perfbench/record_reference.py

Run it only on a commit whose results are trusted (it was recorded on the
seed commit). Each solve must pass the gate's checks other than the
reference comparison: status, gap regime, and the enumeration oracle for
exact solves on at most 9 top nodes. Two windows per workload, the first
and the last, cover its instance-seed pool.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from oscm_gaps.core import count_crossings  # noqa: E402


def main() -> int:
    refs: dict[str, dict[str, int]] = {}
    oracle_cache: dict = {}
    for name, shift in workloads.POOL_SHIFT.items():
        table = refs.setdefault(name, {})
        for seed in sorted({0, shift - 1}):
            result = workloads.build(name, seed, HERE / ".out" / "tmp").run_round()
            count = 0
            for solve in result.solves:
                count += 1
                failure = gate.check(solve, None, oracle_cache)
                if failure:
                    print(f"{name}: {failure}", file=sys.stderr)
                    return 1
                crossings = count_crossings(solve.inst, solve.permutation)
                if table.setdefault(solve.key, crossings) != crossings:
                    print(f"{name}: {solve.key} differs between windows", file=sys.stderr)
                    return 1
            print(f"{name} seed {seed}: {count} solves in {result.wall_s:.2f} s")
    text = json.dumps(refs, indent=1, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
