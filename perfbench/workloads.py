"""The benchmark's workloads: seeded inputs and one timed round each.

A round is a fixed amount of work chosen by the workload seed; a run
repeats rounds (see worker.py for how their times are combined).
Instances come only from
`generator.generate` (dummy fraction 0.2, average degree 3, as in the
paper's protocol).

Instance seeds come from a small pool so that every (instance, pipeline)
pair has a crossing count recorded from the seed commit in
`reference.json`. Seed s shifts the instance window by s modulo the pool
width: runs on different seeds share part of their inputs, which keeps the
seed-to-seed spread of round time low without fixing the inputs.
"""

from __future__ import annotations

import csv
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable

from oscm_gaps import bench, gap_placement
from oscm_gaps.bench import BenchConfig
from oscm_gaps.core import Permutation
from oscm_gaps.generator import GenParams, generate

from gate import Solve
from spans import patched

# workload name -> pool shift: seed s uses instance window s % shift
# desk_sweeps: B&B cost differs by instance. With a shift of 20, the
# median B&B node count of a round was 16 % higher on seeds 11-20 than on
# seeds 1-10; over the five windows of shift 5 it varies by 4 %.
# heuristics_large: every n=200 instance has 160 real and 40 dummy nodes
# and 560 edges, so the merge costs the same on any window.
POOL_SHIFT = {"desk_sweeps": 5, "heuristics_large": 10}
NAMES = tuple(POOL_SHIFT)
F_DM, DEG_AVG = "0.2", 3
HEURISTICS = ("median_sidegaps", "barycenter_sidegaps", "median_kgaps:2", "barycenter_kgaps:2")
EXACT_BUDGET_S = 60.0  # far above any solve in these workloads at the seed commit


def solve_key(n: int, seed: int, algo: str, k: int | None) -> str:
    return f"n{n}_s{seed}/{algo}" + ("" if k is None else f":{k}")


@dataclass
class Round:
    """A round's wall time, split into consecutive pieces at the start of
    each solve, and its solves, to be checked once, in order."""

    pieces: list[float]
    solves: Iterable[Solve]

    @property
    def wall_s(self) -> float:
        return sum(self.pieces)


def _pieces(marks: list[float]) -> list[float]:
    return [b - a for a, b in zip(marks, marks[1:])]


class BenchWorkload:
    """Rounds of `bench.run_bench` calls, CSV and SVG written to a
    temporary directory. Each solve's permutation is captured by wrapping
    `bench.solve_with` for the round, so the gate can recount it.

    Only the orders are kept during the round; the gate's instances are
    generated again afterwards, one at a time, so the worker's peak
    memory stays that of `run_bench` itself."""

    def __init__(self, configs: list[BenchConfig], scratch: Path) -> None:
        self.configs = configs
        self.scratch = scratch
        self.ops_per_round = sum(len(c.cells()) for c in configs)

    def run_round(self) -> Round:
        captured: list[tuple] = []
        marks: list[float] = []
        solve_with = bench.solve_with

        def capture(inst, spec, time_budget_s=300.0):
            started = perf_counter()
            marks.append(started)
            try:
                permutation, status = solve_with(inst, spec, time_budget_s)
            except Exception as exc:  # run_bench writes it as an error row
                captured.append((spec.name, spec.k, None, f"error: {exc}", perf_counter() - started))
                raise
            captured.append((spec.name, spec.k, permutation.order, status, perf_counter() - started))
            return permutation, status

        self.scratch.mkdir(parents=True, exist_ok=True)
        with patched(bench, "solve_with", capture), tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            marks.append(perf_counter())
            for i, config in enumerate(self.configs):
                bench.run_bench(config, Path(tmp) / str(i), jobs=1, time_budget_s=EXACT_BUDGET_S)
            marks.append(perf_counter())
            rows = []
            for i in range(len(self.configs)):
                with open(Path(tmp) / str(i) / "results.csv", newline="", encoding="utf-8") as fh:
                    rows.extend(csv.DictReader(fh))
        if len(rows) != len(captured):
            raise RuntimeError(f"{len(rows)} CSV rows for {len(captured)} solves")
        return Round(_pieces(marks), _bench_solves(captured, rows))


def _bench_solves(captured: list[tuple], rows: list[dict]):
    """The captured solves with their CSV rows and regenerated instances;
    cells of one instance are adjacent, so one instance is alive at a time."""
    current, inst = None, None
    for (algo, k, order, status, latency), row in zip(captured, rows):
        if (row["algo"], row["k"]) != (algo, "" if k is None else str(k)):
            raise RuntimeError(f"CSV row {row['instance_id']} {row['algo']} out of order")
        n, seed = int(row["n"]), int(row["seed"])
        if (n, seed) != current:
            current, inst = (n, seed), generate(GenParams(n, F_DM, DEG_AVG, seed))
        permutation = None if order is None else Permutation(order)
        yield Solve(solve_key(n, seed, algo, k), inst, algo, k, permutation, status, latency, csv_row=row)


class DirectWorkload:
    """Rounds of direct calls into the heuristic pipelines, timed per call.
    The instances are generated once, at set-up."""

    def __init__(self, tasks: list[tuple[int, int, str, int | None]]) -> None:
        self.tasks = tasks
        self.ops_per_round = len(tasks)
        keys = dict.fromkeys((n, s) for n, s, _, _ in tasks)
        self.instances = {(n, s): generate(GenParams(n, F_DM, DEG_AVG, s)) for n, s in keys}

    def run_round(self) -> Round:
        solves = []
        marks = []
        for n, s, algo, k in self.tasks:
            inst = self.instances[(n, s)]
            t0 = perf_counter()
            marks.append(t0)
            try:
                permutation, status = _solve(inst, algo, k), "ok"
            except Exception as exc:  # fault isolation: the gate counts it
                permutation, status = None, f"error: {exc!r}"
            solves.append(Solve(solve_key(n, s, algo, k), inst, algo, k, permutation, status, perf_counter() - t0))
        marks.append(perf_counter())
        return Round(_pieces(marks), solves)


def _solve(inst, algo: str, k: int | None):
    """The permutation of one heuristic pipeline call; the functions are
    looked up at call time so the traced run sees them."""
    base, _, regime = algo.partition("_")
    if regime == "sidegaps":
        return gap_placement.solve_sidegaps(inst, base)
    return gap_placement.solve_kgaps(inst, base, k)


def _config(sweep, values, instances: int, base_params: dict, algos) -> BenchConfig:
    return BenchConfig.from_dict(
        {
            "sweep_param": sweep,
            "values": values,
            "instances": instances,
            "base_params": {"f_dm": F_DM, "deg_avg": DEG_AVG, **base_params},
            "algos": list(algos),
        }
    )


def build(name: str, seed: int, scratch: Path, smoke: bool = False):
    """The workload `name` on workload seed `seed`. `smoke` shrinks every
    round to a few solves on the same reference pool, for tests."""
    if name not in POOL_SHIFT:
        raise ValueError(f"unknown workload {name!r} (choose from {NAMES})")
    rng = random.Random(seed)
    window = seed % POOL_SHIFT[name]
    if name == "desk_sweeps":
        # the desk-scale configs of scripts/experiment_gap_count.py and
        # scripts/experiment_sidegaps_vs_2gaps.py
        instances = 1 if smoke else 20
        base = 1 + window
        gap_count = _config(
            "k", [1, 2, 3, 4, 5], instances, {"n": 16, "seed": base},
            ["median_kgaps", "barycenter_kgaps", "exact_kgaps"],
        )
        sidegaps_vs_2gaps = _config(
            "n", [8, 12, 16, 20], instances, {"seed": base},
            [*HEURISTICS, "exact_sidegaps", "exact_kgaps:2"],
        )
        return BenchWorkload([gap_count, sidegaps_vs_2gaps], scratch)
    # heuristics_large: solve cost grows with k, so the solves fall into one
    # cost class per regime. Five classes of equal size put p50 and p90 (the
    # tail of a 100-solve round) in the middle of a class; with four, every
    # quartile would sit on the jump between two classes and move with the
    # slowest instance of the lower one.
    seeds = range(1 + window, 1 + window + (1 if smoke else 10))
    tasks = [
        (200, s, f"{base}_{regime}", k)
        for s in seeds
        for base in ("median", "barycenter")
        for regime, k in (("sidegaps", None), ("kgaps", 1), ("kgaps", 2), ("kgaps", 3), ("kgaps", 5))
    ]
    rng.shuffle(tasks)
    return DirectWorkload(tasks)
