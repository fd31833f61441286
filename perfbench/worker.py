"""One workload run in its own process, so peak memory is per workload.

Started by run.py. With --setup-only it imports the package, loads the
references and builds the workload's inputs, then exits. Otherwise it runs
rounds for --seconds (at least MIN_ROUNDS), checks every solve with the
gate after its round, and prints one JSON object: the metrics of this process plus the
attempted and failed counts and the first failure messages.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oscm_gaps import bench, exact, gap_placement  # noqa: E402

OUT = HERE / ".out"
REFERENCE = HERE / "reference.json"
MIN_ROUNDS = 3
# Latency samples are each solve's best time over the run's rounds. The
# tail is the highest of TAIL_PERCENTILES with at least ten samples beyond
# it, so it is fixed per workload.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
LAYERS = (
    "gap_placement.k_gap_merge",
    "gap_placement.side_gap_merge",
    "heuristics.heuristic_order",
    "exact.search",
    "exact.model_build",
    "core.pairwise_crossings",
    "exact.incumbent",
    "generator.generate",
    "core.count_crossings",
    "core.count_gaps",
    "draw.svg_line_chart",
    "bench.run_bench",
)


def tail_percentile(samples: int) -> int:
    for pct in TAIL_PERCENTILES:
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return 50


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def best(rows: list[list[float]]) -> list[float]:
    """Each position's minimum over the rounds. A round repeats the same
    solves in the same order, so position i is the same piece of work in
    every round; the minimum filters the machine's bursts of slowness,
    which last seconds."""
    return [min(column) for column in zip(*rows)]


def run(wl, refs: dict, seconds: float, recorder: spans.SpanRecorder | None):
    """Rounds until the run, checks included, would exceed `seconds`; with
    a recorder, every second round is traced. Returns
    (rounds as (wall-time pieces, per-solve seconds, traced), attempted,
    failure messages). Solves are dropped once checked, so the worker's
    memory is the program's, not the outputs'."""
    modules = {"bench": bench, "exact": exact, "gap_placement": gap_placement}
    rounds, failures, attempted = [], [], 0
    oracle_cache: dict = {}
    started = perf_counter()
    while True:
        traced = recorder is not None and len(rounds) % 2 == 1
        attempted += wl.ops_per_round
        begun = perf_counter()
        try:
            if traced:
                recorder.run_id = len(rounds)
                with recorder.installed(modules):
                    result = wl.run_round()
            else:
                result = wl.run_round()
        except Exception:  # the whole round is lost; report and stop
            failures.extend([traceback.format_exc()] * wl.ops_per_round)
            break
        times = []
        try:
            for solve in result.solves:
                times.append(solve.latency_s)
                if msg := gate.check(solve, refs, oracle_cache):
                    failures.append(msg)
        except Exception:  # a round whose outputs cannot be read
            failures.append(traceback.format_exc())
        failures.extend(["solve missing from round"] * (wl.ops_per_round - len(times)))
        rounds.append((result.pieces, times, traced))
        now = perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - started + (now - begun) > seconds:
            break
    return rounds, attempted, failures


def end_to_end(wl, rounds) -> tuple[dict, dict]:
    """wall_s is the sum over the round's pieces of each piece's best time;
    see `best`."""
    wall = sum(best([pieces for pieces, _, _ in rounds]))
    latencies = [t * 1000.0 for t in best([times for _, times, _ in rounds])]
    tail = tail_percentile(len(latencies))
    return {
        "wall_s": (wall, "s"),
        "solves_per_s": (wl.ops_per_round / wall, "1/s"),
        "solve_ms_p50": (percentile(latencies, 50), "ms"),
        "solve_ms_tail": (percentile(latencies, tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {"solve_samples": len(latencies), "tail_percentile": tail, "rounds": len(rounds)}


def per_layer(recorder: spans.SpanRecorder, rounds) -> dict:
    traced_ids = [i for i, (_, _, traced) in enumerate(rounds) if traced]
    self_s = recorder.self_times()
    counts = recorder.counts()
    nodes = recorder.nodes()

    def median_over_rounds(value) -> float:
        return statistics.median(value(i) for i in traced_ids)

    metrics = {
        f"{layer}.self_ms": (median_over_rounds(lambda i: self_s.get((i, layer), 0.0) * 1000.0), "ms")
        for layer in LAYERS
    }
    metrics["gap_placement.k_gap_merge.calls"] = (
        median_over_rounds(lambda i: counts.get((i, "gap_placement.k_gap_merge"), 0)), "count"
    )
    metrics["exact.search.nodes"] = (median_over_rounds(lambda i: nodes.get(i, 0)), "count")
    metrics["exact.search.nodes_per_s"] = (
        median_over_rounds(
            lambda i: nodes.get(i, 0) / self_s[(i, "exact.search")] if nodes.get(i) else 0.0
        ),
        "1/s",
    )
    initial = final = 0
    for _, model, start, result in recorder.searches:
        initial += exact.objective_value(model, start)
        final += result.objective
    metrics["exact.incumbent_ratio"] = (initial / final if final else 0.0, "ratio")
    untraced = sum(best([pieces for pieces, _, traced in rounds if not traced]))
    traced = sum(best([pieces for pieces, _, traced in rounds if traced]))
    metrics["trace_overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    refs = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
    wl = workloads.build(args.workload, args.seed, OUT / "tmp")
    if args.setup_only:
        return 0

    recorder = spans.SpanRecorder() if args.trace else None
    rounds, attempted, failures = run(wl, refs, args.seconds, recorder)
    report = {"attempted": attempted, "failed": len(failures), "failures": failures[:5]}
    if len(rounds) >= (1 if recorder is None else 2):  # a traced run needs both kinds
        if recorder is None:
            report["metrics"], report["info"] = end_to_end(wl, rounds)
        else:
            report["metrics"] = per_layer(recorder, rounds)
            recorder.write(OUT / f"spans-{args.workload}.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
