"""Acceptance suite: one test per criterion, with stated tolerances.

Each test asserts its criterion exactly (all tolerances here are exact
equality or hard inequalities) and prints a short report line; the
conftest terminal summary lists PASS/FAIL per criterion.
"""

from __future__ import annotations

import csv
import math
import random
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import gen, induced, load_script, precedes
from oracles import naive_mixed_crossings, naive_pair_crossings, reference_dummy_order

from oscm_gaps.cli import cli
from oscm_gaps.core import (
    Permutation,
    count_crossings,
    count_gaps,
)
from oscm_gaps.exact import (
    build_base_oscm_model,
    enumerate_optima,
    objective_value,
    solve_kgap_exact,
    solve_sidegap_exact,
    solve_unrestricted_exact,
)
from oscm_gaps.gap_placement import (
    k_gap_merge,
    solve_kgaps,
    solve_sidegaps,
)
from oscm_gaps.generator import GenParams, generate
from oscm_gaps.heuristics import heuristic_order

DATA = Path(__file__).parent / "data"

SMALL_SWEEP = [
    (n, f_dm, deg_avg, seed)
    for n, seeds in ((4, 5), (5, 5), (6, 5), (7, 5), (8, 3))
    for f_dm in ("0", "0.25", "0.5")
    for deg_avg in (1, 2, 3)
    for seed in range(seeds)
]

TREND_PARAMS = [GenParams(16, "0.2", 3, seed) for seed in range(20)]


@pytest.fixture(scope="session")
def small_corpus():
    """>=200 instances with at most 8 top nodes, plus their enumeration
    optima for every acceptance mode."""
    corpus = []
    for n, f_dm, deg_avg, seed in SMALL_SWEEP:
        inst = gen(n, f_dm, deg_avg, seed)
        optima = enumerate_optima(inst, ks=(1, 2, 3))
        corpus.append((inst, optima))
    assert len(corpus) >= 200
    return corpus


@pytest.fixture(scope="session")
def trend_results():
    """Exact optima on the 20 trend instances: k in {1,2,3,|dummies|} and
    the side-gap regime."""
    results = []
    for params in TREND_PARAMS:
        inst = generate(params)
        n_dummy = len(inst.dummy_top_ids)
        per_k = {}
        for k in sorted({1, 2, 3, n_dummy}):
            result = solve_kgap_exact(inst, k, 300.0)
            assert result.status == "optimal"
            per_k[k] = result.objective
        side = solve_sidegap_exact(inst, 300.0)
        assert side.status == "optimal"
        results.append((inst, n_dummy, per_k, side.objective))
    return results


def test_criterion_1_exact_solver_matches_oracle(small_corpus):
    started = time.perf_counter()
    for inst, optima in small_corpus:
        assert solve_unrestricted_exact(inst).objective == optima["unrestricted"][1]
        assert solve_sidegap_exact(inst).objective == optima["sidegap"][1]
        for k in (1, 2, 3):
            assert solve_kgap_exact(inst, k).objective == optima[("kgap", k)][1]
    print(
        f"criterion 1: {len(small_corpus)} instances x 5 modes match the oracle "
        f"exactly ({time.perf_counter() - started:.1f}s)"
    )


def test_criterion_2_sidegap_composition_exact(small_corpus):
    for inst, optima in small_corpus:
        merged = solve_sidegap_exact(inst).permutation
        assert count_crossings(inst, merged) == optima["sidegap"][1]
    print(f"criterion 2: exact-base side-gap composition optimal on {len(small_corpus)} instances")


def _merge_minima_by_enumeration(inst, real_order, kmax):
    """min mixed crossings per k<=kmax over every order-preserving merge."""
    from oracles import all_bounded_gap_merges

    kind = inst.top_kind
    dummy_order = reference_dummy_order(inst)
    minima = {k: None for k in range(1, kmax + 1)}
    for order in all_bounded_gap_merges(
        real_order.order, dummy_order, lambda v: kind[v] == "dummy", kmax
    ):
        pi2 = Permutation(order)
        gaps = count_gaps(inst, pi2).count
        mixed = naive_mixed_crossings(inst, pi2)
        for k in range(max(gaps, 1), kmax + 1):
            if minima[k] is None or mixed < minima[k]:
                minima[k] = mixed
    return minima


def test_criterion_3_kgap_merge_matches_exhaustive():
    started = time.perf_counter()
    cases = 0
    shapes = [(6, "0.4"), (7, "0.45"), (8, "0.45"), (9, "0.45")]
    for n, f_dm in shapes:
        for deg_avg in (2, 3):
            for seed in range(16):
                inst = gen(n, f_dm, deg_avg, seed)
                assert len(inst.real_top_ids) <= 5
                assert 2 <= len(inst.dummy_top_ids) <= 4
                real_order = heuristic_order(inst, inst.real_top_ids, "median")
                minima = _merge_minima_by_enumeration(inst, real_order, 4)
                for k in (1, 2, 3, 4):
                    _, mixed = k_gap_merge(inst, real_order, k)
                    assert mixed == minima[k], (n, f_dm, deg_avg, seed, k)
                    cases += 1
    assert cases >= 500
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    print(f"criterion 3: {cases} merge cases match exhaustive enumeration ({elapsed:.1f}s)")


def test_criterion_4_median_three_approximation(small_corpus):
    for inst, optima in small_corpus:
        side = count_crossings(inst, solve_sidegaps(inst, "median"))
        assert side <= 3 * optima["sidegap"][1]
        for k in (1, 2, 3):
            achieved = count_crossings(inst, solve_kgaps(inst, "median", k))
            assert achieved <= 3 * optima[("kgap", k)][1]
    print(f"criterion 4: median pipelines within 3x optimum on {len(small_corpus)} instances")


def _assert_output_invariants(inst, pi2, side_gap=False, k=None):
    dummies = reference_dummy_order(inst)
    assert induced(pi2, inst.dummy_top_ids).order == dummies
    for i, d1 in enumerate(dummies):
        for d2 in dummies[i + 1 :]:
            first, second = (d1, d2) if precedes(pi2, d1, d2) else (d2, d1)
            assert naive_pair_crossings(inst, first, second) == 0
    report = count_gaps(inst, pi2)
    if side_gap:
        assert report.is_side_gap_permutation
    if k is not None:
        assert report.count <= k


def test_criterion_5_output_invariants(small_corpus):
    checked = 0
    for inst, _ in small_corpus:
        for kind in ("median", "barycenter"):
            _assert_output_invariants(inst, solve_sidegaps(inst, kind), side_gap=True)
            checked += 1
            for k in (1, 2):
                _assert_output_invariants(inst, solve_kgaps(inst, kind, k), k=k)
                checked += 1
        _assert_output_invariants(inst, solve_sidegap_exact(inst).permutation, side_gap=True)
        result = solve_kgap_exact(inst, 2)
        _assert_output_invariants(inst, result.permutation, k=2)
        checked += 2
    print(f"criterion 5: canonical-dummy/gap invariants hold for {checked} solver outputs")


def test_criterion_6_diminishing_returns(trend_results):
    means = {}
    for inst, n_dummy, per_k, _ in trend_results:
        ks = sorted(per_k)
        values = [per_k[k] for k in ks]
        assert values == sorted(values, reverse=True), "per-instance monotonicity"
        for k in ks:
            means.setdefault(k, []).append(per_k[k])
    summary = {k: math.fsum(v) / len(v) for k, v in sorted(means.items())}
    plateau = [
        per_k[3] - per_k[max(per_k)] for _, _, per_k, _ in trend_results if 3 in per_k
    ]
    print(
        "criterion 6: mean exact crossings by k: "
        + ", ".join(f"k={k}: {m:.1f}" for k, m in summary.items())
        + f"; k=3 vs k=|dummies| plateau mean diff {math.fsum(plateau) / len(plateau):.2f} "
        "(reported, not asserted)"
    )


def test_criterion_7_sidegap_close_to_two_gaps(trend_results):
    diffs = []
    for inst, _, per_k, side_optimal in trend_results:
        assert side_optimal >= per_k[2]  # side gaps are a 2-gap special case
        diffs.append(side_optimal - per_k[2])
    mean_diff = math.fsum(diffs) / len(diffs)
    mean_two_gap = math.fsum(per_k[2] for _, _, per_k, _ in trend_results) / len(trend_results)
    print(
        f"criterion 7: mean(OPT_sidegap - OPT_2gap) = {mean_diff:.2f} "
        f"(mean OPT_2gap {mean_two_gap:.1f}; reported for qualitative comparison)"
    )


def test_criterion_8_crossing_count_consistency():
    started = time.perf_counter()
    instances = 0
    for n in range(6, 13):
        for seed in range(15):
            f_dm = ("0", "0.25", "0.5")[seed % 3]
            deg_avg = (1, 2, 3)[seed % 3]
            inst = gen(n, f_dm, deg_avg, seed)
            model = build_base_oscm_model(inst, inst.top_ids)
            rng = random.Random(1000 * n + seed)
            for _ in range(10):
                order = list(inst.top_ids)
                rng.shuffle(order)
                pi2 = Permutation(tuple(order))
                assert count_crossings(inst, pi2) == objective_value(model, pi2)
            instances += 1
    elapsed = time.perf_counter() - started
    assert instances >= 100
    assert elapsed < 10
    print(
        f"criterion 8: inversion count == matrix sum on {instances} instances "
        f"x 10 permutations ({elapsed:.1f}s)"
    )


def test_criterion_9_determinism_fixtures(tmp_path):
    runner = CliRunner()

    out = tmp_path / "instance.json"
    result = runner.invoke(
        cli,
        ["generate", "--n", "8", "--f-dm", "0.25", "--deg-avg", "2", "--seed", "42",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (DATA / "golden_instance.json").read_bytes()

    bench_dir = tmp_path / "bench"
    result = runner.invoke(
        cli,
        ["bench", "--config", str(DATA / "golden_bench_config.json"),
         "--out", str(bench_dir), "--jobs", "1", "--deterministic-times"],
    )
    assert result.exit_code == 0, result.output
    assert (bench_dir / "results.csv").read_bytes() == (
        DATA / "golden_bench_results.csv"
    ).read_bytes()

    svg = tmp_path / "drawing.svg"
    result = runner.invoke(
        cli,
        ["draw", str(DATA / "golden_seed7_instance.json"),
         str(DATA / "golden_seed7_median_sidegaps.json"), "--out", str(svg)],
    )
    assert result.exit_code == 0, result.output
    assert svg.read_bytes() == (DATA / "golden_drawing.svg").read_bytes()
    print("criterion 9: generate, bench --jobs=1, and draw reproduce golden bytes")


# exact crossings of the first two paper-scale instances (seeds 1 and 2):
# gap_count by (k, seed), sidegaps_vs_2gaps by (n, seed, algorithm)
PAPER_SCALE_OPTIMA = {
    "experiment_gap_count": {
        (1, 1, "exact_kgaps"): 1930, (1, 2, "exact_kgaps"): 1994,
        (2, 1, "exact_kgaps"): 1829, (2, 2, "exact_kgaps"): 1919,
        (3, 1, "exact_kgaps"): 1809, (3, 2, "exact_kgaps"): 1916,
        (4, 1, "exact_kgaps"): 1803, (4, 2, "exact_kgaps"): 1915,
        (5, 1, "exact_kgaps"): 1802, (5, 2, "exact_kgaps"): 1915,
    },
    "experiment_sidegaps_vs_2gaps": {
        (10, 1, "exact_sidegaps"): 105, (10, 1, "exact_kgaps"): 103,
        (10, 2, "exact_sidegaps"): 75, (10, 2, "exact_kgaps"): 75,
        (20, 1, "exact_sidegaps"): 407, (20, 1, "exact_kgaps"): 403,
        (20, 2, "exact_sidegaps"): 357, (20, 2, "exact_kgaps"): 350,
        (30, 1, "exact_sidegaps"): 934, (30, 1, "exact_kgaps"): 902,
        (30, 2, "exact_sidegaps"): 1033, (30, 2, "exact_kgaps"): 1027,
        (40, 1, "exact_sidegaps"): 1847, (40, 1, "exact_kgaps"): 1829,
        (40, 2, "exact_sidegaps"): 1997, (40, 2, "exact_kgaps"): 1919,
    },
}


def test_criterion_10_paper_scale_exact_reference(tmp_path, monkeypatch):
    started = time.perf_counter()
    heuristic_rows = 0
    for name, optima in PAPER_SCALE_OPTIMA.items():
        out = tmp_path / name
        monkeypatch.setattr(sys, "argv", [name, "--paper-scale", "--instances", "2", "--out", str(out)])
        assert load_script(name).main() == 0
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        exact = {}
        for row in rows:
            if row["algo"].startswith("exact_"):
                assert row["status"] == "optimal", row
                swept = int(row["k"] if name == "experiment_gap_count" else row["n"])
                exact[(swept, int(row["seed"]), row["algo"])] = int(row["crossings"])
            else:
                assert float(row["ratio_crossings"]) >= 1.0, row
                heuristic_rows += 1
        assert exact == optima
    elapsed = time.perf_counter() - started
    print(
        f"criterion 10: both scripts at paper scale prove {sum(map(len, PAPER_SCALE_OPTIMA.values()))} "
        f"exact rows; {heuristic_rows} heuristic ratios >= 1 ({elapsed:.1f}s)"
    )
