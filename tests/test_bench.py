from __future__ import annotations

import concurrent.futures
import csv
import math
import os
import pickle
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import desk_config, gen

from oscm_gaps import bench
from oscm_gaps.bench import (
    ALGORITHMS,
    RUN_RECORD_COLUMNS,
    AlgoSpec,
    BenchConfig,
    run_bench,
    solve_with,
)
from oscm_gaps.core import InputError, count_crossings, count_gaps
from oscm_gaps.exact import (
    build_kgap_model,
    enumerate_optima,
    export_model,
    solve_kgap_exact,
)
from oscm_gaps.gap_placement import k_gap_merge, solve_kgaps
from oscm_gaps.heuristics import heuristic_order


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def serial_pool(monkeypatch) -> list[int]:
    """Stand a serial pool in for the process pool; each row crosses a
    pickle round trip, as it does on its way to a worker process. The
    list holds each pool's worker count."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return (fn(pickle.loads(pickle.dumps(item))) for item in items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started


class TestAlgoSpec:
    def test_parse_with_k(self):
        spec = AlgoSpec.parse("median_kgaps:2")
        assert (spec.name, spec.k) == ("median_kgaps", 2)

    def test_parse_integral_k(self):
        # read with as_int, as a k sweep's values are
        spec = AlgoSpec.parse("median_kgaps:2.0")
        assert spec == AlgoSpec("median_kgaps", 2)
        assert type(spec.k) is int

    def test_parse_plain(self):
        assert AlgoSpec.parse("exact_sidegaps") == AlgoSpec("exact_sidegaps")

    @pytest.mark.parametrize(
        "text",
        [
            "frobnicate", "median_kgaps:x", "median_sidegaps:2", "median_kgaps:2.5",
            "median_kgaps:true", "median_kgaps:", "exact_sidegaps:",
        ],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(InputError):
            AlgoSpec.parse(text)

    def test_empty_suffix_refused_in_a_k_sweep(self):
        # the swept k would otherwise fill the empty suffix in silently
        config = {"sweep_param": "k", "values": [2], "instances": 1, "algos": ["median_kgaps:"]}
        with pytest.raises(InputError, match=re.escape("bad k of 'median_kgaps:'")):
            BenchConfig.from_dict(config)

    def test_kgaps_needs_k_at_run_time(self):
        with pytest.raises(InputError):
            solve_with(gen(4, 0.25, 1, 0), AlgoSpec("median_kgaps"))


class TestSolveWith:
    def test_sidegaps_on_no_dummy_instance_matches_plain_heuristic(self):
        inst = gen(8, 0, 2, 3)
        perm, status = solve_with(inst, AlgoSpec("median_sidegaps"))
        expected = heuristic_order(inst, inst.top_ids, "median")
        assert status == "ok"
        assert count_crossings(inst, perm) == count_crossings(inst, expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_kgaps_matches_oracle(self, seed):
        inst = gen(7, 0.4, 2, seed)
        perm, status = solve_with(inst, AlgoSpec("exact_kgaps", 2))
        assert status == "optimal"
        assert count_crossings(inst, perm) == enumerate_optima(inst, (2,))[("kgap", 2)][1]

    @pytest.mark.parametrize(
        "spec",
        # every registry entry, k=2 where it takes one
        [AlgoSpec(name).with_k(2) for name in ALGORITHMS],
    )
    def test_gap_constraints_respected(self, spec):
        inst = gen(7, 0.4, 2, 9)
        perm, status = solve_with(inst, spec, 60.0)
        assert status == ("optimal" if spec.algorithm.exact else "ok")
        report = count_gaps(inst, perm)
        if spec.algorithm.regime == "sidegaps":
            assert report.is_side_gap_permutation
        else:
            assert report.count <= spec.k


class TestRunBench:
    def test_single_cell_csv(self, tmp_path):
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 1,
                "base_params": {"n": 8, "f_dm": "0.25", "deg_avg": 2, "seed": 3},
                "algos": ["median_sidegaps"],
            }
        )
        csv_path, _ = run_bench(config, tmp_path)
        rows = read_rows(csv_path)
        assert len(rows) == 1
        assert list(rows[0].keys()) == list(RUN_RECORD_COLUMNS)
        assert rows[0]["algo"] == "median_sidegaps"
        assert rows[0]["status"] == "ok"

    def test_k_sweep_mean_crossings_nonincreasing(self, tmp_path):
        config = BenchConfig.from_dict(
            {
                "sweep_param": "k",
                "values": [1, 2, 3, 4, 5],
                "instances": 20,
                "base_params": {"n": 16, "f_dm": "0.2", "deg_avg": 3, "seed": 1},
                "algos": ["median_kgaps"],
            }
        )
        csv_path, plots = run_bench(config, tmp_path)
        rows = read_rows(csv_path)
        means = []
        for k in (1, 2, 3, 4, 5):
            values = [int(r["crossings"]) for r in rows if r["k"] == str(k)]
            assert len(values) == 20
            means.append(math.fsum(values) / len(values))
        assert means == sorted(means, reverse=True)
        assert any(p.name == "crossings.svg" for p in plots)

    def test_ratios_at_least_one_when_exact_optimal(self, tmp_path):
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 4,
                "base_params": {"n": 10, "f_dm": "0.3", "deg_avg": 2, "seed": 11},
                "algos": ["median_kgaps:2", "median_sidegaps", "exact_kgaps:2", "exact_sidegaps"],
            }
        )
        rows = read_rows(run_bench(config, tmp_path)[0])
        assert all(r["status"] in ("ok", "optimal") for r in rows)
        for row in rows:
            assert row["ratio_crossings"], row
            assert float(row["ratio_crossings"]) >= 1.0

    def test_zero_crossing_reference_gives_ratio_one(self, tmp_path):
        # this instance's exact optimum is 0 in both regimes
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 1,
                "base_params": {"n": 2, "f_dm": "0", "deg_avg": 1, "seed": 1},
                "algos": ["median_sidegaps", "exact_sidegaps", "median_kgaps:1", "exact_kgaps:1"],
            }
        )
        rows = read_rows(run_bench(config, tmp_path)[0])
        assert [r["optimal_crossings"] for r in rows] == ["0"] * 4
        heuristic = [r for r in rows if r["status"] == "ok"]
        assert [(r["crossings"], r["ratio_crossings"]) for r in heuristic] == [("0", "1.000000")] * 2

    def test_timed_out_exact_row_is_no_reference(self, tmp_path):
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 1,
                "base_params": {"n": 12, "f_dm": "0.2", "deg_avg": 3, "seed": 1},
                "algos": ["median_kgaps:2", "exact_kgaps:2"],
            }
        )
        rows = read_rows(run_bench(config, tmp_path, time_budget_s=0)[0])
        assert [r["status"] for r in rows] == ["ok", "timeout_incumbent"]
        for row in rows:
            assert row["crossings"]
            assert row["optimal_crossings"] == ""
            assert row["ratio_crossings"] == ""
            assert row["ratio_time"] == ""

    @pytest.mark.parametrize("budget", [math.nan, -1.0])
    def test_bad_time_budget_refused_before_any_output(self, tmp_path, budget):
        # refused before the output directory exists, not as one error
        # row per cell
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 1,
                "base_params": {"n": 12, "f_dm": "0.2", "deg_avg": 3, "seed": 1},
                "algos": ["median_kgaps:2", "exact_kgaps:2"],
            }
        )
        with pytest.raises(InputError, match="time budget"):
            run_bench(config, tmp_path / "out", time_budget_s=budget)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused_before_any_output(self, tmp_path, jobs):
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 1,
                "base_params": {"n": 6, "f_dm": "0.2", "deg_avg": 2, "seed": 1},
                "algos": ["median_sidegaps"],
            }
        )
        with pytest.raises(InputError, match=f"jobs must be >= 1, got {jobs}"):
            run_bench(config, tmp_path / "out", jobs=jobs)
        assert not (tmp_path / "out").exists()

    def test_k_sweep_bounds_the_oracle(self, tmp_path):
        # this instance's 1-gap optimum (17) is above its unrestricted one (14)
        base = {"n": 6, "f_dm": "0.5", "deg_avg": 2, "seed": 5}
        config = BenchConfig.from_dict(
            {"sweep_param": "k", "values": [1, 2, 3], "instances": 1, "base_params": base, "algos": ["exact_kgaps"]}
        )
        rows = read_rows(run_bench(config, tmp_path)[0])
        optima = enumerate_optima(gen(**base), (1, 2, 3))
        assert (optima[("kgap", 1)][1], optima["unrestricted"][1]) == (17, 14)
        assert [r["k"] for r in rows] == ["1", "2", "3"]
        for row in rows:
            assert row["status"] == "optimal"
            assert int(row["crossings"]) == optima[("kgap", int(row["k"]))][1]

    def test_oracle_error_rows_do_not_stop_the_harness(self, tmp_path, monkeypatch):
        def fail(inst, k, time_budget_s):
            raise RuntimeError("solver fault")

        monkeypatch.setitem(bench.ALGORITHMS, "exact_kgaps", bench.Algorithm(fail, "kgaps", True))
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 2,
                "base_params": {"n": 6, "f_dm": "0.25", "deg_avg": 2, "seed": 0},
                "algos": ["exact_kgaps:2", "median_kgaps:2", "median_sidegaps"],
            }
        )
        csv_path, _ = run_bench(config, tmp_path)
        rows = read_rows(csv_path)
        failed = [r for r in rows if r["algo"] == "exact_kgaps"]
        others = [r for r in rows if r["algo"] != "exact_kgaps"]
        assert [r["status"] for r in failed] == ["error: solver fault"] * 2
        assert [r["status"] for r in others] == ["ok"] * 4
        # an error row is no ratio reference
        assert all(r["optimal_crossings"] == "" for r in rows)

    def test_exact_run_above_twenty_nodes_writes_optimal_row(self, tmp_path):
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 1,
                "base_params": {"n": 24, "f_dm": "0.2", "deg_avg": 3, "seed": 0},
                "algos": ["exact_kgaps:2"],
            }
        )
        rows = read_rows(run_bench(config, tmp_path)[0])
        assert [(r["n"], r["algo"], r["k"], r["status"]) for r in rows] == [
            ("24", "exact_kgaps", "2", "optimal")
        ]

    def test_deterministic_times_reproducible(self, tmp_path):
        config = BenchConfig.from_dict(
            {
                "sweep_param": "k",
                "values": [1, 2],
                "instances": 2,
                "base_params": {"n": 8, "f_dm": "0.25", "deg_avg": 2, "seed": 7},
                "algos": ["median_kgaps", "barycenter_kgaps"],
            }
        )
        first, _ = run_bench(config, tmp_path / "a", deterministic_times=True)
        second, _ = run_bench(config, tmp_path / "b", deterministic_times=True)
        assert first.read_bytes() == second.read_bytes()

    def test_parallel_matches_sequential(self, tmp_path):
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 3,
                "base_params": {"n": 8, "f_dm": "0.25", "deg_avg": 2, "seed": 2},
                "algos": ["median_sidegaps", "median_kgaps:2"],
            }
        )
        seq, _ = run_bench(config, tmp_path / "seq", jobs=1, deterministic_times=True)
        par, _ = run_bench(config, tmp_path / "par", jobs=2, deterministic_times=True)
        assert seq.read_bytes() == par.read_bytes()

    def test_default_config_is_the_reference_protocol(self):
        config = BenchConfig.default()
        assert config.instances == 20
        assert config.base.n == 40
        assert float(config.base.f_dm) == 0.2
        assert config.base.deg_avg == 3

    def test_default_config_runs_end_to_end(self, tmp_path):
        csv_path, _ = run_bench(BenchConfig.default(), tmp_path)
        rows = read_rows(csv_path)
        assert len(rows) == 80  # 20 instances x 4 heuristic pipelines
        assert {r["n"] for r in rows} == {"40"}
        assert all(r["status"] == "ok" for r in rows)
        for row in rows:
            if row["algo"].endswith("_kgaps"):
                assert int(row["gaps"]) <= int(row["k"])

    @pytest.mark.parametrize(
        "jobs,cpus,expected",
        [(64, 16, 6), (64, 4, 4), (3, 16, 3), (2, 1, None), (1, 16, None)],
    )
    def test_jobs_clamped_to_cells_and_cpus(self, tmp_path, monkeypatch, serial_pool, jobs, cpus, expected):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 3,
                "base_params": {"n": 8, "f_dm": "0.25", "deg_avg": 2, "seed": 2},
                "algos": ["median_sidegaps", "median_kgaps:2"],
            }
        )
        csv_path, _ = run_bench(config, tmp_path, jobs=jobs)
        assert len(read_rows(csv_path)) == 6
        assert serial_pool == ([] if expected is None else [expected])

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "script,rows,instances",
        [("experiment_gap_count", 300, 20), ("experiment_sidegaps_vs_2gaps", 480, 80)],
    )
    def test_each_instance_generated_once_with_its_lookups(
        self, tmp_path, monkeypatch, serial_pool, jobs, script, rows, instances
    ):
        generated, prepared = [], []
        generate, solve = bench.generate, bench.solve_with

        def counting_generate(params):
            generated.append(params)
            return generate(params)

        def checking_solve(inst, spec, time_budget_s):
            prepared.append("neighbor_positions" in vars(inst))
            return solve(inst, spec, time_budget_s)

        monkeypatch.setattr(bench, "generate", counting_generate)
        monkeypatch.setattr(bench, "solve_with", checking_solve)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
        csv_path, _ = run_bench(desk_config(script), tmp_path, jobs=jobs)
        assert len(read_rows(csv_path)) == rows
        assert len(generated) == len(set(generated)) == instances
        assert prepared == [True] * rows
        assert serial_pool == ([] if jobs == 1 else [2])

    @pytest.mark.parametrize("sweep,values", [("n", [8, 10, 12]), ("k", [1, 2, 3])])
    def test_no_instance_outlives_its_last_row(self, tmp_path, monkeypatch, sweep, values):
        config = BenchConfig.from_dict(
            {
                "sweep_param": sweep,
                "values": values,
                "instances": 3,
                "base_params": {"n": 8, "f_dm": "0.25", "deg_avg": 2, "seed": 2},
                "algos": ["median_sidegaps", "barycenter_sidegaps"],
            }
        )
        cells = config.cells()
        last = {params: i for i, (_, _, params, _) in enumerate(cells)}
        alive: dict = {}
        live_counts = []
        generate, solve = bench.generate, bench.solve_with

        def tracking_generate(params):
            inst = generate(params)
            alive[params] = weakref.ref(inst)
            return inst

        def checking_solve(inst, spec, time_budget_s):
            live = [params for params, ref in alive.items() if ref() is not None]
            assert all(last[params] >= len(live_counts) for params in live)
            live_counts.append(len(live))
            return solve(inst, spec, time_budget_s)

        monkeypatch.setattr(bench, "generate", tracking_generate)
        monkeypatch.setattr(bench, "solve_with", checking_solve)
        run_bench(config, tmp_path)
        assert len(live_counts) == len(cells)
        # an n sweep holds one instance at a time, a k sweep all of its own
        assert max(live_counts) == (1 if sweep == "n" else 3)
        assert all(ref() is None for ref in alive.values())

    def test_serial_run_loads_no_process_pool(self):
        code = "import sys, oscm_gaps.cli; print('concurrent.futures.process' in sys.modules)"
        src = str(Path(bench.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "False"


def _gap_budget_entries():
    """Every public entry that takes a gap budget k, as k -> comparable
    output, on an instance with 4 dummies, so that a float k reaches the
    merge DP and the cut sets."""
    inst = gen(8, "0.5", 2, 1)
    real_order = heuristic_order(inst, inst.real_top_ids, "median")
    sweep = {"sweep_param": "k", "instances": 1, "algos": ["median_kgaps"]}
    return {
        "AlgoSpec": lambda k: AlgoSpec("median_kgaps", k),
        "k sweep": lambda k: BenchConfig.from_dict({**sweep, "values": [k]}).values,
        "k_gap_merge": lambda k: k_gap_merge(inst, real_order, k),
        "solve_kgaps": lambda k: solve_kgaps(inst, "median", k),
        "solve_kgap_exact": lambda k: solve_kgap_exact(inst, k).permutation,
        "build_kgap_model": lambda k: export_model(build_kgap_model(inst, k)),
        "enumerate_optima": lambda k: enumerate_optima(inst, (k,)),
    }


class TestGapBudget:
    """k is read once, by `core.as_k`: an integral float is an int, and
    a bool, a fraction or a k below 1 is an input error at every entry."""

    ENTRIES = tuple(_gap_budget_entries())

    @pytest.mark.parametrize("k", [True, 2.5, 0, "x"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_refused(self, entry, k):
        with pytest.raises(InputError):
            _gap_budget_entries()[entry](k)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_integral_float_reads_as_int(self, entry):
        solve = _gap_budget_entries()[entry]
        assert repr(solve(2.0)) == repr(solve(2))

    def test_spec_stores_an_int(self):
        assert type(AlgoSpec("exact_kgaps", 2.0).k) is int

    def test_csv_rows_of_an_integral_float(self, tmp_path):
        def csv_bytes(k, name):
            config = BenchConfig.from_dict(
                {
                    "instances": 2,
                    "base_params": {"n": 8, "f_dm": "0.5", "deg_avg": 2, "seed": 1},
                    "algos": [AlgoSpec("median_kgaps", k), AlgoSpec("exact_kgaps", k)],
                }
            )
            return run_bench(config, tmp_path / name, deterministic_times=True)[0].read_bytes()

        assert csv_bytes(2.0, "float") == csv_bytes(2, "int")
        assert b",exact_kgaps,2," in csv_bytes(2, "int")
