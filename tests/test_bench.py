from __future__ import annotations

import csv
import math
from pathlib import Path

import pytest

from conftest import gen

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
from oscm_gaps.exact import brute_force_oracle
from oscm_gaps.heuristics import heuristic_order


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestAlgoSpec:
    def test_parse_with_k(self):
        spec = AlgoSpec.parse("median_kgaps:2")
        assert (spec.name, spec.k) == ("median_kgaps", 2)

    def test_parse_plain(self):
        assert AlgoSpec.parse("exact_sidegaps") == AlgoSpec("exact_sidegaps")

    @pytest.mark.parametrize("text", ["frobnicate", "median_kgaps:x", "median_sidegaps:2"])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(InputError):
            AlgoSpec.parse(text)

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
        assert count_crossings(inst, perm) == brute_force_oracle(inst, "kgap", k=2)[1]

    @pytest.mark.parametrize(
        "spec",
        # every registry entry, k=2 where it is required, plus the oracle's
        # bounded-gap mode
        [AlgoSpec(name).with_k(2) for name in ALGORITHMS] + [AlgoSpec("oracle", 2)],
    )
    def test_gap_constraints_respected(self, spec):
        inst = gen(7, 0.4, 2, 9)
        perm, status = solve_with(inst, spec, 60.0)
        assert status == ("optimal" if spec.algorithm.exact else "ok")
        report = count_gaps(inst, perm)
        if spec.algorithm.regime == "sidegaps":
            assert report.is_side_gap_permutation
        elif spec.k is not None:
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

    def test_oracle_error_rows_do_not_stop_the_harness(self, tmp_path):
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 2,
                "base_params": {"n": 12, "f_dm": "0.25", "deg_avg": 2, "seed": 0},
                "algos": ["oracle", "median_sidegaps"],
            }
        )
        rows = read_rows(run_bench(config, tmp_path)[0])
        oracle_rows = [r for r in rows if r["algo"] == "oracle"]
        other_rows = [r for r in rows if r["algo"] != "oracle"]
        assert all(r["status"].startswith("error:") for r in oracle_rows)
        assert all(r["status"] == "ok" for r in other_rows)

    def test_exact_size_guard(self, tmp_path):
        config = BenchConfig.from_dict(
            {
                "sweep_param": None,
                "instances": 1,
                "base_params": {"n": 24, "f_dm": "0.2", "deg_avg": 3, "seed": 0},
                "algos": ["exact_kgaps:2"],
            }
        )
        with pytest.raises(InputError):
            run_bench(config, tmp_path)

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
    def test_jobs_clamped_to_cells_and_cpus(self, tmp_path, monkeypatch, jobs, cpus, expected):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
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
        assert started == ([] if expected is None else [expected])
