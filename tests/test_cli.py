from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from oscm_gaps.cli import cli
from oscm_gaps.core import count_crossings, load_instance, load_permutation
from oscm_gaps.exact import brute_force_oracle
from oscm_gaps.heuristics import heuristic_order

DATA = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(cli, [str(a) for a in args])


class TestGenerate:
    def test_paper_scale_instance(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        result = invoke(
            runner, "generate", "--n", 40, "--f-dm", "0.2", "--deg-avg", 3,
            "--seed", 1, "--out", out,
        )
        assert result.exit_code == 0, result.output
        inst = load_instance(str(out))
        assert len(inst.bottom) == 40
        assert len(inst.top) == 40
        assert len(inst.dummy_top_ids) == 8

    def test_no_dummy_fraction(self, runner, tmp_path):
        out = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 10, "--f-dm", 0, "--out", out)
        assert load_instance(str(out)).dummy_top_ids == ()

    def test_repeat_is_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            invoke(runner, "generate", "--n", 12, "--f-dm", "0.25", "--deg-avg", 2,
                   "--seed", 9, "--out", out)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_params_exit_2(self, runner, tmp_path):
        result = invoke(runner, "generate", "--n", 0, "--out", tmp_path / "x.json")
        assert result.exit_code == 2


class TestSolve:
    def test_median_sidegaps_no_dummies(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        perm_path = tmp_path / "perm.json"
        invoke(runner, "generate", "--n", 8, "--f-dm", 0, "--deg-avg", 2, "--seed", 4,
               "--out", inst_path)
        result = invoke(runner, "solve", inst_path, "--algo", "median_sidegaps",
                        "--out", perm_path)
        assert result.exit_code == 0, result.output
        inst = load_instance(str(inst_path))
        perm = load_permutation(str(perm_path))
        expected = heuristic_order(inst, inst.top_ids, "median")
        assert count_crossings(inst, perm) == count_crossings(inst, expected)

    def test_exact_kgaps_matches_oracle(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        perm_path = tmp_path / "perm.json"
        invoke(runner, "generate", "--n", 7, "--f-dm", "0.4", "--deg-avg", 2,
               "--seed", 6, "--out", inst_path)
        result = invoke(runner, "solve", inst_path, "--algo", "exact_kgaps", "--k", 2,
                        "--out", perm_path)
        assert result.exit_code == 0, result.output
        inst = load_instance(str(inst_path))
        perm = load_permutation(str(perm_path))
        assert count_crossings(inst, perm) == brute_force_oracle(inst, "kgap", k=2)[1]
        row = result.output.strip().splitlines()[-1].split(",")
        assert row[10] == "optimal"
        assert int(row[8]) <= 2  # recorded gaps respect the mode

    def test_timeout_exit_3_with_incumbent(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        perm_path = tmp_path / "perm.json"
        invoke(runner, "generate", "--n", 30, "--f-dm", "0.2", "--deg-avg", 3,
               "--seed", 0, "--out", inst_path)
        result = invoke(runner, "solve", inst_path, "--algo", "exact_kgaps", "--k", 2,
                        "--time-budget-s", "0.01", "--out", perm_path)
        assert result.exit_code == 3, result.output
        assert perm_path.exists()  # incumbent still written

    def test_missing_instance_exit_2(self, runner, tmp_path):
        result = invoke(runner, "solve", tmp_path / "nope.json",
                        "--algo", "median_sidegaps", "--out", tmp_path / "p.json")
        assert result.exit_code == 2

    def test_unknown_algo_exit_2(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 4, "--out", inst_path)
        result = invoke(runner, "solve", inst_path, "--algo", "sorcery",
                        "--out", tmp_path / "p.json")
        assert result.exit_code == 2


class TestOracleCommand:
    def test_modes_agree_with_library(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 6, "--f-dm", "0.3", "--deg-avg", 2,
               "--seed", 7, "--out", inst_path)
        result = invoke(runner, "oracle", inst_path, "--mode", "sidegap")
        assert result.exit_code == 0
        inst = load_instance(str(inst_path))
        assert f"crossings={brute_force_oracle(inst, 'sidegap')[1]}" in result.output

    def test_refusal_over_nine_top_nodes(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 12, "--out", inst_path)
        result = invoke(runner, "oracle", inst_path)
        assert result.exit_code == 2


class TestBenchCommand:
    def test_small_config(self, runner, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "sweep_param": None,
                    "instances": 1,
                    "base_params": {"n": 8, "f_dm": "0.25", "deg_avg": 2, "seed": 1},
                    "algos": ["median_sidegaps", "median_kgaps:2"],
                }
            )
        )
        result = invoke(runner, "bench", "--config", config, "--out", tmp_path / "out")
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "results.csv").exists()

    def test_exact_guard_exit_2(self, runner, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "sweep_param": None,
                    "instances": 1,
                    "base_params": {"n": 30, "f_dm": "0.2", "deg_avg": 3, "seed": 1},
                    "algos": ["exact_kgaps:2"],
                }
            )
        )
        result = invoke(runner, "bench", "--config", config, "--out", tmp_path / "out")
        assert result.exit_code == 2


    def test_jobs_below_one_exit_2(self, runner, tmp_path):
        result = invoke(runner, "bench", "--jobs", 0, "--out", tmp_path / "out")
        assert result.exit_code == 2
        assert not (tmp_path / "out").exists()

class TestDraw:
    def test_tiny_instance_glyph_counts(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        perm_path = tmp_path / "perm.json"
        invoke(runner, "generate", "--n", 2, "--f-dm", 0, "--deg-avg", 2, "--seed", 1,
               "--out", inst_path)
        invoke(runner, "solve", inst_path, "--algo", "median_sidegaps", "--out", perm_path)
        svg_path = tmp_path / "out.svg"
        result = invoke(runner, "draw", inst_path, perm_path, "--out", svg_path)
        assert result.exit_code == 0, result.output
        svg = svg_path.read_text()
        assert svg.count("node-real") + svg.count("node-dummy") == 4
        assert svg.count('class="edge"') <= 4

    def test_two_gap_permutation_two_dashed_rects(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        perm_path = tmp_path / "perm.json"
        invoke(runner, "generate", "--n", 8, "--f-dm", "0.25", "--deg-avg", 2,
               "--seed", 12, "--out", inst_path)
        inst = load_instance(str(inst_path))
        dummies = list(inst.dummy_top_ids)
        reals = list(inst.real_top_ids)
        order = [dummies[0]] + reals + dummies[1:]
        perm_path.write_text(json.dumps({"order": order}))
        svg_path = tmp_path / "out.svg"
        invoke(runner, "draw", inst_path, perm_path, "--out", svg_path)
        assert svg_path.read_text().count('class="gap"') == 2

    def test_mismatched_permutation_exit_2(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 4, "--out", inst_path)
        perm_path = tmp_path / "perm.json"
        perm_path.write_text(json.dumps({"order": [1, 2, 3]}))
        result = invoke(runner, "draw", inst_path, perm_path, "--out", tmp_path / "x.svg")
        assert result.exit_code == 2
