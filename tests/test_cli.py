from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import mk_instance

from oscm_gaps.bench import ALGORITHMS
from oscm_gaps.cli import cli
from oscm_gaps.core import count_crossings, load_instance, load_permutation, save_instance
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

    def test_algo_choices_are_the_registry(self):
        algo = next(p for p in cli.commands["solve"].params if p.name == "algo")
        assert list(algo.type.choices) == list(ALGORITHMS)

    @pytest.mark.parametrize(
        "kinds, f_dm", [("rr", "0"), ("dd", "1")], ids=["edgeless_reals", "no_reals"]
    )
    def test_record_reports_measured_degree(self, runner, tmp_path, kinds, f_dm):
        # edgeless dummies are valid only when no real node exists to attach
        # to, so the no-real case has dummies in both layers
        inst_path = tmp_path / "inst.json"
        save_instance(mk_instance(kinds, kinds, []), str(inst_path))
        result = invoke(runner, "solve", inst_path, "--algo", "median_kgaps", "--k", 1,
                        "--out", tmp_path / "p.json")
        assert result.exit_code == 0, result.output
        row = result.output.strip().splitlines()[-1].split(",")
        assert row[:5] == ["inst", "0", "2", f_dm, "0"]


    VALID = {
        "bottom": [{"id": 0, "kind": "real"}, {"id": 1, "kind": "real"}],
        "top": [{"id": 2, "kind": "real"}, {"id": 3, "kind": "dummy"}],
        "edges": [[0, 2], [1, 3]],
        "pi1": [0, 1],
    }

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"edges": [[0, 2], [1, 3], [1, 9]]}, "edge not bipartite: (1, 9)"),
            ({"pi1": [0]}, "pi1 is not a permutation"),
            ({"top": [{"id": 2, "kind": "real"}, {"id": 1, "kind": "dummy"}],
              "edges": [[0, 2], [0, 1]]}, "duplicate node id 1"),
            ({"edges": [[0, 2], [0, 3], [1, 3]]}, "top node 3 has degree 2"),
        ],
        ids=["unknown_edge_id", "pi1_short", "duplicate_id", "dummy_two_edges"],
    )
    def test_malformed_instance_exit_2(self, runner, tmp_path, change, message):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps({**self.VALID, **change}))
        result = invoke(runner, "solve", inst_path, "--algo", "exact_kgaps", "--k", 1,
                        "--out", tmp_path / "p.json")
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "p.json").exists()


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

    SMALL = {
        "sweep_param": None,
        "instances": 1,
        "base_params": {"n": 6, "f_dm": "0.2", "deg_avg": 2, "seed": 1},
        "algos": ["median_sidegaps"],
    }

    @pytest.mark.parametrize(
        "config, message",
        [
            (["median_sidegaps"], "must be a JSON object"),
            ({**SMALL, "instances": "abc"}, "bad instances: 'abc'"),
            ({**SMALL, "base_params": {"seed": "s"}}, "bad seed: 's'"),
            ({**SMALL, "sweep_param": "n", "values": ["abc"]}, "bad n: 'abc'"),
            ({**SMALL, "sweep_param": "k", "values": ["x"]}, "bad k: 'x'"),
            ({**SMALL, "algos": [5]}, "algorithm must be a string"),
            (
                {**SMALL, "sweep_param": "k", "values": [2.7], "algos": ["median_kgaps"]},
                "k must be an integer, got 2.7",
            ),
            ({**SMALL, "sweep_param": "k", "values": [2, 0]}, "k must be >= 1, got 0"),
            ({**SMALL, "algos": "median_sidegaps"}, "algos must be a list"),
            ({**SMALL, "sweep": "n"}, "unknown bench config key 'sweep'"),
            ({**SMALL, "base_params": {"n_nodes": 16}}, "unknown base_params key 'n_nodes'"),
        ],
        ids=[
            "list_config", "instances_text", "seed_text", "n_text", "k_text",
            "algo_number", "k_fraction", "k_zero", "algos_string", "unknown_key",
            "unknown_base_key",
        ],
    )
    def test_malformed_config_exit_2(self, runner, tmp_path, config, message):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        result = invoke(runner, "bench", "--config", config_path, "--out", tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert message in result.output

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
