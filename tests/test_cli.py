from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import mk_instance

from oscm_gaps import bench
from oscm_gaps.bench import ALGORITHMS
from oscm_gaps.cli import cli
from oscm_gaps.core import count_crossings, load_instance, load_permutation, save_instance
from oscm_gaps.exact import enumerate_optima
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

    def test_integral_floats_write_the_golden_instance(self, runner, tmp_path):
        # --n and --seed are read by GenParams, as a config's values are
        out = tmp_path / "inst.json"
        result = invoke(runner, "generate", "--n", "8.0", "--f-dm", "0.25", "--deg-avg", 2,
                        "--seed", "42.0", "--out", out)
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (DATA / "golden_instance.json").read_bytes()


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
        assert count_crossings(inst, perm) == enumerate_optima(inst, (2,))[("kgap", 2)][1]
        row = result.output.strip().splitlines()[-1].split(",")
        assert row[10] == "optimal"
        assert int(row[8]) <= 2  # recorded gaps respect the mode

    def test_solve_timer_starts_on_a_prepared_instance(self, runner, tmp_path, monkeypatch):
        # the lookups are built before the timer, as in a bench row
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 8, "--seed", 4, "--out", inst_path)
        prepared = []
        solve = bench.solve_with

        def checking_solve(inst, spec, time_budget_s):
            prepared.append("neighbor_positions" in vars(inst))
            return solve(inst, spec, time_budget_s)

        monkeypatch.setattr(bench, "solve_with", checking_solve)
        result = invoke(runner, "solve", inst_path, "--algo", "median_sidegaps",
                        "--out", tmp_path / "perm.json")
        assert result.exit_code == 0, result.output
        assert prepared == [True]

    def test_timeout_exit_3_with_incumbent(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        perm_path = tmp_path / "perm.json"
        invoke(runner, "generate", "--n", 30, "--f-dm", "0.2", "--deg-avg", 3,
               "--seed", 0, "--out", inst_path)
        # a zero budget runs out before the first cut set, on any machine
        result = invoke(runner, "solve", inst_path, "--algo", "exact_kgaps", "--k", 2,
                        "--time-budget-s", "0", "--out", perm_path)
        assert result.exit_code == 3, result.output
        assert perm_path.exists()  # incumbent still written

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_bad_time_budget_exit_2(self, runner, tmp_path, budget):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 8, "--seed", 1, "--out", inst_path)
        result = invoke(runner, "solve", inst_path, "--algo", "exact_kgaps", "--k", 2,
                        "--time-budget-s", budget, "--out", tmp_path / "perm.json")
        assert result.exit_code == 2, result.output
        assert "--time-budget-s" in result.output
        assert not (tmp_path / "perm.json").exists()

    def test_infinite_budget_proves(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 8, "--seed", 1, "--out", inst_path)
        result = invoke(runner, "solve", inst_path, "--algo", "exact_kgaps", "--k", 2,
                        "--time-budget-s", "inf", "--out", tmp_path / "perm.json")
        assert result.exit_code == 0, result.output
        assert ",optimal," in result.output

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

    def test_oracle_is_no_algorithm(self, runner, tmp_path):
        # the oracle is its own command, not a registry entry
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 4, "--out", inst_path)
        result = invoke(runner, "solve", inst_path, "--algo", "oracle",
                        "--out", tmp_path / "p.json")
        assert result.exit_code == 2
        assert all(name in result.output for name in ALGORITHMS)

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
            ({"top": [{"id": 2.7, "kind": "real"}, {"id": 3, "kind": "dummy"}]},
             "top node id must be an integer, got 2.7"),
            ({"edges": [[0, 2.9], [1, 3]]}, "edge end must be an integer, got 2.9"),
            ({"pi1": [0, 1.5]}, "pi1 id must be an integer, got 1.5"),
            ({"bottom": [{"id": 0, "kind": "real"}, {"id": True, "kind": "real"}]},
             "bad bottom node id: True"),
            ({"edges": [[0, 2], [True, 3]]}, "bad edge end: True"),
            ({"top": [5, {"id": 3, "kind": "dummy"}]}, "bad top node entry: 5"),
            ({"bottom": [{"id": 0, "kind": "real"}, {"id": 1, "kind": "dummy"}],
              "edges": [[0, 2], [1, 2], [1, 3]]}, "bottom node 1 has degree 2"),
        ],
        ids=[
            "unknown_edge_id", "pi1_short", "duplicate_id", "dummy_two_edges",
            "fractional_id", "fractional_edge_end", "fractional_pi1", "boolean_id",
            "boolean_edge_end", "node_not_object", "bottom_dummy_two_edges",
        ],
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
        assert f"crossings={enumerate_optima(inst)['sidegap'][1]}" in result.output

    @pytest.mark.parametrize("mode, k", [("unrestricted", 3), ("sidegap", 0), ("sidegap", 2)])
    def test_k_outside_kgap_mode_exit_2(self, runner, tmp_path, mode, k):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 6, "--out", inst_path)
        result = invoke(runner, "oracle", inst_path, "--mode", mode, "--k", k)
        assert result.exit_code == 2
        assert f"{mode} mode takes no k" in result.output

    @pytest.mark.parametrize(
        "k_args, message", [([], "kgap mode requires k"), (["--k", 0], "k must be >= 1, got 0")]
    )
    def test_kgap_without_valid_k_exit_2(self, runner, tmp_path, k_args, message):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 6, "--out", inst_path)
        result = invoke(runner, "oracle", inst_path, "--mode", "kgap", *k_args)
        assert result.exit_code == 2
        assert message in result.output

    def test_refusal_over_nine_top_nodes(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 12, "--out", inst_path)
        result = invoke(runner, "oracle", inst_path)
        assert result.exit_code == 2


class TestGapBudgetText:
    """k is read by `core.as_k` wherever it is given, so `solve --k`,
    `oracle --k`, a `name:k` suffix and a k sweep accept or refuse each
    text alike: exit code 0 or 2, never an internal error."""

    TEXTS = [2, "2", "2.0", "2.5", "true", "x", "0"]
    ACCEPTED = [2, "2", "2.0"]

    def test_every_front_end_reads_k_alike(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 6, "--f-dm", "0.5", "--deg-avg", 2, "--seed", 3,
               "--out", inst_path)

        def run_config(name, **config):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"instances": 1, "base_params": {"n": 6}, **config}))
            return invoke(runner, "bench", "--config", path, "--out", tmp_path / name)

        verdicts, records = {}, {}
        for i, k in enumerate(self.TEXTS):
            runs = {
                "solve": invoke(runner, "solve", inst_path, "--algo", "median_kgaps", "--k", k,
                                "--out", tmp_path / f"perm{i}.json"),
                "oracle": invoke(runner, "oracle", inst_path, "--mode", "kgap", "--k", k),
                "suffix": run_config(f"suffix{i}", algos=[f"median_kgaps:{k}"]),
                "sweep": run_config(f"sweep{i}", sweep_param="k", values=[k],
                                    algos=["median_kgaps"]),
            }
            verdicts[k] = {front: run.exit_code for front, run in runs.items()}
            if k in self.ACCEPTED:
                assert runs["oracle"].output.startswith("mode=kgap k=2 "), runs["oracle"].output
                record = runs["solve"].output.splitlines()[-1].split(",")
                records[k] = record[:9] + record[10:]  # all but wall_time_ms
        fronts = ("solve", "oracle", "suffix", "sweep")
        assert verdicts == {
            k: dict.fromkeys(fronts, 0 if k in self.ACCEPTED else 2) for k in self.TEXTS
        }
        assert records["2.0"] == records[2]

    @pytest.mark.parametrize("k", [0, 2])
    def test_side_gap_regime_refuses_any_k(self, runner, tmp_path, k):
        # the regime is checked before k is read, so 0 is refused as 2 is
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 6, "--out", inst_path)
        solve = invoke(runner, "solve", inst_path, "--algo", "median_sidegaps", "--k", k,
                       "--out", tmp_path / "p.json")
        oracle = invoke(runner, "oracle", inst_path, "--mode", "sidegap", "--k", k)
        for result in (solve, oracle):
            assert result.exit_code == 2, result.output
            assert "takes no k" in result.output


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

    def test_large_exact_run_out_of_time_is_a_row(self, runner, tmp_path):
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
        result = invoke(runner, "bench", "--config", config, "--out", tmp_path / "out",
                        "--time-budget-s", 0)
        assert result.exit_code == 0, result.output
        text = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8")
        [row] = list(csv.DictReader(text.splitlines()))
        assert row["status"] == "timeout_incumbent"
        assert row["crossings"] and not row["ratio_crossings"]

    @pytest.mark.parametrize("budget", ["nan", "-0.5"])
    def test_bad_time_budget_exit_2(self, runner, tmp_path, budget):
        result = invoke(runner, "bench", "--time-budget-s", budget, "--out", tmp_path / "out")
        assert result.exit_code == 2
        assert "--time-budget-s" in result.output
        assert not (tmp_path / "out").exists()

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
            ({**SMALL, "algos": ["median_kgaps"]}, "median_kgaps needs k"),
            ({**SMALL, "sweep_param": "n", "values": []}, "values must be a non-empty list"),
            ({**SMALL, "algos": ["median_kgaps:2.5"]}, "must be an integer, got '2.5'"),
            ({**SMALL, "algos": ["median_kgaps:true"]}, "bad k of 'median_kgaps:true'"),
            ({**SMALL, "sweep_param": "seed", "values": [1]}, "sweep_param must be one of"),
            ({**SMALL, "base_params": [6]}, "base_params must be an object"),
            ({**SMALL, "algos": []}, "config lists no algorithms"),
            ('{"algos": ', "invalid bench config"),
            ({**SMALL, "values": [8, 12]}, "values [8, 12] given without a sweep_param"),
            ({**SMALL, "algos": ["median_kgaps:"]}, "bad k of 'median_kgaps:'"),
            ({**SMALL, "algos": ["oracle"]}, f"unknown algorithm 'oracle' (choose from {tuple(ALGORITHMS)})"),
        ],
        ids=[
            "list_config", "instances_text", "seed_text", "n_text", "k_text",
            "algo_number", "k_fraction", "k_zero", "algos_string", "unknown_key",
            "unknown_base_key", "needs_k", "empty_values", "k_suffix_fraction",
            "k_suffix_boolean", "unsweepable", "base_params_list", "no_algos",
            "invalid_json", "values_without_sweep", "k_suffix_empty", "oracle_algo",
        ],
    )
    def test_malformed_config_exit_2(self, runner, tmp_path, config, message):
        config_path = tmp_path / "cfg.json"
        # a string is written as it stands: the config's raw text
        config_path.write_text(config if isinstance(config, str) else json.dumps(config))
        result = invoke(runner, "bench", "--config", config_path, "--out", tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert message in result.output
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

    def test_fractional_permutation_id_exit_2(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 2, "--f-dm", 0, "--out", inst_path)
        perm_path = tmp_path / "perm.json"
        perm_path.write_text(json.dumps({"order": [2.5, 3]}))
        result = invoke(runner, "draw", inst_path, perm_path, "--out", tmp_path / "x.svg")
        assert result.exit_code == 2, result.output
        assert "permutation id must be an integer, got 2.5" in result.output
        assert not (tmp_path / "x.svg").exists()

    def test_mismatched_permutation_exit_2(self, runner, tmp_path):
        inst_path = tmp_path / "inst.json"
        invoke(runner, "generate", "--n", 4, "--out", inst_path)
        perm_path = tmp_path / "perm.json"
        perm_path.write_text(json.dumps({"order": [1, 2, 3]}))
        result = invoke(runner, "draw", inst_path, perm_path, "--out", tmp_path / "x.svg")
        assert result.exit_code == 2


class TestNonUtf8Input:
    """A file that is not UTF-8 text is bad input, whichever command reads it."""

    BYTES = b"\xff\xfe{\x00}\x00"

    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "{bad}", "--algo", "median_sidegaps", "--out", "{tmp}/p.json"],
            ["oracle", "{bad}"],
            ["draw", "{bad}", "{perm}", "--out", "{tmp}/x.svg"],
            ["draw", "{inst}", "{bad}", "--out", "{tmp}/x.svg"],
            ["bench", "--config", "{bad}", "--out", "{tmp}/out"],
        ],
        ids=["solve", "oracle", "draw_instance", "draw_permutation", "bench_config"],
    )
    def test_exit_2(self, runner, tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(self.BYTES)
        inst_path, perm_path = tmp_path / "inst.json", tmp_path / "perm.json"
        invoke(runner, "generate", "--n", 3, "--out", inst_path)
        invoke(runner, "solve", inst_path, "--algo", "median_sidegaps", "--out", perm_path)
        paths = {"bad": bad, "tmp": tmp_path, "inst": inst_path, "perm": perm_path}
        result = invoke(runner, *[arg.format(**paths) for arg in command])
        assert result.exit_code == 2, result.output
        assert "input error" in result.output
        assert "not UTF-8 text" in result.output
