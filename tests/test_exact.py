from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import replace
from itertools import combinations, islice, pairwise

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dummy_bottom_instances, gen, induced, instances, mk_instance, precedes
from oracles import (
    best_by_enumeration,
    evaluate_exported_ilp,
    gap_runs,
    is_side_gap_order,
    naive_crossings,
    reference_branch_and_bound,
    reference_contraction,
    reference_dummy_order,
    solve_exported_ilp,
    solve_sidegap_ilp,
)
from test_acceptance import PAPER_SCALE_OPTIMA

from oscm_gaps import exact, gap_placement, heuristics
from oscm_gaps.cli import cli
from oscm_gaps.core import (
    BipartiteInstance,
    InputError,
    Node,
    Permutation,
    count_crossings,
    count_gaps,
    pairwise_crossings,
    save_instance,
)
from oscm_gaps.exact import (
    _cut_set_contraction,
    build_base_oscm_model,
    build_kgap_model,
    enumerate_optima,
    export_model,
    greedy_switch,
    objective_value,
    solve_branch_and_bound,
    solve_kgap_exact,
    solve_sidegap_exact,
    solve_unrestricted_exact,
)
from oscm_gaps.gap_placement import k_gap_merge, solve_kgaps
from oscm_gaps.heuristics import heuristic_order


def exported(model):
    return json.loads(export_model(model))


class TestModelBuilding:
    def test_two_real_two_dummy_k1(self):
        inst = mk_instance("rr", "rrdd", [(0, 100), (1, 101), (0, 102), (1, 103)])
        payload = exported(build_kgap_model(inst, 1))
        g_vars = [v["name"] for v in payload["vars"] if v["name"].startswith("g_")]
        assert g_vars == ["g_102_103"]
        budget = [c for c in payload["constraints"] if c["op"] == "<=" and c["rhs"] == 0
                  and [(t["var"], t["coef"]) for t in c["terms"]] == [("g_102_103", 1)]]
        assert budget, "expected a gap budget of k-1 = 0"

    def test_no_dummies_no_gap_machinery(self):
        inst = gen(4, 0, 2, 0)
        payload = exported(build_kgap_model(inst, 2))
        assert not any(v["name"].startswith("g_") for v in payload["vars"])
        assert all(
            all(not t["var"].startswith("g_") for t in c["terms"]) for c in payload["constraints"]
        )

    def test_three_nodes_constraint_counts(self):
        inst = gen(3, 0, 1, 0)
        payload = exported(build_base_oscm_model(inst, inst.top_ids))
        assert len(payload["vars"]) == 6
        constraints = payload["constraints"]
        transitivity = [c for c in constraints if len(c["terms"]) == 3 and c["op"] == "<="]
        assert len(transitivity) == 6
        antisymmetry = [c for c in constraints if c["op"] == "=" and len(c["terms"]) == 2]
        assert len(antisymmetry) == 3

    def test_k_below_one_rejected(self):
        with pytest.raises(InputError):
            build_kgap_model(gen(4, 0.25, 1, 0), 0)


class TestExport:
    def test_empty_model(self):
        inst = gen(1, 0, 1, 0)  # single top node: no pairs at all
        assert exported(build_base_oscm_model(inst, inst.top_ids)) == {
            "vars": [], "objective": [], "constraints": []
        }

    def test_two_node_model(self):
        inst = gen(2, 0, 1, 0)
        payload = exported(build_base_oscm_model(inst, inst.top_ids))
        assert len(payload["vars"]) == 2
        assert len([c for c in payload["constraints"] if c["op"] == "="]) == 1

    def test_bytes_pinned(self):
        # the base and k = 1..3 models over a fixed grid; the exported
        # bytes must not change, so never re-record this digest
        digest = hashlib.sha256()
        for n in (1, 2, 3, 5, 7, 9):
            for f_dm in ("0", "0.25", "0.5", "1"):
                for seed in range(4):
                    inst = gen(n, f_dm, 2, seed)
                    models = [build_base_oscm_model(inst, inst.top_ids)]
                    models += [build_kgap_model(inst, k) for k in (1, 2, 3)]
                    for model in models:
                        digest.update(export_model(model).encode())
        assert digest.hexdigest() == (
            "042a07ce9ff166ee904c58e1fc2cd8a7c248da4dd4669d415afd8c202eb85493"
        )

    @pytest.mark.parametrize("k", [None, 2])
    def test_text_is_json_dumps_indent_one(self, k):
        # the templates lay the payload out as json.dumps(payload, indent=1)
        inst = gen(12, "0.2", 3, 1)
        model = build_kgap_model(inst, k) if k else build_base_oscm_model(inst, inst.top_ids)
        text = export_model(model)
        assert text == json.dumps(json.loads(text), indent=1) + "\n"

    def test_reader_flags_infeasible_orders(self):
        # chain 102 -> 103 (bottom positions 0, 1), k = 1
        inst = mk_instance("rr", "rrdd", [(0, 100), (1, 101), (0, 102), (1, 103)])
        text = export_model(build_kgap_model(inst, 1))
        _, _, violated = evaluate_exported_ilp(text, inst, Permutation((102, 100, 103, 101)))
        assert violated == ["[{'var': 'g_102_103', 'coef': 1}] <= 0 (lhs=1)"]
        _, _, violated = evaluate_exported_ilp(text, inst, Permutation((103, 102, 100, 101)))
        assert "[{'var': 'x_102_103', 'coef': 1}] = 1 (lhs=0)" in violated
        objective, _, violated = evaluate_exported_ilp(text, inst, Permutation((102, 103, 100, 101)))
        assert violated == []
        assert objective == count_crossings(inst, Permutation((102, 103, 100, 101)))


class TestBranchAndBound:
    def test_two_node_model(self):
        inst = mk_instance("rr", "rr", [(0, 101), (1, 100)])
        (_, c_uv), (c_vu, _) = pairwise_crossings(inst, (100, 101))
        model = build_base_oscm_model(inst, inst.top_ids)
        result = solve_branch_and_bound(model, 10.0, Permutation(model.ids))
        assert result.status == "optimal"
        assert result.objective == min(c_uv, c_vu)

    def test_single_node(self):
        inst = gen(1, 0, 1, 0)
        model = build_base_oscm_model(inst, inst.top_ids)
        result = solve_branch_and_bound(model, 10.0, Permutation(model.ids))
        assert result.status == "optimal"
        assert result.objective == 0
        assert len(result.permutation) == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_objective_at_least_pair_minimum(self, seed):
        inst = gen(7, 0.3, 3, seed)
        model = build_base_oscm_model(inst, inst.top_ids)
        result = solve_branch_and_bound(model, 10.0, Permutation(model.ids))
        ids = model.ids
        floor_bound = sum(
            min(model.cost[i][j], model.cost[j][i])
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
        )
        assert result.objective >= floor_bound

    def test_zero_budget_with_incumbent(self):
        inst = gen(5, 0, 2, 0)
        initial = heuristic_order(inst, inst.top_ids, "median")
        model = build_base_oscm_model(inst, inst.top_ids)
        result = solve_branch_and_bound(model, 0.0, initial=initial)
        assert result.status == "timeout_incumbent"
        assert result.permutation == initial
        assert result.objective == count_crossings(inst, initial)

    def test_chained_model_refused(self):
        inst = gen(6, 0.5, 2, 1)
        model = build_kgap_model(inst, 1)
        assert model.chain
        with pytest.raises(InputError):
            solve_branch_and_bound(model, 1.0, Permutation(model.ids))
        with pytest.raises(InputError):
            solve_branch_and_bound(model, 1.0, initial=solve_kgaps(inst, "median", 1))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_all_modes(self, seed):
        inst = gen(7, 0.4, 2, seed)
        optima = enumerate_optima(inst, ks=(1, 2, 3))
        assert solve_unrestricted_exact(inst).objective == optima["unrestricted"][1]
        assert solve_sidegap_exact(inst).objective == optima["sidegap"][1]
        for k in (1, 2, 3):
            assert solve_kgap_exact(inst, k).objective == optima[("kgap", k)][1]

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_capped_memo_matches_oracle(self, inst):
        # with room for the root and three placed sets, most children are
        # searched without a memo entry
        optima = enumerate_optima(inst, ks=(1, 2, 3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_MEMO_CAP", 4)
            results = {
                "unrestricted": solve_unrestricted_exact(inst),
                "sidegap": solve_sidegap_exact(inst),
                **{("kgap", k): solve_kgap_exact(inst, k) for k in (1, 2, 3)},
            }
        for mode, result in results.items():
            assert result.status == "optimal"
            assert result.objective == optima[mode][1]
            assert count_crossings(inst, result.permutation) == result.objective

    @pytest.mark.parametrize("seed", range(6))
    def test_solution_feasibility_and_objective_fidelity(self, seed):
        inst = gen(7, 0.4, 2, seed)
        for k in (1, 2):
            model = build_kgap_model(inst, k)
            result = solve_kgap_exact(inst, k, 30.0)
            assert result.status == "optimal"
            perm = result.permutation
            assert count_gaps(inst, perm).count <= k
            assert result.objective == count_crossings(inst, perm)
            objective, _, violated = evaluate_exported_ilp(export_model(model), inst, perm)
            assert violated == []
            assert objective == result.objective
            assert objective_value(model, perm) == result.objective

    def test_gap_variable_soundness(self):
        inst = gen(8, 0.5, 2, 3)
        model = build_kgap_model(inst, 2)
        perm = solve_kgap_exact(inst, 2, 30.0).permutation
        _, assignment, violated = evaluate_exported_ilp(export_model(model), inst, perm)
        assert violated == []
        g_sum = sum(v for name, v in assignment.items() if name.startswith("g_"))
        assert count_gaps(inst, perm).count <= g_sum + 1 <= 2


class TestUpperBound:
    """The search prunes against the lower of its incumbent's objective
    and `upper`: above the optimum it returns the optimum; at or below it,
    it proves that no order is cheaper and returns `initial` with its own
    objective. Either way it visits no more nodes than without `upper`."""

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, inst):
        optimum = enumerate_optima(inst)["unrestricted"][1]
        model = build_base_oscm_model(inst, inst.top_ids)
        for initial in (Permutation(model.ids), heuristic_order(inst, inst.top_ids, "median")):
            unbounded = solve_branch_and_bound(model, 60.0, initial)
            assert unbounded.objective == optimum
            incumbent = objective_value(model, initial)
            for upper in {optimum - 1, optimum, optimum + 1, incumbent, incumbent + 1}:
                result = solve_branch_and_bound(model, 60.0, initial, upper=upper)
                assert result.status == "optimal"
                if upper > optimum:
                    assert result.objective == optimum
                    assert objective_value(model, result.permutation) == optimum
                else:
                    assert (result.permutation, result.objective) == (initial, incumbent)
                assert result.nodes_explored <= unbounded.nodes_explored


def outcome(result):
    return result.status, result.permutation, result.objective, result.nodes_explored


def assert_same_search(model, initial, time_budget_s=60.0):
    new = solve_branch_and_bound(model, time_budget_s, initial=initial)
    ref = reference_branch_and_bound(model, time_budget_s, initial=initial)
    assert outcome(new) == outcome(ref)


def assert_same_kgap_optimum(inst, k, initial, time_budget_s=60.0):
    """The cut-set solve and the reference's gap-tracking search of the
    k-gap model (from `initial`) agree on status and objective."""
    new = solve_kgap_exact(inst, k, time_budget_s)
    ref = reference_branch_and_bound(build_kgap_model(inst, k), time_budget_s, initial=initial)
    assert (new.status, new.objective) == (ref.status, ref.objective)
    return new, ref


class TestMatchesReferenceSearch:
    """The search tests each child's bound in its parent; the reference
    updates and undoes the state of every child before its own test. Both
    must make the same moves on base models. The reference still tracks
    gaps along the dummy chain, so on k-gap models it checks the cut-set
    solve's status and objective."""

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_instances(self, inst):
        model = build_base_oscm_model(inst, inst.top_ids)
        assert_same_search(model, Permutation(model.ids))
        assert_same_search(model, heuristic_order(inst, inst.top_ids, "median"))
        for k in (1, 2, 3):
            assert_same_kgap_optimum(inst, k, None)
            assert_same_kgap_optimum(inst, k, solve_kgaps(inst, "median", k))

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_desk_scale_cells(self, n, seed):
        inst = gen(n, "0.2", 3, seed)
        for ids in (inst.real_top_ids, inst.top_ids):
            assert_same_search(build_base_oscm_model(inst, ids), heuristic_order(inst, ids, "median"))
        for k in (1, 2, 3, 5):
            assert_same_kgap_optimum(inst, k, solve_kgaps(inst, "median", k))
        assert_same_kgap_optimum(inst, 2, None)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_deep_base_model(self, seed):
        # 24 nodes: the maintained vectors are checked 24 levels deep
        inst = gen(24, "0.2", 3, seed)
        model = build_base_oscm_model(inst, inst.top_ids)
        assert len(model.ids) == 24
        assert_same_search(model, Permutation(model.ids))
        assert_same_search(model, heuristic_order(inst, inst.top_ids, "median"))

    def test_desk_sweeps_node_total(self):
        """Summed nodes of the exact solves in the cells of the benchmark's
        desk_sweeps workload on its seed 1. Both totals were recorded when
        every search began to start from the greedy switch of its
        incumbent (before it, from the median orders: 53,834 and 24,723).
        The k-gap total includes the real nodes' searches, and every cut
        set is pruned against the best objective so far. A change that
        keeps the search's moves and its start orders keeps both totals."""
        cells = [(16, seed, k) for seed in range(2, 22) for k in range(1, 6)]
        cells += [(n, seed, 2) for n in (8, 12, 16, 20) for seed in range(2, 22)]
        kgap = sum(solve_kgap_exact(gen(n, "0.2", 3, s), k, 60.0).nodes_explored for n, s, k in cells)
        sidegap = sum(
            solve_sidegap_exact(gen(n, "0.2", 3, s), 60.0).nodes_explored
            for n in (8, 12, 16, 20)
            for s in range(2, 22)
        )
        assert (kgap, sidegap) == (21_861, 9_040)
        assert kgap + sidegap == 30_901

    @pytest.mark.parametrize("with_incumbent", [False, True])
    def test_zero_budget(self, with_incumbent):
        inst = gen(12, "0.2", 3, 1)
        if with_incumbent:
            # the greedy switch belongs to the incumbent, so it runs at
            # budget 0: the solve returns the better of the median k-gap
            # order and the merge of its switched real order, unsearched
            median = solve_kgaps(inst, "median", 2)
            real_model = build_base_oscm_model(inst, inst.real_top_ids)
            real_order = greedy_switch(real_model, induced(median, inst.real_top_ids))
            switched, _ = k_gap_merge(inst, real_order, 2)
            assert (count_crossings(inst, median), count_crossings(inst, switched)) == (148, 141)
            new = solve_kgap_exact(inst, 2, 0.0)
            ref = reference_branch_and_bound(build_kgap_model(inst, 2), 0.0, initial=switched)
            assert outcome(new) == outcome(ref) == ("timeout_incumbent", switched, 141, 0)
        else:
            model = build_base_oscm_model(inst, inst.top_ids)
            assert_same_search(model, Permutation(model.ids), time_budget_s=0.0)


class TestWallTime:
    """An instance-level solve's wall time covers model build, incumbent
    and search, not the search alone."""

    DELAY_S = 0.02

    @pytest.mark.parametrize(
        "solve, build_name, incumbent_name",
        [
            (lambda inst: solve_kgap_exact(inst, 2), "build_kgap_model", "solve_kgaps"),
            (solve_unrestricted_exact, "build_kgap_model", "solve_kgaps"),
            (solve_sidegap_exact, "build_base_oscm_model", "heuristic_order"),
        ],
        ids=["kgap", "unrestricted", "sidegap"],
    )
    def test_covers_build_and_incumbent(self, monkeypatch, solve, build_name, incumbent_name):
        searches = []

        def delayed(fn):
            def call(*args, **kwargs):
                time.sleep(self.DELAY_S)
                return fn(*args, **kwargs)

            return call

        def recorded(*args, **kwargs):
            result = search(*args, **kwargs)
            searches.append(result)
            return result

        search = exact.solve_branch_and_bound
        monkeypatch.setattr(exact, build_name, delayed(getattr(exact, build_name)))
        monkeypatch.setattr(exact, incumbent_name, delayed(getattr(exact, incumbent_name)))
        monkeypatch.setattr(exact, "solve_branch_and_bound", recorded)
        # seed 2: on seed 1 root bounds prune every k-gap cut set
        result = solve(gen(8, "0.2", 3, 2))
        assert len(searches) >= 1
        searched = sum(search.wall_time_s for search in searches)
        assert result.wall_time_s >= searched + 2 * self.DELAY_S


def assert_ilp_optimum(inst, model, expected):
    """The exported model, solved by an ILP solver, has the optimum
    `expected`, and its solution decodes to an order of that many
    crossings within the model's gap budget."""
    value, order = solve_exported_ilp(export_model(model))
    assert value == expected
    assert sorted(order) == sorted(inst.top_ids)
    assert naive_crossings(inst, Permutation(order)) == value
    if model.gap_budget is not None:
        assert len(gap_runs(inst, order)) <= model.gap_budget + 1


def assert_sidegap_ilp_optimum(inst, expected):
    """The exported plain-OSCM model over all top nodes, with side gaps
    imposed by `solve_sidegap_ilp`, has the optimum `expected`, and its
    solution decodes to a side-gap order of that many crossings."""
    value, order = solve_sidegap_ilp(inst, export_model(build_base_oscm_model(inst, inst.top_ids)))
    assert value == expected
    assert sorted(order) == sorted(inst.top_ids)
    assert naive_crossings(inst, Permutation(order)) == value
    assert is_side_gap_order(inst, order)


class TestExportedILP:
    """The exported ILP, solved by scipy's MILP solver (HiGHS), proves the
    optima of the enumeration oracle and of the branch and bound, and with
    side-gap rows added, those of the side-gap solver."""

    @pytest.fixture(autouse=True)
    def _scipy(self):
        pytest.importorskip(
            "scipy", reason="scipy is missing: the ILP is solved by scipy.optimize.milp"
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("f_dm", ["0", "0.25", "0.5", "1"])
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_matches_enumeration(self, n, f_dm, seed):
        inst = gen(n, f_dm, 2, seed)
        optima = enumerate_optima(inst, ks=(1, 2, 3))
        assert_ilp_optimum(
            inst, build_base_oscm_model(inst, inst.top_ids), optima["unrestricted"][1]
        )
        for k in (1, 2, 3):
            assert_ilp_optimum(inst, build_kgap_model(inst, k), optima[("kgap", k)][1])

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n", [12, 16])
    def test_matches_branch_and_bound(self, n, seed):
        inst = gen(n, "0.2", 3, seed)
        for k in (1, 2, 5):
            result = solve_kgap_exact(inst, k)
            assert result.status == "optimal"
            assert_ilp_optimum(inst, build_kgap_model(inst, k), result.objective)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("f_dm", ["0", "0.25", "0.5", "1"])
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_sidegap_matches_enumeration(self, n, f_dm, seed):
        inst = gen(n, f_dm, 2, seed)
        assert_sidegap_ilp_optimum(inst, enumerate_optima(inst)["sidegap"][1])

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n", [12, 16])
    def test_sidegap_matches_branch_and_bound(self, n, seed):
        inst = gen(n, "0.2", 3, seed)
        result = solve_sidegap_exact(inst)
        assert result.status == "optimal"
        assert_sidegap_ilp_optimum(inst, result.objective)

    def test_sidegap_paper_scale(self):
        inst = gen(40, "0.2", 3, 1)
        optimum = PAPER_SCALE_OPTIMA["experiment_sidegaps_vs_2gaps"][(40, 1, "exact_sidegaps")]
        assert_sidegap_ilp_optimum(inst, optimum)

    @pytest.mark.parametrize("seed, k", [(1, 1), (1, 2), (2, 2)])
    def test_paper_scale(self, seed, k):
        # criterion 10's instances: n=40, f_dm 0.2, degree 3; each model
        # exports to about 12 MB and solves in a few seconds
        inst = gen(40, "0.2", 3, seed)
        result = solve_kgap_exact(inst, k)
        assert result.status == "optimal"
        assert result.objective == PAPER_SCALE_OPTIMA["experiment_gap_count"][(k, seed, "exact_kgaps")]
        assert_ilp_optimum(inst, build_kgap_model(inst, k), result.objective)


class TestOracle:
    def test_without_dummies_sidegap_equals_unrestricted(self):
        optima = enumerate_optima(gen(6, 0, 2, 5))
        assert optima["sidegap"][1] == optima["unrestricted"][1]

    def test_nested_feasible_sets(self):
        inst = gen(7, 0.4, 2, 2)
        n_dummy = len(inst.dummy_top_ids)
        optima = enumerate_optima(inst, (1, n_dummy))
        assert optima[("kgap", n_dummy)][1] <= optima[("kgap", 1)][1]

    def test_size_guard(self):
        with pytest.raises(InputError):
            enumerate_optima(gen(10, 0.2, 2, 0))

    # The mode's k is checked by `oscm-gaps oracle` before the instance is
    # enumerated, so a 12-node instance, which `enumerate_optima` refuses
    # for its size, still gets the k message.
    def oracle_refusal(self, tmp_path, *args):
        inst_path = tmp_path / "inst.json"
        save_instance(gen(12, 0.3, 2, 7), str(inst_path))
        result = CliRunner().invoke(cli, ["oracle", str(inst_path), *map(str, args)])
        assert result.exit_code == 2
        return result.output

    def test_kgap_requires_k(self, tmp_path):
        assert "kgap mode requires k" in self.oracle_refusal(tmp_path, "--mode", "kgap")

    @pytest.mark.parametrize("mode, k", [("unrestricted", 3), ("sidegap", 0)])
    def test_k_outside_kgap_mode_refused(self, tmp_path, mode, k):
        output = self.oracle_refusal(tmp_path, "--mode", mode, "--k", k)
        assert f"{mode} mode takes no k (got k={k})" in output

    @pytest.mark.parametrize("k", ["2", "2.0"])
    def test_text_k_reads_as_int(self, k):
        # read by as_k, as the CLI's --k text is
        inst = gen(7, 0.4, 2, 2)
        assert enumerate_optima(inst, (k,)) == enumerate_optima(inst, (2,))

    def test_empty_top(self):
        inst = BipartiteInstance.build([Node(0, "real")], [], [])
        optima = enumerate_optima(inst, ks=(1, 2))
        modes = ["unrestricted", "sidegap", ("kgap", 1), ("kgap", 2)]
        assert optima == dict.fromkeys(modes, ((), 0))
        with pytest.raises(InputError, match="k must be >= 1, got 0"):
            enumerate_optima(inst, ks=(0,))

    @staticmethod
    def assert_matches_itertools(inst, ks=(1, 2, 3)):
        """Each mode's optimum, order and value, equals the itertools
        enumeration filtered by the mode's own predicate."""
        predicates = {
            "unrestricted": None,
            "sidegap": lambda o: is_side_gap_order(inst, o),
            **{("kgap", k): (lambda o, k=k: len(gap_runs(inst, o)) <= k) for k in ks},
        }
        expected = {mode: best_by_enumeration(inst, predicate) for mode, predicate in predicates.items()}
        assert list(enumerate_optima(inst, ks).items()) == list(expected.items())  # key order too

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_itertools_enumeration(self, seed):
        self.assert_matches_itertools(gen(6, 0.3, 2, seed))  # 1 top dummy
        self.assert_matches_itertools(gen(7, "0.5", 2, seed))  # 3 top dummies

    @given(st.one_of(instances(max_top=4), dummy_bottom_instances(max_top=3)))
    @settings(max_examples=60, deadline=None)
    def test_matches_itertools_on_random_instances(self, inst):
        self.assert_matches_itertools(inst)

    def test_regression_fixture_seed7(self):
        for (n, f_dm, deg_avg, seed), expected in REGRESSION_FIXTURES.items():
            assert enumerate_optima(gen(n, f_dm, deg_avg, seed), ks=(1, 2, 3)) == expected

    def test_shares_no_solver_code(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called solver code")

        solver_code = [
            "solve_branch_and_bound",
            "greedy_switch",
            "_cut_set_contraction",
            "k_gap_merge",
            "side_gap_merge",
            "heuristic_order",
        ]
        # patched where defined and wherever imported by name
        for module in (exact, gap_placement, heuristics):
            for name in solver_code:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        params = (8, "0.5", 3, 9)
        assert enumerate_optima(gen(*params), ks=(1, 2, 3)) == REGRESSION_FIXTURES[params]


# Output of enumerate_optima with ks (1, 2, 3), recorded once and frozen,
# per generator input (n, f_dm, deg_avg, seed); see
# test_regression_fixture_seed7. The first input's modes all agree; the
# second's (4 top dummies) all differ in order.
REGRESSION_FIXTURES = {
    (6, 0.3, 2, 7): {
        "unrestricted": ((11, 6, 10, 8, 7, 9), 8),
        "sidegap": ((11, 6, 10, 8, 7, 9), 8),
        ("kgap", 1): ((11, 6, 10, 8, 7, 9), 8),
        ("kgap", 2): ((11, 6, 10, 8, 7, 9), 8),
        ("kgap", 3): ((11, 6, 10, 8, 7, 9), 8),
    },
    (8, "0.5", 3, 9): {
        "unrestricted": ((13, 10, 12, 8, 15, 11, 9, 14), 35),
        "sidegap": ((13, 12, 15, 10, 8, 11, 9, 14), 37),
        ("kgap", 1): ((10, 13, 12, 15, 14, 8, 11, 9), 41),
        ("kgap", 2): ((13, 12, 10, 8, 11, 15, 14, 9), 36),
        ("kgap", 3): ((13, 12, 10, 8, 15, 11, 9, 14), 35),
    },
}


class TestTimeout:
    def test_large_instance_times_out_with_feasible_incumbent(self):
        inst = gen(24, 0.25, 3, 0)
        initial = solve_kgaps(inst, "median", 2)
        result = solve_kgap_exact(inst, 2, 0.05)
        assert result.status in ("optimal", "timeout_incumbent")
        assert result.permutation is not None
        assert count_gaps(inst, result.permutation).count <= 2
        assert result.objective <= count_crossings(inst, initial)

    def test_zero_budget_returns_heuristic_unsearched(self):
        # the real nodes' root bound proves their median order optimal, and
        # root bounds prune every cut set, so any positive budget proves
        # the heuristic optimal with one bound test
        inst = gen(8, "0.2", 3, 1)
        heuristic = solve_kgaps(inst, "median", 2)
        proven = solve_kgap_exact(inst, 2)
        assert (proven.status, proven.nodes_explored) == ("optimal", 1)
        assert proven.objective == count_crossings(inst, heuristic)
        result = solve_kgap_exact(inst, 2, 0.0)
        assert (result.status, result.nodes_explored) == ("timeout_incumbent", 0)
        assert result.permutation == heuristic
        assert result.objective == count_crossings(inst, heuristic)

    @given(st.one_of(instances(), dummy_bottom_instances()), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_zero_budget_contract(self, inst, k):
        # budget 0 explores no node and proves nothing unless there is
        # nothing to order, yet never does worse than the median k-gap order
        result = solve_kgap_exact(inst, k, 0.0)
        assert result.nodes_explored == 0
        assert_kgap_output(inst, result, k)
        assert result.status == "timeout_incumbent" or not inst.top_ids
        assert result.objective <= count_crossings(inst, solve_kgaps(inst, "median", k))

    def test_many_cut_sets_stop_at_the_deadline(self):
        inst = gen(60, "0.5", 3, 1)
        assert len(inst.dummy_top_ids) == 30  # C(29, 4) = 23751 cut sets for k=5
        begun = time.perf_counter()
        result = solve_kgap_exact(inst, 5, 0.5)
        assert time.perf_counter() - begun <= 0.5 + 1.0
        assert result.status == "timeout_incumbent"
        assert count_gaps(inst, result.permutation).count <= 5
        assert result.objective == count_crossings(inst, result.permutation)
        assert result.objective <= count_crossings(inst, solve_kgaps(inst, "median", 5))


def assert_kgap_output(inst, result, k):
    """Recount, gap budget and canonical dummy order of a k-gap solve."""
    perm = result.permutation
    assert result.objective == count_crossings(inst, perm)
    assert count_gaps(inst, perm).count <= k
    assert induced(perm, inst.dummy_top_ids).order == reference_dummy_order(inst)


class TestTimeBudget:
    """A NaN budget would switch every deadline test off and a negative one
    would act as 0, so both are refused."""

    BAD = [math.nan, -1.0]

    @pytest.mark.parametrize("budget", BAD)
    def test_search_refuses(self, budget):
        inst = gen(12, 0.2, 3, 1)
        model = build_base_oscm_model(inst, inst.top_ids)
        with pytest.raises(InputError, match="time budget"):
            solve_branch_and_bound(model, budget, Permutation(model.ids))

    @pytest.mark.parametrize("budget", BAD)
    @pytest.mark.parametrize(
        "solve",
        [
            lambda inst, budget: solve_kgap_exact(inst, 2, budget),
            solve_sidegap_exact,
            solve_unrestricted_exact,
        ],
        ids=["kgap", "sidegap", "unrestricted"],
    )
    def test_pipelines_refuse(self, solve, budget):
        with pytest.raises(InputError, match="time budget"):
            solve(gen(12, 0.2, 3, 1), budget)


class TestKgapCutSets:
    """The k-gap solve searches plain OSCM models, one per cut set of the
    canonical dummy chain."""

    @given(st.one_of(instances(), dummy_bottom_instances()))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, inst):
        optima = enumerate_optima(inst, ks=(1, 2, 3))
        for k in (1, 2, 3):
            result = solve_kgap_exact(inst, k)
            assert result.status == "optimal"
            assert result.objective == optima[("kgap", k)][1]
            assert_kgap_output(inst, result, k)

    @staticmethod
    def assert_contractions_match(model, cut_sets):
        """The contraction of each cut set, whose real-to-segment entries
        are differences of two per-real prefix tables over the chain and
        whose segment-to-segment entries are summed on demand, equals the
        per-entry one, names included, and its root bound is the real
        nodes' root bound plus the floors of its segments: no pair of
        segments adds to it."""
        contract, floor = _cut_set_contraction(model)
        chain, d = model.chain, len(model.chain)
        reals = [i for i in range(len(model.ids)) if i not in set(chain)]
        _, real_root = reference_contraction(model, [])
        for cuts in cut_sets:
            bounds = list(pairwise((0, *cuts, d))) if d else []
            segments = [chain[a:b] for a, b in bounds]
            cost, root_bound = reference_contraction(model, segments)
            contracted = contract(bounds)
            assert contracted.cost == cost
            assert root_bound == real_root + sum(floor(a, b) for a, b in bounds)
            groups = [(i,) for i in reals] + segments
            assert contracted.ids == tuple(model.ids[g[0]] for g in groups)
            assert contracted.chain == ()

    @staticmethod
    def assert_floors_match(model):
        """Every segment a:b of the chain, 0 <= a < b <= d, has as floor the
        sum over real i of min(c_i,S, c_S,i), each entry summed over the
        segment's dummies."""
        _, floor = _cut_set_contraction(model)
        chain, cost = model.chain, model.cost
        reals = [i for i in range(len(model.ids)) if i not in set(chain)]
        for a, b in combinations(range(len(chain) + 1), 2):
            segment = chain[a:b]
            expected = sum(
                min(sum(cost[i][s] for s in segment), sum(cost[s][i] for s in segment))
                for i in reals
            )
            assert floor(a, b) == expected, (a, b)

    @given(st.one_of(instances(), dummy_bottom_instances()))
    @settings(max_examples=60, deadline=None)
    def test_contraction_matches_per_entry_sums(self, inst):
        for k in (1, 2, 3, 4):
            model = build_kgap_model(inst, k)
            d = len(model.chain)
            cut_sets = combinations(range(1, d), min(k, d) - 1) if d else [()]
            self.assert_contractions_match(model, cut_sets)
            self.assert_floors_match(model)

    def test_contraction_matches_per_entry_sums_at_n60(self):
        model = build_kgap_model(gen(60, "0.5", 3, 1), 5)
        assert len(model.chain) == 30
        # every 119th of the C(29, 4) = 23,751 cut sets: 200, reaching 318 segments
        cut_sets = islice(combinations(range(1, 30), 4), 0, None, 119)
        self.assert_contractions_match(model, cut_sets)

    def test_floors_match_per_entry_sums_at_n60(self):
        model = build_kgap_model(gen(60, "0.5", 3, 1), 5)
        assert len(model.chain) == 30  # 465 segments
        self.assert_floors_match(model)

    @given(st.one_of(instances(), dummy_bottom_instances()), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_real_nodes_read_the_base_model(self, inst, k):
        """With no segment the contraction is the base model of the real
        nodes, so the k-gap real-node search and the side-gap search read
        one model."""
        real = _cut_set_contraction(build_kgap_model(inst, k))[0]([])
        base = build_base_oscm_model(inst, inst.real_top_ids)
        assert (real.ids, real.cost) == (base.ids, base.cost)

    @pytest.mark.parametrize("seed, optimum", [(1, 1286), (2, 1166), (3, 1264)])
    def test_paper_scale_one_gap(self, seed, optimum):
        # the gap-tracking search did not prove these within 20 s
        inst = gen(32, "0.2", 3, seed)
        result = solve_kgap_exact(inst, 1, 60.0)
        assert (result.status, result.objective) == ("optimal", optimum)
        assert_kgap_output(inst, result, 1)

    @pytest.mark.parametrize(
        "n, f_dm, deg, seed, k", [(12, "0.5", 2, 0, 3), (16, "0.2", 3, 3, 1), (12, "0.2", 3, 13, 2)]
    )
    def test_searches_prune_against_the_best_objective(self, monkeypatch, n, f_dm, deg, seed, k):
        """The real nodes' search runs first and unbounded; its merged
        optimum competes with the median k-gap order, and every cut-set
        search gets the best objective so far as `upper`."""
        inst = gen(n, f_dm, deg, seed)
        calls = []

        def recorded(model, time_budget_s, initial, **kwargs):
            result = search(model, time_budget_s, initial, **kwargs)
            calls.append((kwargs.get("upper", math.inf), result))
            return result

        search = exact.solve_branch_and_bound
        monkeypatch.setattr(exact, "solve_branch_and_bound", recorded)
        solved = solve_kgap_exact(inst, k)
        (real_upper, real), *cut_sets = calls
        assert real_upper == math.inf
        assert sorted(real.permutation.order) == sorted(inst.real_top_ids)
        merged, _ = k_gap_merge(inst, real.permutation, k)
        best = min(
            count_crossings(inst, solve_kgaps(inst, "median", k)), count_crossings(inst, merged)
        )
        assert cut_sets, "no cut set was searched"
        for upper, result in cut_sets:
            assert upper == best
            best = min(best, result.objective)
        assert (solved.status, solved.objective) == ("optimal", best)

    def test_equal_neighbour_tie_keeps_canonical_order(self, monkeypatch):
        """A search may return tied segments out of chain order; the solve
        refills the dummy slots in canonical order. The wrapped search
        swaps the first two adjacent segments whose costs tie both ways in
        an order that improves on its incumbent, which keeps the
        objective."""
        inst = gen(12, "0.5", 2, 0)
        # the first two dummies of the chain tie on one neighbour
        assert inst.dummy_chain[:2] == ((0, 18), (0, 22))
        swapped = []

        def tie_swapped(model, time_budget_s, initial, **kwargs):
            result = search(model, time_budget_s, initial, **kwargs)
            if result.permutation == initial:  # nothing below the bound
                return result
            order = list(result.permutation.order)
            index = {v: i for i, v in enumerate(model.ids)}
            for a, (u, v) in enumerate(pairwise(order)):
                iu, iv = index[u], index[v]
                if inst.top_kind[u] == inst.top_kind[v] == "dummy" and (
                    model.cost[iu][iv] == model.cost[iv][iu]
                ):
                    order[a : a + 2] = v, u
                    perm = Permutation(tuple(order))
                    assert objective_value(model, perm) == result.objective
                    swapped.append(perm)
                    return replace(result, permutation=perm)
            return result

        search = exact.solve_branch_and_bound
        monkeypatch.setattr(exact, "solve_branch_and_bound", tie_swapped)
        result = solve_kgap_exact(inst, 3)
        # an improving search result put dummy 22's segment before dummy 18's
        assert any(precedes(p, 22, 18) for p in swapped)
        monkeypatch.undo()
        # 12 top nodes: the gap-tracking reference search, not the oracle
        reference = reference_branch_and_bound(
            build_kgap_model(inst, 3), 60.0, solve_kgaps(inst, "median", 3)
        )
        assert reference.status == result.status == "optimal"
        assert result.objective == reference.objective
        assert_kgap_output(inst, result, 3)


class TestGreedySwitch:
    """Every exact search starts from the greedy switch of its incumbent:
    adjacent swaps while one lowers the cost, so no adjacent pair of the
    start order is cheaper the other way round."""

    @staticmethod
    def assert_switched(model, order):
        index = {v: i for i, v in enumerate(model.ids)}
        for u, v in pairwise(index[v] for v in order.order):
            assert model.cost[v][u] >= model.cost[u][v]

    @given(st.one_of(instances(), dummy_bottom_instances()), st.data())
    @settings(max_examples=60, deadline=None)
    def test_switched_order(self, inst, data):
        for ids in (inst.top_ids, inst.real_top_ids):
            model = build_base_oscm_model(inst, ids)
            before = Permutation(tuple(data.draw(st.permutations(ids))))
            after = greedy_switch(model, before)
            assert sorted(after.order) == sorted(ids)
            self.assert_switched(model, after)
            assert objective_value(model, after) <= objective_value(model, before)
            assert greedy_switch(model, after) == after

    @pytest.mark.parametrize(
        "n, f_dm, deg, seed, k", [(12, "0.5", 2, 0, 3), (16, "0.2", 3, 3, 1), (12, "0.2", 3, 13, 2)]
    )
    def test_every_search_starts_switched(self, monkeypatch, n, f_dm, deg, seed, k):
        """The real nodes' searches start from the switched median orders;
        each cut set's search starts from a switched order that keeps its
        segments in chain order."""
        inst = gen(n, f_dm, deg, seed)
        starts = []

        def recorded(model, time_budget_s, initial, **kwargs):
            starts.append((model, initial))
            return search(model, time_budget_s, initial, **kwargs)

        search = exact.solve_branch_and_bound
        monkeypatch.setattr(exact, "solve_branch_and_bound", recorded)
        solve_kgap_exact(inst, k)
        (real_model, real_start), *cut_sets = starts
        median = induced(solve_kgaps(inst, "median", k), inst.real_top_ids)
        assert real_start == greedy_switch(real_model, median)
        assert cut_sets, "no cut set was searched"
        chain = reference_dummy_order(inst)
        for _, initial in cut_sets:
            segments = [v for v in initial.order if v in set(chain)]
            assert segments == [v for v in chain if v in initial.order]
        solve_sidegap_exact(inst)
        side_model, side_start = starts[-1]
        median = heuristic_order(inst, inst.real_top_ids, "median")
        assert side_start == greedy_switch(side_model, median)
        for model, initial in starts:
            self.assert_switched(model, initial)


class TestUnrestrictedReduction:
    """The unrestricted solve is the k-gap solve at k = max(1, d): no order
    of d dummies has more than d gaps, so that budget binds nothing."""

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_and_kgap_at_d(self, inst):
        d = len(inst.dummy_top_ids)
        result = solve_unrestricted_exact(inst)
        assert result.status == "optimal"
        assert result.objective == enumerate_optima(inst)["unrestricted"][1]
        for k in (max(1, d), d + 1):
            assert solve_kgap_exact(inst, k).objective == result.objective
        assert_kgap_output(inst, result, d)

    @pytest.mark.parametrize("seed, optimum", [(1, 1802), (2, 1915), (3, 1774)])
    def test_paper_scale(self, seed, optimum):
        inst = gen(40, "0.2", 3, seed)
        result = solve_unrestricted_exact(inst, 60.0)
        assert (result.status, result.objective) == ("optimal", optimum)
        assert_kgap_output(inst, result, len(inst.dummy_top_ids))
