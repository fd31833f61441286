from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import gen, instances, mk_instance
from oracles import (
    best_bounded_gap_merge,
    best_sidegap_split,
    naive_crossings,
    naive_block_crossings,
    naive_mixed_crossings,
    naive_pair_crossings,
    reference_k_gap_merge,
)

from oscm_gaps.core import (
    InputError,
    Permutation,
    count_crossings,
    count_gaps,
)
from oscm_gaps.gap_placement import (
    block_cost_tables,
    canonical_dummy_order,
    k_gap_merge,
    merge_dp,
    side_gap_merge,
    solve_kgaps,
    solve_sidegaps,
)
from oscm_gaps.heuristics import heuristic_order


def real_order_of(inst, kind="median"):
    return heuristic_order(inst, inst.real_top_ids, kind)


def assert_canonical_dummy_invariants(inst, pi2):
    """No solver output may scramble the dummies or cross their edges."""
    canonical = canonical_dummy_order(inst)
    assert pi2.induced(inst.dummy_top_ids).order == canonical.order.order
    dummies = list(canonical.order.order)
    for i, d1 in enumerate(dummies):
        for d2 in dummies[i + 1 :]:
            if pi2.precedes(d1, d2):
                assert naive_pair_crossings(inst, d1, d2) == 0


class TestCanonicalDummyOrder:
    def test_sorted_by_neighbor(self):
        inst = mk_instance("rr", "dd", [(0, 100), (1, 101)], pi1=[1, 0])
        assert canonical_dummy_order(inst).order.order == (101, 100)

    def test_tie_by_id(self):
        inst = mk_instance("r", "dd", [(0, 100), (0, 101)])
        assert canonical_dummy_order(inst).order.order == (100, 101)

    @pytest.mark.parametrize("seed", range(15))
    def test_no_dummy_pair_crossings(self, seed):
        inst = gen(8, 0.5, 2, seed)
        order = canonical_dummy_order(inst).order.order
        for i, d1 in enumerate(order):
            for d2 in order[i + 1 :]:
                assert naive_pair_crossings(inst, d1, d2) == 0


class TestSideGapMerge:
    def test_leftward_and_rightward_dummies(self):
        base = [(0, 100), (1, 101), (2, 102)]
        left = mk_instance("rrr", "rrrd", base + [(0, 103)])
        merged = side_gap_merge(left, real_order_of(left))
        assert merged.order[0] == 103  # left cost 0 < right cost 2

        right = mk_instance("rrr", "rrrd", base + [(1, 103)])
        merged = side_gap_merge(right, real_order_of(right))
        assert merged.order[-1] == 103  # 1 < 1 fails strictly, ties go right

    def test_no_dummies_identity(self):
        inst = gen(5, 0, 2, 1)
        order = real_order_of(inst)
        assert side_gap_merge(inst, order).order == order.order

    def test_bad_real_order(self):
        inst = gen(5, 0.2, 2, 1)
        with pytest.raises(InputError):
            side_gap_merge(inst, Permutation(tuple(inst.top_ids)))

    @pytest.mark.parametrize("seed", range(25))
    def test_optimal_among_splits(self, seed):
        inst = gen(7, 0.4, 2, seed)
        order = real_order_of(inst)
        merged = side_gap_merge(inst, order)
        achieved = naive_crossings(inst, merged)
        best = best_sidegap_split(inst, order, canonical_dummy_order(inst).order.order)
        assert achieved == best

    @given(inst=instances())
    @settings(max_examples=50)
    def test_output_is_side_gap_permutation(self, inst):
        merged = side_gap_merge(inst, real_order_of(inst))
        assert count_gaps(inst, merged).is_side_gap_permutation
        assert_canonical_dummy_invariants(inst, merged)


class TestBlockCostTables:
    @pytest.mark.parametrize("seed", range(10))
    def test_prefix_differences_match_block_crossings(self, seed):
        inst = gen(7, 0.4, 2, seed)
        real_order = real_order_of(inst)
        dummy_order = canonical_dummy_order(inst).order
        rows = block_cost_tables(inst, real_order, dummy_order)
        reals, dummies = real_order.order, dummy_order.order
        for i in range(len(reals) + 1):
            for jp in range(len(dummies) + 1):
                for j in range(jp, len(dummies) + 1):
                    block = list(dummies[jp:j])
                    expected = naive_block_crossings(
                        inst, reals[:i], block
                    ) + naive_block_crossings(inst, block, reals[i:])
                    assert rows[i][j] - rows[i][jp] == expected


class TestMergeTable:
    def test_base_cases_and_monotone_in_g(self):
        inst = gen(8, 0.5, 2, 4)
        real_order = real_order_of(inst)
        costs = block_cost_tables(inst, real_order, canonical_dummy_order(inst).order)
        dp = merge_dp(costs, 3)
        n_real = len(real_order)
        n_dummy = len(inst.dummy_top_ids)
        assert len(dp) == 3 and n_dummy >= 3
        for i in range(n_real + 1):
            for layer in dp:
                assert layer[i][0] == 0
            # from the no-gap base row (only j = 0 reachable), one gap holds
            # one block at the best boundary so far
            for j in range(1, n_dummy + 1):
                assert dp[0][i][j] == min(costs[b][j] for b in range(i + 1))
        for g in range(1, len(dp)):
            for i in range(n_real + 1):
                for j in range(n_dummy + 1):
                    assert dp[g][i][j] <= dp[g - 1][i][j]


# (n, f_dm, heuristic, k); n=200 is costly for the quadratic reference,
# so it gets one case per dummy fraction
_REFERENCE_MERGE_CASES = [
    (n, f_dm, kind, k)
    for n in (3, 8, 20, 40)
    for f_dm in ("0.2", "0.5", "0.8")
    for kind in ("median", "barycenter")
    for k in (1, 2, 3, 5, 8)
] + [(200, "0.2", "median", 5), (200, "0.5", "barycenter", 3), (200, "0.8", "median", 2)]


class TestKGapMerge:
    def test_k_below_one_rejected(self):
        inst = gen(4, 0.25, 1, 0)
        with pytest.raises(InputError):
            k_gap_merge(inst, real_order_of(inst), 0)

    def test_no_dummies(self):
        inst = gen(5, 0, 2, 2)
        order = real_order_of(inst)
        merged, mixed = k_gap_merge(inst, order, 2)
        assert merged.order == order.order
        assert mixed == 0

    def test_single_real_two_candidate_boundaries(self):
        # one real node: the dummy block sits before or after it
        inst = mk_instance("rrr", "rd", [(0, 100), (2, 100), (1, 101)])
        order = Permutation((100,))
        merged, mixed = k_gap_merge(inst, order, 1)
        before = naive_block_crossings(inst, [101], [100])
        after = naive_block_crossings(inst, [100], [101])
        assert mixed == min(before, after)

    @pytest.mark.parametrize("seed", range(10))
    def test_unbounded_k_equals_per_dummy_best(self, seed):
        inst = gen(7, 0.4, 2, seed)
        order = real_order_of(inst)
        reals = order.order
        dummies = canonical_dummy_order(inst).order.order
        expected = 0
        for d in dummies:
            expected += min(
                naive_block_crossings(inst, reals[:i], [d])
                + naive_block_crossings(inst, [d], reals[i:])
                for i in range(len(reals) + 1)
            )
        _, mixed = k_gap_merge(inst, order, len(dummies))
        assert mixed == expected

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_exhaustive_merge(self, seed, k):
        inst = gen(8, 0.45, 2, seed)  # 5 reals, 3 dummies
        order = real_order_of(inst)
        merged, mixed = k_gap_merge(inst, order, k)
        assert naive_mixed_crossings(inst, merged) == mixed
        best_mixed, best_total = best_bounded_gap_merge(
            inst, order, canonical_dummy_order(inst).order.order, k
        )
        assert mixed == best_mixed
        assert naive_crossings(inst, merged) == best_total
        assert count_gaps(inst, merged).count <= k

    @pytest.mark.parametrize("n,f_dm,kind,k", _REFERENCE_MERGE_CASES)
    def test_matches_reference_merge(self, n, f_dm, kind, k):
        for seed in (1, 2):
            inst = gen(n, f_dm, 3, seed)
            order = real_order_of(inst, kind)
            merged, mixed = k_gap_merge(inst, order, k)
            expected, expected_mixed = reference_k_gap_merge(inst, order, k)
            assert merged.order == expected.order
            assert mixed == expected_mixed

    @given(inst=instances())
    @settings(max_examples=40, deadline=None)
    def test_gap_budget_respected(self, inst):
        for k in (1, 2):
            merged, _ = k_gap_merge(inst, real_order_of(inst), k)
            assert count_gaps(inst, merged).count <= k
            assert_canonical_dummy_invariants(inst, merged)

    def test_edge_less_dummy_costs_nothing(self):
        # top dummy 103 has no edge (legal: the bottom layer is all dummy);
        # it must not drag the shared block away from dummy 102's optimum
        inst = mk_instance("ddd", "rrdd", [(0, 100), (1, 101), (2, 102)])
        order = Permutation((100, 101))
        merged, mixed = k_gap_merge(inst, order, 1)
        assert mixed == 0
        assert naive_mixed_crossings(inst, merged) == 0
        side = side_gap_merge(inst, order)
        assert naive_crossings(inst, side) == 0
        assert count_gaps(inst, side).is_side_gap_permutation


class TestPipelines:
    def test_only_reals_matches_base(self):
        inst = gen(6, 0, 2, 3)
        base = heuristic_order(inst, inst.top_ids, "median")
        assert solve_sidegaps(inst, "median").order == base.order
        assert solve_kgaps(inst, "median", 2).order == base.order

    def test_only_dummies_yields_canonical_order(self):
        inst = mk_instance("ddd", "ddd", [])
        expected = canonical_dummy_order(inst).order.order
        assert solve_sidegaps(inst, "median").order == expected
        assert solve_kgaps(inst, "median", 1).order == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_base_matches_sidegap_oracle(self, seed):
        from oscm_gaps.exact import brute_force_oracle, solve_sidegap_exact

        inst = gen(7, 0.4, 2, seed)
        merged = solve_sidegap_exact(inst).permutation
        _, optimum = brute_force_oracle(inst, "sidegap")
        assert count_crossings(inst, merged) == optimum

    @pytest.mark.parametrize("kind", ["median", "barycenter"])
    @pytest.mark.parametrize("seed", range(6))
    def test_crossings_monotone_in_k(self, kind, seed):
        inst = gen(8, 0.5, 2, seed)
        counts = [
            count_crossings(inst, solve_kgaps(inst, kind, k)) for k in range(1, 6)
        ]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("seed", range(6))
    def test_kgap_heuristic_between_oracle_and_three_times(self, seed):
        from oscm_gaps.exact import brute_force_oracle

        inst = gen(7, 0.4, 2, seed)
        _, optimum = brute_force_oracle(inst, "kgap", k=2)
        achieved = count_crossings(inst, solve_kgaps(inst, "median", 2))
        assert optimum <= achieved <= 3 * optimum
