from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dummy_bottom_instances, gen, induced, instances, mk_instance, precedes
from oracles import (
    best_bounded_gap_merge,
    best_sidegap_split,
    naive_crossings,
    naive_block_crossings,
    naive_mixed_crossings,
    naive_pair_crossings,
    reference_block_cost_columns,
    reference_block_cost_tables,
    reference_dummy_order,
    reference_k_gap_merge,
)

from oscm_gaps.core import (
    InputError,
    Permutation,
    count_crossings,
    count_gaps,
)
from oscm_gaps.gap_placement import (
    block_cost_columns,
    boundary_totals,
    k_gap_merge,
    merge_layers,
    side_gap_merge,
    solve_kgaps,
    solve_sidegaps,
)
from oscm_gaps.heuristics import heuristic_order


def real_order_of(inst, kind="median"):
    return heuristic_order(inst, inst.real_top_ids, kind)


def assert_canonical_dummy_invariants(inst, pi2):
    """No solver output may scramble the dummies or cross their edges."""
    dummies = reference_dummy_order(inst)
    assert induced(pi2, inst.dummy_top_ids).order == dummies
    for i, d1 in enumerate(dummies):
        for d2 in dummies[i + 1 :]:
            if precedes(pi2, d1, d2):
                assert naive_pair_crossings(inst, d1, d2) == 0


class TestCanonicalDummyOrder:
    """The canonical order is the instance lookup `dummy_chain`."""

    def test_sorted_by_neighbor(self):
        inst = mk_instance("rr", "dd", [(0, 100), (1, 101)], pi1=[1, 0])
        assert inst.dummy_chain == ((0, 101), (1, 100))

    def test_tie_by_id(self):
        inst = mk_instance("r", "dd", [(0, 100), (0, 101)])
        assert inst.dummy_chain == ((0, 100), (0, 101))

    @pytest.mark.parametrize("seed", range(15))
    def test_no_dummy_pair_crossings(self, seed):
        inst = gen(8, 0.5, 2, seed)
        order = [d for _, d in inst.dummy_chain]
        assert len(order) >= 2
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

    @pytest.mark.parametrize(
        "bottom, edges, expected",
        [
            ("", [], (100, 101, 102)),  # left cost 0 ties right cost 0: right
            ("dd", [(0, 100), (1, 101)], (102, 100, 101)),  # 0 < 2: left
        ],
    )
    def test_edgeless_dummies(self, bottom, edges, expected):
        # with no real bottom node a top dummy may have no edge
        inst = mk_instance(bottom, "rrd", edges)
        assert side_gap_merge(inst, real_order_of(inst)).order == expected

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
        best = best_sidegap_split(inst, order, reference_dummy_order(inst))
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
        # each column against one dummy's crossings, and the differences of
        # V_1, the running sums of the columns, against whole blocks
        inst = gen(7, 0.4, 2, seed)
        real_order = real_order_of(inst)
        columns = block_cost_columns(inst, real_order)
        (sums,) = merge_layers(columns, 1)
        reals, dummies = real_order.order, reference_dummy_order(inst)
        assert len(columns) == len(dummies)
        for i in range(len(reals) + 1):
            def cost(block):
                return naive_block_crossings(inst, reals[:i], block) + naive_block_crossings(
                    inst, block, reals[i:]
                )

            for t, d in enumerate(dummies):
                assert columns[t][i] == cost([d])
            prefix = [0] + [row[i] for row in sums]
            for jp in range(len(dummies) + 1):
                for j in range(jp, len(dummies) + 1):
                    assert prefix[j] - prefix[jp] == cost(list(dummies[jp:j]))

    @pytest.mark.parametrize(
        "bottom, top, edges, real_order, expected",
        [
            # dummy 103 has no edge: a zero column at every boundary
            ("ddd", "rrdd", [(0, 100), (1, 101), (2, 102)], (100, 101),
             [[0, 0, 0], [2, 1, 0]]),
            # dummies 102 and 103 share the neighbor 0: equal columns
            ("rr", "rrdd", [(0, 100), (1, 101), (0, 102), (0, 103)], (100, 101),
             [[0, 0, 1], [0, 0, 1]]),
            ("rr", "rr", [(0, 100), (1, 101)], (101, 100), []),  # no dummy
            ("rr", "dd", [(0, 100), (1, 101)], (), [[0], [0]]),  # no real node
        ],
        ids=["edge_less_dummy", "shared_neighbor", "no_dummy", "no_real"],
    )
    def test_degenerate_tables(self, bottom, top, edges, real_order, expected):
        inst = mk_instance(bottom, top, edges)
        order = Permutation(real_order)
        assert block_cost_columns(inst, order) == expected
        assert reference_block_cost_columns(inst, order) == expected

    @pytest.mark.parametrize("n,f_dm,seed", [(7, 0.4, 1), (16, 0.2, 2), (200, 0.2, 1), (200, 0.8, 2)])
    def test_boundary_totals_are_the_last_column(self, n, f_dm, seed):
        # the reference tables' last column: the per-boundary sum of the columns
        inst = gen(n, f_dm, 3, seed)
        for kind in ("median", "barycenter"):
            real_order = real_order_of(inst, kind)
            totals = boundary_totals(inst, real_order)
            assert totals == [row[-1] for row in reference_block_cost_tables(inst, real_order)]
            assert totals == list(map(sum, zip(*block_cost_columns(inst, real_order))))

    # shuffled real orders of arbitrary instances reach edge-less dummies,
    # dummies that share a neighbor, no dummy and no real node
    @given(inst=st.one_of(instances(), dummy_bottom_instances()), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_tables(self, inst, data):
        real_order = Permutation(tuple(data.draw(st.permutations(inst.real_top_ids))))
        expected = reference_block_cost_columns(inst, real_order)
        assert block_cost_columns(inst, real_order) == expected

    # the one-gap merge reads these totals instead of the columns
    @given(inst=st.one_of(instances(), dummy_bottom_instances()), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_boundary_totals_on_arbitrary_instances(self, inst, data):
        real_order = Permutation(tuple(data.draw(st.permutations(inst.real_top_ids))))
        columns = block_cost_columns(inst, real_order)
        totals = [sum(column[i] for column in columns) for i in range(len(real_order) + 1)]
        assert boundary_totals(inst, real_order) == totals


class TestMergeTable:
    def test_base_cases_and_monotone_in_g(self):
        inst = gen(8, 0.5, 2, 4)
        real_order = real_order_of(inst)
        columns = block_cost_columns(inst, real_order)
        V = merge_layers(columns, 3)
        bounds = range(len(real_order) + 1)
        n_dummy = len(inst.dummy_top_ids)
        assert len(V) == 3 and n_dummy >= 3
        for layer in V:
            assert len(layer) == n_dummy
            assert layer[0] == columns[0]  # one dummy sits at its own cost
        # one gap holds one block: the running sums of the columns
        for t in range(n_dummy):
            assert V[0][t] == [sum(column[i] for column in columns[: t + 1]) for i in bounds]
        # by definition: the last block s..t at boundary i, the dummies
        # before it in one gap fewer at boundaries <= i
        for g in range(1, len(V)):
            for t in range(n_dummy):
                for i in bounds:
                    expected = min(
                        (min(V[g - 1][s - 1][: i + 1]) if s else 0)
                        + sum(column[i] for column in columns[s : t + 1])
                        for s in range(t + 1)
                    )
                    assert V[g][t][i] == expected
                    assert V[g][t][i] <= V[g - 1][t][i]
                    if t < g:  # dummies 0..t fit in fewer blocks
                        assert V[g][t][i] == V[t][t][i]

    def test_no_layer_at_zero_gaps(self):
        inst = gen(8, 0.5, 2, 4)
        columns = block_cost_columns(inst, real_order_of(inst))
        assert merge_layers(columns, 0) == []

    @pytest.mark.parametrize("n,seed", [(16, 1), (16, 2), (200, 1)])
    @pytest.mark.parametrize("kind", ["median", "barycenter"])
    def test_top_row_is_the_full_layer_minimum(self, n, seed, kind):
        # one table built for five gaps holds every smaller budget's optimum
        # in the last row of its layer (at one gap the merge reads the
        # boundary totals instead), and budgets above d read layer d
        inst = gen(n, "0.2", 3, seed)
        real_order = real_order_of(inst, kind)
        d = len(inst.dummy_top_ids)
        assert d >= 3
        V = merge_layers(block_cost_columns(inst, real_order), min(5, d))
        for k in range(1, 6):
            _, mixed = k_gap_merge(inst, real_order, k)
            assert mixed == min(V[min(k, d) - 1][d - 1])


# (n, f_dm, heuristic, k); n=200 is costly for the quadratic reference,
# so it gets one case per dummy fraction
_REFERENCE_MERGE_CASES = [
    (n, f_dm, kind, k)
    for n in (3, 8, 20, 40)
    for f_dm in ("0.2", "0.5", "0.8")
    for kind in ("median", "barycenter")
    for k in (1, 2, 3, 5, 8)
] + [
    (200, "0.2", "median", 5),
    (200, "0.5", "barycenter", 3),
    (200, "0.8", "median", 2),
    (200, "0.2", "barycenter", 1),
    (200, "0.5", "median", 1),
]


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
        dummies = reference_dummy_order(inst)
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
            inst, order, reference_dummy_order(inst), k
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

    @pytest.mark.parametrize("kind", ["median", "barycenter"])
    @given(inst=instances())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_merge_on_arbitrary_instances(self, kind, inst):
        # reaches edge-less dummies, no dummy, one dummy and k >= d
        order = real_order_of(inst, kind)
        for k in (1, 2, 3, 4):
            merged, mixed = k_gap_merge(inst, order, k)
            expected, expected_mixed = reference_k_gap_merge(inst, order, k)
            assert merged.order == expected.order
            assert mixed == expected_mixed

    # shuffled real orders reach more ties than heuristic ones; the larger
    # all-dummy-bottom instances hold up to 8 dummies, so a merge may open
    # three or more blocks over tied prefix minima
    @given(
        inst=st.one_of(instances(), dummy_bottom_instances(max_bottom=10, max_top=8)),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_merge_on_shuffled_orders(self, inst, data):
        order = Permutation(tuple(data.draw(st.permutations(inst.real_top_ids))))
        for k in (1, 2, 3, 4, len(inst.dummy_top_ids) + 1):
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
        expected = reference_dummy_order(inst)
        assert solve_sidegaps(inst, "median").order == expected
        assert solve_kgaps(inst, "median", 1).order == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_base_matches_sidegap_oracle(self, seed):
        from oscm_gaps.exact import enumerate_optima, solve_sidegap_exact

        inst = gen(7, 0.4, 2, seed)
        merged = solve_sidegap_exact(inst).permutation
        _, optimum = enumerate_optima(inst)["sidegap"]
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
        from oscm_gaps.exact import enumerate_optima

        inst = gen(7, 0.4, 2, seed)
        _, optimum = enumerate_optima(inst, (2,))[("kgap", 2)]
        achieved = count_crossings(inst, solve_kgaps(inst, "median", 2))
        assert optimum <= achieved <= 3 * optimum
