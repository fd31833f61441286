from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen, induced, instances, mk_instance, restrict_top
from oracles import naive_crossings, reference_heuristic_order

from oscm_gaps.core import InputError
from oscm_gaps.exact import enumerate_optima
from oscm_gaps.heuristics import HEURISTIC_KINDS, heuristic_order


def is_dummy_independent_witness(inst, kind) -> bool:
    """One instance of the dummy-independence property: ordering the real
    nodes alone matches the real order induced by ordering everything."""
    reals = inst.real_top_ids
    alone = heuristic_order(restrict_top(inst, reals), reals, kind)
    full = heuristic_order(inst, inst.top_ids, kind)
    return alone.order == induced(full, reals).order


class TestKeys:
    def test_median_is_left_median(self):
        # neighbor positions {1,3,4} -> 3; {2,5} -> 2, ahead of 3 (the
        # right median, 5, would put it behind)
        inst = mk_instance(
            "rrrrrr",
            "rr",
            [(1, 100), (3, 100), (4, 100), (2, 101), (5, 101)],
        )
        assert heuristic_order(inst, inst.top_ids, "median").order == (101, 100)

    def test_barycenter_mean(self):
        # means 3/2, 1, 2 and 3/2: the exact mean sits between its integer
        # neighbours and ties another 3/2 by the id
        inst = mk_instance(
            "rrrr",
            "rrrr",
            [(0, 100), (1, 100), (2, 100), (3, 100), (1, 101), (2, 102), (1, 103), (2, 103)],
        )
        order = heuristic_order(inst, inst.top_ids, "barycenter")
        assert order.order == (101, 100, 103, 102)

    def test_degree_zero_goes_leftmost(self):
        inst = mk_instance("rr", "rr", [(0, 101), (1, 101)])
        for kind in ("median", "barycenter"):
            assert heuristic_order(inst, inst.top_ids, kind).order[0] == 100

    def test_keys_follow_pi1_not_ids(self):
        inst = mk_instance("rr", "rr", [(0, 100), (1, 101)], pi1=[1, 0])
        order = heuristic_order(inst, inst.top_ids, "median")
        assert order.order == (101, 100)

    def test_odd_degree_wins_ties(self):
        # both nodes have median position 1; degree 1 beats degree 2
        inst = mk_instance("rrr", "rr", [(1, 100), (1, 101), (2, 101)])
        order = heuristic_order(inst, inst.top_ids, "median")
        assert order.order == (100, 101)

    def test_unknown_subset_id(self):
        inst = mk_instance("r", "r", [(0, 100)])
        with pytest.raises(InputError):
            heuristic_order(inst, [100, 999], "median")

    def test_unknown_kind(self):
        inst = mk_instance("r", "r", [(0, 100)])
        with pytest.raises(InputError):
            heuristic_order(inst, [100], "sifting")


class TestReferenceKeys:
    """The integer keys order as the exact-rational keys do."""

    @pytest.mark.parametrize("kind", HEURISTIC_KINDS)
    @given(inst=instances(), data=st.data())
    @settings(max_examples=60)
    def test_matches_reference_on_random_subsets(self, kind, inst, data):
        subset = data.draw(st.lists(st.sampled_from(inst.top_ids), unique=True))
        expected = reference_heuristic_order(inst, subset, kind)
        assert heuristic_order(inst, subset, kind) == expected

    @pytest.mark.parametrize("kind", HEURISTIC_KINDS)
    def test_matches_reference_at_degrees_0_to_40(self, kind):
        # the lcm of 1..40 is about 5e15; the degree-0 node sits among the
        # ids, and every other node has its own barycenter
        rng = random.Random(5)
        degrees = [(7 + 17 * i) % 41 for i in range(41)]
        edges = [(b, 100 + i) for i, deg in enumerate(degrees) for b in rng.sample(range(64), deg)]
        inst = mk_instance("r" * 64, "r" * 41, edges)
        means = [Fraction(sum(p), len(p)) for p in inst.neighbor_positions.values() if p]
        assert 0 < degrees.index(0) < 40 and len(set(means)) == 40
        order = heuristic_order(inst, inst.top_ids, kind)
        assert order == reference_heuristic_order(inst, inst.top_ids, kind)
        assert order.order[0] == 100 + degrees.index(0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["median", "barycenter"])
    def test_repeated_runs_identical(self, kind):
        inst = gen(9, 0.25, 2, 17)
        first = heuristic_order(inst, inst.top_ids, kind)
        assert all(
            heuristic_order(inst, inst.top_ids, kind) == first for _ in range(3)
        )


class TestDummyIndependence:
    @pytest.mark.parametrize("kind", ["median", "barycenter"])
    @pytest.mark.parametrize("seed", range(100))
    def test_witness_on_generated_instances(self, kind, seed):
        inst = gen(8, 0.375, 2, seed)
        assert is_dummy_independent_witness(inst, kind)

    @pytest.mark.parametrize("kind", ["median", "barycenter"])
    @given(inst=instances())
    @settings(max_examples=40)
    def test_witness_on_arbitrary_instances(self, kind, inst):
        assert is_dummy_independent_witness(inst, kind)


class TestRestrictTop:
    """The witness's real-only instance."""

    def test_drops_nodes_and_edges(self):
        inst = mk_instance("rr", "rd", [(0, 100), (1, 101)])
        reduced = restrict_top(inst, {100})
        assert reduced.top_ids == (100,)
        assert reduced.edges == frozenset({(0, 100)})
        assert reduced.pi1 == inst.pi1


class TestApproximation:
    @pytest.mark.parametrize("seed", range(20))
    def test_median_within_three_times_optimum(self, seed):
        inst = gen(8, 0, 2, seed)  # classic instances: no dummies
        order = heuristic_order(inst, inst.top_ids, "median")
        achieved = naive_crossings(inst, order)
        # the enumeration oracle, itself checked against itertools in
        # test_exact.TestOracle, is independent of heuristic_order
        _, optimum = enumerate_optima(inst)["unrestricted"]
        assert achieved <= 3 * optimum

    def test_median_zero_when_crossing_free(self):
        # a planar-orderable instance must stay at zero crossings
        inst = mk_instance(
            "rrrr", "rrr", [(0, 100), (1, 100), (2, 101), (3, 102)]
        )
        order = heuristic_order(inst, inst.top_ids, "median")
        assert naive_crossings(inst, order) == 0
