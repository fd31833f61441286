from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import gen, instances, mk_instance
from oracles import best_by_enumeration, naive_crossings

from oscm_gaps.core import InputError, restrict_top
from oscm_gaps.heuristics import heuristic_key, heuristic_order


def is_dummy_independent_witness(inst, kind) -> bool:
    """One instance of the dummy-independence property: ordering the real
    nodes alone matches the real order induced by ordering everything."""
    reals = inst.real_top_ids
    alone = heuristic_order(restrict_top(inst, reals), reals, kind)
    full = heuristic_order(inst, inst.top_ids, kind)
    return alone.order == full.induced(reals).order


class TestKeys:
    def test_median_is_left_median(self):
        # neighbor positions {1,3,4} -> 3; {2,5} -> 2
        inst = mk_instance(
            "rrrrrr",
            "rr",
            [(1, 100), (3, 100), (4, 100), (2, 101), (5, 101)],
        )
        assert heuristic_key(inst, 100, "median") == (3, 0, 100)  # odd degree
        assert heuristic_key(inst, 101, "median") == (2, 1, 101)  # even degree

    def test_barycenter_mean(self):
        inst = mk_instance("rrrr", "r", [(0, 100), (1, 100), (2, 100), (3, 100)])
        assert heuristic_key(inst, 100, "barycenter")[0] == Fraction(3, 2)

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


class TestApproximation:
    @pytest.mark.parametrize("seed", range(20))
    def test_median_within_three_times_optimum(self, seed):
        inst = gen(8, 0, 2, seed)  # classic instances: no dummies
        order = heuristic_order(inst, inst.top_ids, "median")
        achieved = naive_crossings(inst, order)
        _, optimum = best_by_enumeration(inst)
        assert achieved <= 3 * optimum

    def test_median_zero_when_crossing_free(self):
        # a planar-orderable instance must stay at zero crossings
        inst = mk_instance(
            "rrrr", "rrr", [(0, 100), (1, 100), (2, 101), (3, 102)]
        )
        order = heuristic_order(inst, inst.top_ids, "median")
        assert naive_crossings(inst, order) == 0
