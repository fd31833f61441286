from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen, instances, mk_instance
from oracles import naive_block_crossings, naive_crossings, naive_pair_crossings

from oscm_gaps.core import (
    InputError,
    Permutation,
    concatenate,
    count_crossings,
    count_gaps,
    instance_from_json,
    instance_to_json,
    pairwise_crossings,
    permutation_from_json,
    permutation_to_json,
    restrict_top,
    validate_instance,
)
from oscm_gaps.exact import build_base_oscm_model, objective_value


class TestValidate:
    def test_valid_2x2(self):
        inst = mk_instance("rr", "rr", [(0, 100), (1, 101)])
        assert validate_instance(inst) == []

    def test_dummy_degree_two(self):
        inst = mk_instance("rr", "rd", [(0, 101), (1, 101)])
        assert any("dummy degree != 1" in v for v in validate_instance(inst))

    def test_dummy_degree_zero(self):
        inst = mk_instance("rr", "rd", [(0, 100)])
        assert any("dummy degree != 1" in v for v in validate_instance(inst))

    def test_edge_not_bipartite(self):
        inst = mk_instance("rr", "rr", [(0, 1)])
        assert any("not bipartite" in v for v in validate_instance(inst))

    def test_all_dummy_layers_are_valid(self):
        # no real node exists to attach to, so edgeless dummies pass
        inst = mk_instance("dd", "dd", [])
        assert validate_instance(inst) == []

    def test_bad_pi1(self):
        inst = mk_instance("rr", "r", [(0, 100)], pi1=[0])
        assert any("pi1" in v for v in validate_instance(inst))

    @given(instances())
    @settings(max_examples=50)
    def test_strategy_produces_valid_instances(self, inst):
        assert validate_instance(inst) == []


class TestPermutation:
    def test_duplicate_rejected(self):
        with pytest.raises(InputError):
            Permutation((1, 1))

    def test_position_lookup(self):
        pi = Permutation((3, 1, 2))
        assert pi.pos(1) == 1
        assert pi.precedes(3, 2)
        with pytest.raises(InputError):
            pi.pos(9)

    def test_induced_examples(self):
        assert Permutation((1, 2, 3)).induced({1, 3}).order == (1, 3)
        assert Permutation((1, 2, 3)).induced(set()).order == ()
        assert Permutation((3, 1, 2)).induced({2, 3}).order == (3, 2)

    @given(st.permutations(list(range(8))), st.sets(st.integers(0, 7)))
    def test_induced_idempotent_and_order_preserving(self, order, subset):
        pi = Permutation(tuple(order))
        sub = pi.induced(subset)
        assert sub.induced(subset).order == sub.order
        for i, x in enumerate(sub.order):
            for y in sub.order[i + 1 :]:
                assert pi.precedes(x, y)

    def test_concatenate(self):
        assert concatenate((1, 2), Permutation((3,)), ()).order == (1, 2, 3)


class TestCountCrossings:
    def test_single_pair(self):
        inst = mk_instance("rr", "rr", [(0, 101), (1, 100)])
        assert count_crossings(inst, Permutation((100, 101))) == 1
        assert count_crossings(inst, Permutation((101, 100))) == 0

    def test_complete_k22(self):
        inst = mk_instance("rr", "rr", [(0, 100), (0, 101), (1, 100), (1, 101)])
        assert count_crossings(inst, Permutation((100, 101))) == 1
        assert count_crossings(inst, Permutation((101, 100))) == 1

    def test_unknown_id(self):
        inst = mk_instance("r", "r", [(0, 100)])
        with pytest.raises(InputError):
            count_crossings(inst, Permutation((100, 101)))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_matrix_sum_and_naive_on_random_5x5(self, seed):
        inst = gen(5, 0.25, 2, seed)
        model = build_base_oscm_model(inst)
        ids = list(inst.top_ids)
        for shift in range(4):
            order = tuple(ids[shift:] + ids[:shift][::-1])
            pi2 = Permutation(order)
            expected = naive_crossings(inst, pi2)
            assert count_crossings(inst, pi2) == expected
            assert objective_value(model, pi2) == expected

    @given(instances())
    @settings(max_examples=60)
    def test_inversion_count_equals_matrix_sum(self, inst):
        pi2 = Permutation(tuple(sorted(inst.top_ids, reverse=True)))
        assert count_crossings(inst, pi2) == objective_value(build_base_oscm_model(inst), pi2)


class TestPairwiseCrossings:
    def test_disjoint_singletons(self):
        inst = mk_instance("rr", "rr", [(0, 100), (1, 101)])
        m = pairwise_crossings(inst)
        assert m.cost(100, 101) == 0
        assert m.cost(101, 100) == 1

    def test_shared_endpoint_never_crosses(self):
        inst = mk_instance("r", "rr", [(0, 100), (0, 101)])
        m = pairwise_crossings(inst)
        assert m.cost(100, 101) == 0
        assert m.cost(101, 100) == 0

    def test_six_node_instance_matches_naive(self):
        inst = gen(6, 0.3, 2, 11)
        m = pairwise_crossings(inst)
        for u in inst.top_ids:
            for v in inst.top_ids:
                if u != v:
                    assert m.cost(u, v) == naive_pair_crossings(inst, u, v)

    @given(instances())
    @settings(max_examples=60)
    def test_pair_sum_bounded_by_degree_product(self, inst):
        m = pairwise_crossings(inst)
        for u in inst.top_ids:
            nu = {b for b, t in inst.edges if t == u}
            for v in inst.top_ids:
                if u == v:
                    continue
                nv = {b for b, t in inst.edges if t == v}
                both = m.cost(u, v) + m.cost(v, u)
                assert both <= len(nu) * len(nv)
                if nu & nv:
                    assert both < len(nu) * len(nv)
                else:
                    assert both == len(nu) * len(nv)


class TestBlockCrossings:
    def test_singletons_collapse_to_matrix_entry(self):
        inst = gen(6, 0.3, 2, 3)
        m = pairwise_crossings(inst)
        u, v = inst.top_ids[0], inst.top_ids[1]
        assert naive_block_crossings(inst, [u], [v]) == m.cost(u, v)

    def test_empty_block(self):
        inst = gen(4, 0, 2, 0)
        assert naive_block_crossings(inst, [], list(inst.top_ids)) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_two_by_two_blocks_match_enumeration(self, seed):
        inst = gen(6, 0.3, 2, seed)
        ids = inst.top_ids
        block_a, block_b = [ids[0], ids[2]], [ids[1], ids[3]]
        m = pairwise_crossings(inst)
        expected = sum(m.cost(u, v) for u in block_a for v in block_b)
        assert expected == naive_block_crossings(inst, block_a, block_b)


class TestCountGaps:
    def test_two_side_gaps(self):
        inst = mk_instance("rr", "drrd", [(0, 101), (1, 102), (0, 100), (1, 103)])
        report = count_gaps(inst, Permutation((100, 101, 102, 103)))
        assert report.count == 2
        assert report.side_flags == (True, True)
        assert report.is_side_gap_permutation

    def test_interior_gap(self):
        inst = mk_instance("rr", "rddr", [(0, 100), (1, 103), (0, 101), (1, 102)])
        report = count_gaps(inst, Permutation((100, 101, 102, 103)))
        assert report.count == 1
        assert report.runs == ((1, 2),)
        assert report.side_flags == (False,)
        assert not report.is_side_gap_permutation

    def test_all_dummy_layer(self):
        inst = mk_instance("dd", "dd", [])
        report = count_gaps(inst, Permutation((100, 101)))
        assert report.count == 1
        assert report.side_flags == (True,)

    @given(instances())
    @settings(max_examples=60)
    def test_runs_partition_dummy_positions(self, inst):
        pi2 = Permutation(tuple(sorted(inst.top_ids)))
        report = count_gaps(inst, pi2)
        covered = set()
        for s, e in report.runs:
            assert s <= e
            assert not covered & set(range(s, e + 1))
            covered |= set(range(s, e + 1))
        dummy_positions = {
            i for i, v in enumerate(pi2.order) if inst.top_kind[v] == "dummy"
        }
        assert covered == dummy_positions


class TestJson:
    def test_instance_round_trip(self):
        inst = gen(7, 0.25, 2, 5)
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_writer_key_order(self):
        inst = gen(4, 0.25, 1, 0)
        keys = list(json.loads(instance_to_json(inst)).keys())
        assert keys == ["bottom", "top", "edges", "pi1"]

    def test_reader_accepts_any_key_order(self):
        inst = gen(4, 0.25, 1, 0)
        payload = json.loads(instance_to_json(inst))
        scrambled = json.dumps({k: payload[k] for k in ["pi1", "edges", "top", "bottom"]})
        assert instance_from_json(scrambled) == inst

    def test_duplicate_edges_rejected(self):
        text = json.dumps(
            {
                "bottom": [{"id": 0, "kind": "real"}],
                "top": [{"id": 1, "kind": "real"}],
                "edges": [[0, 1], [0, 1]],
                "pi1": [0],
            }
        )
        with pytest.raises(InputError):
            instance_from_json(text)

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            instance_from_json("{not json")
        with pytest.raises(InputError):
            instance_from_json("{}")

    def test_permutation_round_trip(self):
        pi = Permutation((5, 3, 1))
        assert permutation_from_json(permutation_to_json(pi)) == pi


class TestRestrictTop:
    def test_drops_nodes_and_edges(self):
        inst = mk_instance("rr", "rd", [(0, 100), (1, 101)])
        reduced = restrict_top(inst, {100})
        assert reduced.top_ids == (100,)
        assert reduced.edges == frozenset({(0, 100)})
        assert reduced.pi1 == inst.pi1
