from __future__ import annotations

import json
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dummy_bottom_instances, gen, induced, instances, mk_instance, precedes
from oracles import (
    naive_block_crossings,
    naive_crossings,
    naive_pair_crossings,
    reference_dummy_chain,
)

from oscm_gaps.core import (
    BipartiteInstance,
    InputError,
    Node,
    Permutation,
    count_crossings,
    count_gaps,
    instance_from_json,
    instance_to_json,
    pairwise_crossings,
    permutation_from_json,
    permutation_to_json,
    validate_instance,
)
from oscm_gaps.exact import build_base_oscm_model, objective_value


GRID_NS = (8, 16, 40, 60)


def grid_instances(n):
    """Generated instances with n nodes per layer over four dummy
    fractions and three average degrees, two seeds each."""
    for f_dm in ("0", "0.2", "0.5", "1"):
        for deg_avg in (1, 3, 5):
            for seed in (1, 2):
                yield gen(n, f_dm, deg_avg, seed)


def shared_ends_instance():
    """Several top nodes per bottom position, dummies on both layers and a
    bottom order that is not the listing order."""
    return mk_instance(
        "rrrrrd",
        "rrrrdd",
        [(4, 100), (4, 101), (4, 102), (4, 104), (0, 100), (2, 100), (0, 101), (1, 101),
         (2, 102), (3, 102), (0, 103), (1, 103), (2, 103), (3, 103), (1, 105), (5, 103)],
        pi1=(3, 0, 5, 4, 1, 2),
    )


def assert_rows_match_naive(inst, ids):
    rows = pairwise_crossings(inst, ids)
    assert len(rows) == len(ids)
    for row, u in zip(rows, ids):
        assert row == tuple(naive_pair_crossings(inst, u, v) if u != v else 0 for v in ids)


class TestValidate:
    def test_valid_2x2(self):
        inst = mk_instance("rr", "rr", [(0, 100), (1, 101)])
        assert validate_instance(inst) == []

    def test_dummy_degree_two(self):
        with pytest.raises(InputError, match="dummy degree != 1: top node 101 has degree 2"):
            mk_instance("rr", "rd", [(0, 101), (1, 101)])

    def test_dummy_degree_zero(self):
        with pytest.raises(InputError, match="dummy degree != 1: top node 101 has degree 0"):
            mk_instance("rr", "rd", [(0, 100)])

    def test_edge_not_bipartite(self):
        with pytest.raises(InputError, match=r"edge not bipartite: \(0, 1\)"):
            mk_instance("rr", "rr", [(0, 1)])

    def test_all_dummy_layers_are_valid(self):
        # no real node exists to attach to, so edgeless dummies pass
        inst = mk_instance("dd", "dd", [])
        assert validate_instance(inst) == []

    def test_bad_pi1(self):
        with pytest.raises(InputError, match="pi1 is not a permutation of the bottom layer"):
            mk_instance("rr", "r", [(0, 100)], pi1=[0])

    def test_build_refuses_top_dummy_with_two_edges(self):
        # Built unchecked, this instance made the exact k=1 solver report
        # "optimal" at 2 crossings, where enumeration finds 1.
        edges = [(0, 105), (1, 100), (1, 104), (1, 105), (2, 100), (2, 103)]
        with pytest.raises(InputError, match="top node 105 has degree 2"):
            mk_instance("rrrr", "rrrddd", edges)
        raw = BipartiteInstance(
            tuple(Node(i, "real") for i in range(4)),
            tuple(Node(100 + i, "real" if i < 3 else "dummy") for i in range(6)),
            frozenset(edges),
            Permutation((0, 1, 2, 3)),
        )
        assert validate_instance(raw) == ["dummy degree != 1: top node 105 has degree 2"]

    BOTTOM = [Node(0, "real"), Node(1, "real")]

    @pytest.mark.parametrize(
        "top, edges, message",
        [
            ([Node(2, "real"), Node(3, "real")], [(0, 2.9), (1, 3)],
             "edge end must be an integer, got 2.9"),
            ([Node(2.5, "real"), Node(3, "real")], [(0, 3)],
             "top node id must be an integer, got 2.5"),
            ([Node(True, "real"), Node(3, "real")], [(0, 3)], "bad top node id: True"),
            ([Node(2, "bogus"), Node(3, "real")], [(0, 3)], "bad node kind: 'bogus'"),
        ],
        ids=["fractional_edge_end", "fractional_id", "boolean_id", "unknown_kind"],
    )
    def test_build_refuses_what_a_file_refuses(self, top, edges, message):
        with pytest.raises(InputError, match=message):
            BipartiteInstance.build(self.BOTTOM, top, edges)

    def test_build_reads_integral_floats_as_a_file_does(self):
        inst = BipartiteInstance.build(self.BOTTOM, [Node(2.0, "real")], [(0.0, 2), (1, 2.0)])
        assert inst.top_ids == (2,)
        assert inst.edges == {(0, 2), (1, 2)}
        assert all(type(v) is int for v in inst.top_ids + inst.pi1.order)

    @given(instances())
    @settings(max_examples=50)
    def test_strategy_produces_valid_instances(self, inst):
        assert validate_instance(inst) == []


def naive_real_edges_before(inst):
    """Per position q, the edges with a real top end whose bottom end is
    left of q, counted edge by edge."""
    real = set(inst.real_top_ids)
    left_of = [inst.pi1.order.index(b) for b, t in inst.edges if t in real]
    return tuple(sum(p < q for p in left_of) for q in range(len(inst.pi1) + 1))


class TestLookups:
    NAMES = {"top_ids", "real_top_ids", "dummy_top_ids", "top_kind",
             "neighbor_positions", "real_edges_before", "dummy_chain"}

    def test_built_on_request(self):
        inst = gen(n=8, f_dm="0.25", deg_avg=2, seed=1)
        assert not self.NAMES & set(vars(inst))
        inst.build_lookups()
        assert self.NAMES <= set(vars(inst))
        assert "position" in vars(inst.pi1)

    @given(instances())
    @settings(max_examples=50)
    def test_real_edges_before_counts_each_position(self, inst):
        assert inst.real_edges_before == naive_real_edges_before(inst)

    @pytest.mark.parametrize("f_dm", ["0", "0.2", "0.5", "1"])
    def test_real_edges_before_on_generated_grid(self, f_dm):
        for n in (1, 2, 5, 16, 40):
            for seed in range(5):
                inst = gen(n, f_dm, 3, seed)
                assert inst.real_edges_before == naive_real_edges_before(inst)

    @given(st.one_of(instances(), dummy_bottom_instances()))
    @settings(max_examples=80)
    def test_dummy_chain_matches_reference(self, inst):
        assert list(inst.dummy_chain) == reference_dummy_chain(inst)

    @pytest.mark.parametrize("f_dm", ["0", "0.2", "0.5", "1"])
    def test_dummy_chain_on_generated_grid(self, f_dm):
        for n in (1, 2, 5, 16, 40):
            for seed in range(5):
                inst = gen(n, f_dm, 3, seed)
                assert list(inst.dummy_chain) == reference_dummy_chain(inst)

    def test_edge_less_dummies_come_first(self):
        inst = mk_instance("dd", "rddd", [(0, 103), (1, 100)], pi1=[1, 0])
        assert inst.dummy_chain == ((-1, 101), (-1, 102), (1, 103))


class TestPermutation:
    def test_duplicate_rejected(self):
        with pytest.raises(InputError):
            Permutation((1, 1))

    def test_position_lookup(self):
        pi = Permutation((3, 1, 2))
        assert pi.position[1] == 1
        assert precedes(pi, 3, 2)
        assert 9 not in pi.position

    def test_induced_examples(self):
        assert induced(Permutation((1, 2, 3)), {1, 3}).order == (1, 3)
        assert induced(Permutation((1, 2, 3)), set()).order == ()
        assert induced(Permutation((3, 1, 2)), {2, 3}).order == (3, 2)

    @given(st.permutations(list(range(8))), st.sets(st.integers(0, 7)))
    def test_induced_idempotent_and_order_preserving(self, order, subset):
        pi = Permutation(tuple(order))
        sub = induced(pi, subset)
        assert induced(sub, subset).order == sub.order
        for i, x in enumerate(sub.order):
            for y in sub.order[i + 1 :]:
                assert precedes(pi, x, y)


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
        model = build_base_oscm_model(inst, inst.top_ids)
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
        model = build_base_oscm_model(inst, inst.top_ids)
        assert count_crossings(inst, pi2) == objective_value(model, pi2)

    @pytest.mark.parametrize("n", GRID_NS)
    def test_matches_naive_on_generated_grid(self, n):
        rng = random.Random(n)
        for inst in grid_instances(n):
            order = list(inst.top_ids)
            for _ in range(2):
                rng.shuffle(order)
                pi2 = Permutation(tuple(order))
                assert count_crossings(inst, pi2) == naive_crossings(inst, pi2)

    def test_shared_bottom_positions_match_naive(self):
        inst = shared_ends_instance()
        for order in permutations(inst.top_ids):
            pi2 = Permutation(order)
            assert count_crossings(inst, pi2) == naive_crossings(inst, pi2)


class TestPairwiseCrossings:
    def test_disjoint_singletons(self):
        inst = mk_instance("rr", "rr", [(0, 100), (1, 101)])
        # row u, column v: crossings with u before v
        assert pairwise_crossings(inst, (100, 101)) == ((0, 0), (1, 0))
        assert pairwise_crossings(inst, (101, 100)) == ((0, 1), (0, 0))

    def test_shared_endpoint_never_crosses(self):
        inst = mk_instance("r", "rr", [(0, 100), (0, 101)])
        assert pairwise_crossings(inst, (100, 101)) == ((0, 0), (0, 0))

    def test_six_node_instance_matches_naive(self):
        inst = gen(6, 0.3, 2, 11)
        ids = inst.top_ids
        rows = pairwise_crossings(inst, ids)
        for row, u in zip(rows, ids):
            for c_uv, v in zip(row, ids):
                if u != v:
                    assert c_uv == naive_pair_crossings(inst, u, v)

    @given(st.data())
    @settings(max_examples=60)
    def test_rows_of_any_subset_are_a_block_of_the_full_rows(self, data):
        """Crossings between two top nodes depend on those two alone, so
        the rows of any subset, in any order, are the matching block of
        the full rows: the real nodes' rows do not depend on the dummies."""
        inst = data.draw(instances())
        ids = inst.top_ids
        full = pairwise_crossings(inst, ids)
        shuffled = data.draw(st.permutations(ids))
        drawn = tuple(shuffled[: data.draw(st.integers(0, len(ids)))])
        for subset in (inst.real_top_ids, inst.dummy_top_ids, drawn):
            at = [ids.index(v) for v in subset]
            rows = pairwise_crossings(inst, subset)
            assert rows == tuple(tuple(full[i][j] for j in at) for i in at)
            assert_rows_match_naive(inst, subset)

    @pytest.mark.parametrize("n", GRID_NS)
    def test_matches_naive_on_generated_grid(self, n):
        rng = random.Random(n)
        for inst in grid_instances(n):
            ids = list(inst.top_ids)
            rng.shuffle(ids)
            assert_rows_match_naive(inst, ids[: rng.randint(0, len(ids))])

    def test_shared_bottom_positions_match_naive(self):
        inst = shared_ends_instance()
        for i, order in enumerate(permutations(inst.top_ids)):
            assert_rows_match_naive(inst, order[: i % 7])

    @pytest.mark.parametrize("stray", [999, 0], ids=["unknown", "bottom"])
    def test_non_top_id_is_an_input_error(self, stray):
        inst = mk_instance("rr", "rr", [(0, 100), (1, 101)])
        for build in (pairwise_crossings, build_base_oscm_model):
            with pytest.raises(InputError, match=f"unknown top id {stray}"):
                build(inst, (100, stray))

    @given(instances())
    @settings(max_examples=60)
    def test_pair_sum_bounded_by_degree_product(self, inst):
        ids = inst.top_ids
        rows = pairwise_crossings(inst, ids)
        for i, u in enumerate(ids):
            nu = {b for b, t in inst.edges if t == u}
            for j, v in enumerate(ids):
                if u == v:
                    continue
                nv = {b for b, t in inst.edges if t == v}
                both = rows[i][j] + rows[j][i]
                assert both <= len(nu) * len(nv)
                if nu & nv:
                    assert both < len(nu) * len(nv)
                else:
                    assert both == len(nu) * len(nv)


class TestBlockCrossings:
    def test_singletons_collapse_to_matrix_entry(self):
        inst = gen(6, 0.3, 2, 3)
        u, v = inst.top_ids[0], inst.top_ids[1]
        assert naive_block_crossings(inst, [u], [v]) == pairwise_crossings(inst, (u, v))[0][1]

    def test_empty_block(self):
        inst = gen(4, 0, 2, 0)
        assert naive_block_crossings(inst, [], list(inst.top_ids)) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_two_by_two_blocks_match_enumeration(self, seed):
        inst = gen(6, 0.3, 2, seed)
        ids = inst.top_ids
        block_a, block_b = [ids[0], ids[2]], [ids[1], ids[3]]
        rows = pairwise_crossings(inst, block_a + block_b)
        expected = sum(rows[i][j] for i in range(2) for j in range(2, 4))
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
