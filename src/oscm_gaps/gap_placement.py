"""Lifting a base ordering of the real nodes to gap-constrained solutions.

Dummy nodes always appear in the canonical order (sorted by their
neighbor's bottom position), under which no two dummy edges cross. The
side-gap merge splits that order into a left and a right block around the
real nodes; the k-gap merge places it into at most k blocks by a dynamic
program over (gaps used, real prefix, dummy prefix).

With s_i[j] the summed cost of the first j dummies at real boundary i,
the block term min_{j'<=j}(dp[g-1][i][j'] + s_i[j] - s_i[j']) is a
running prefix minimum of dp[g-1][i] - s_i, so the merge takes
O(k·r·d) time for r real and d dummy nodes. The backtrack re-derives each
step from the dp rows with a fixed tie rule: advancing to boundary i-1
wins ties, else the smallest split j' reaching the minimum.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .core import BipartiteInstance, InputError, Permutation, concatenate
from .heuristics import HeuristicKind, heuristic_order


@dataclass(frozen=True)
class CanonicalDummyOrder:
    """Dummies sorted ascending by their neighbor's bottom position
    (ties by id); edge-less dummies sort first with position -1."""

    order: Permutation
    neighbor_pos: dict[int, int]


def canonical_dummy_order(inst: BipartiteInstance) -> CanonicalDummyOrder:
    pos1 = inst.pi1.position
    neighbor_pos: dict[int, int] = {}
    for d in inst.dummy_top_ids:
        b = inst.dummy_neighbor[d]
        neighbor_pos[d] = -1 if b is None else pos1[b]
    order = sorted(neighbor_pos, key=lambda d: (neighbor_pos[d], d))
    return CanonicalDummyOrder(Permutation(tuple(order)), neighbor_pos)


def _check_real_order(inst: BipartiteInstance, real_order: Permutation) -> None:
    if set(real_order.order) != set(inst.real_top_ids):
        raise InputError("real_order is not a permutation of the real top nodes")


def side_gap_merge(inst: BipartiteInstance, real_order: Permutation) -> Permutation:
    """Optimal side-gap placement of the dummies around `real_order`.

    Placing a dummy with neighbor position q on the left costs the summed
    real-degree of bottom nodes before q, on the right the summed
    real-degree after q. Along the canonical dummy order the left cost is
    nondecreasing and the right cost nonincreasing, so the dummies that
    strictly prefer the left form a prefix, found by binary search; ties
    go right. Edge-less dummies cross nothing; they sort first in the
    canonical order and are sent left, keeping the split a prefix.
    """
    _check_real_order(inst, real_order)
    canonical = canonical_dummy_order(inst)
    dummies = canonical.order.order

    degs = [inst.bottom_real_degree[b] for b in inst.pi1.order]
    prefix = [0, *accumulate(degs)]
    total = prefix[-1]

    def prefers_left(d: int) -> bool:
        q = canonical.neighbor_pos[d]
        if q < 0:
            left, right = 0, total
        else:
            left, right = prefix[q], total - prefix[q + 1]
        return left < right

    lo, hi = 0, len(dummies)
    while lo < hi:
        mid = (lo + hi) // 2
        if prefers_left(dummies[mid]):
            lo = mid + 1
        else:
            hi = mid
    return concatenate(dummies[:lo], real_order, dummies[lo:])


def block_cost_tables(
    inst: BipartiteInstance, real_order: Permutation, dummy_order: Permutation
) -> list[list[int]]:
    """Prefix-summed placement costs for dummy blocks, one row per real
    boundary: rows[i][j] sums, over the first j dummies, the cost of
    sitting after the first i real nodes and before the rest; the cost of
    block (j'+1..j) at real boundary i is rows[i][j] - rows[i][j']."""
    pos1 = inst.pi1.position
    neigh = inst.neighbor_positions
    q = [
        -1 if inst.dummy_neighbor[d] is None else pos1[inst.dummy_neighbor[d]]
        for d in dummy_order.order
    ]

    # A dummy at boundary 0 crosses every real-incident edge left of its
    # neighbor. Moving real node r from after the dummy to before it adds
    # r's edges strictly right of the neighbor and drops those strictly
    # left. Edge-less dummies (q < 0) cross nothing anywhere.
    left = [0, *accumulate(inst.bottom_real_degree[b] for b in inst.pi1.order)]
    cost = [0 if qt < 0 else left[qt] for qt in q]
    rows = [list(accumulate(cost, initial=0))]
    for r in real_order.order:
        positions = neigh[r]
        degree = len(positions)
        cost = [
            c if qt < 0 else c + degree - bisect_right(positions, qt) - bisect_left(positions, qt)
            for c, qt in zip(cost, q)
        ]
        rows.append(list(accumulate(cost, initial=0)))
    return rows


def _rowwise_min(above: list[int], row: list[int]) -> list[int]:
    return [a if a < b else b for a, b in zip(above, row)]


def merge_dp(costs: list[list[int]], k: int) -> list[list[list[int]]]:
    """Merge DP over the `block_cost_tables` rows `costs`, one layer per
    gap budget g = 1..k (layer g at index g - 1): dp[g][i][j] is the
    minimum mixed crossing count when the first j dummies sit in at most
    g gaps at real boundaries <= i.

    dp[g][i] = min(dp[g][i-1], prefmin_j(dp[g-1][i] - s_i) + s_i),
    elementwise, with s_i = costs[i]: O(k·r·d) for r real and d dummy
    nodes. With no gap only j = 0 is reachable, so the one-gap block
    term is s_i itself.
    """
    dp = [list(accumulate(costs, _rowwise_min))]
    for _ in range(1, k):
        prev_layer = dp[-1]
        # the split j' = j keeps every block term <= dp[g-1][i], so taking
        # the minimum with dp[g-1][0] leaves row 0 exact
        above = prev_layer[0]
        layer = []
        for prev_i, s_i in zip(prev_layer, costs):
            run = 0  # prev_i[0] - s_i[0]
            row = []
            for p, c, a in zip(prev_i, s_i, above):
                x = p - c
                if x < run:
                    run = x
                x = run + c
                row.append(a if a < x else x)
            layer.append(row)
            above = row
        dp.append(layer)
    return dp


def k_gap_merge(
    inst: BipartiteInstance, real_order: Permutation, k: int
) -> tuple[Permutation, int]:
    """Merge `real_order` with the canonical dummy order using at most k
    gaps, minimizing crossings between real-incident and dummy-incident
    edge pairs. Returns the merged permutation and that mixed cost."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    _check_real_order(inst, real_order)
    if not inst.dummy_top_ids:
        return Permutation(real_order.order), 0

    dummy_order = canonical_dummy_order(inst).order
    dummies = dummy_order.order
    n_real, n_dummy = len(real_order), len(dummies)
    costs = block_cost_tables(inst, real_order, dummy_order)
    dp = merge_dp(costs, min(k, n_dummy))  # more gaps than dummies never help
    g, i, j = len(dp), n_real, n_dummy
    mixed = dp[-1][i][j]

    # Re-derive each step from the dp rows: advancing to boundary i-1 wins
    # ties, else the smallest split j' that reaches the minimum.
    boundary = [0] * n_dummy
    while j:
        layer = dp[g - 1]
        value = layer[i][j]
        if i and layer[i - 1][j] == value:
            i -= 1
            continue
        s_i = costs[i]
        split = list(map(sub, dp[g - 2][i], s_i)).index(value - s_i[j]) if g > 1 else 0
        boundary[split:j] = [i] * (j - split)
        g, j = g - 1, split

    merged: list[int] = []
    t = 0
    for b in range(n_real + 1):
        while t < n_dummy and boundary[t] == b:
            merged.append(dummies[t])
            t += 1
        if b < n_real:
            merged.append(real_order.order[b])
    return Permutation(tuple(merged)), mixed


def solve_sidegaps(inst: BipartiteInstance, base: HeuristicKind = "median") -> Permutation:
    """Order the real nodes with a heuristic ("median" or "barycenter"),
    then place all dummies into side gaps."""
    real_order = heuristic_order(inst, inst.real_top_ids, base)
    return side_gap_merge(inst, real_order)


def solve_kgaps(
    inst: BipartiteInstance, base: HeuristicKind, k: int
) -> Permutation:
    """Order the real nodes with a heuristic, then merge the dummies in
    with at most k gaps."""
    real_order = heuristic_order(inst, inst.real_top_ids, base)
    permutation, _ = k_gap_merge(inst, real_order, k)
    return permutation
