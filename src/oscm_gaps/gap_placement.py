"""Lifting a base ordering of the real nodes to gap-constrained solutions.

Dummy nodes always appear in the canonical order of
`BipartiteInstance.dummy_chain` (sorted by their neighbor's bottom
position), under which no two dummy edges cross. The side-gap merge
splits that order into a left and a right block around the real nodes;
the k-gap merge places it into at most k blocks by a dynamic program
that walks the chain one dummy at a time, over the real boundaries.

Each dummy's placement cost over the r + 1 real boundaries is one
column (`block_cost_columns`). Layer g of the DP holds one row per dummy,
each built in one Python pass over the boundaries, so the merge takes
O(k·r·d) time for d dummy nodes. The backtrack walks the chain down with
a fixed tie rule: each block goes at the earliest boundary that reaches
its minimum, then takes the smallest split. It inserts each dummy block
into the real order at its boundary as it finds it, last block first.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import add

from .core import BipartiteInstance, InputError, Permutation, as_k
from .heuristics import HeuristicKind, heuristic_order


def _check_real_order(inst: BipartiteInstance, real_order: Permutation) -> None:
    if set(real_order.order) != set(inst.real_top_ids):
        raise InputError("real_order is not a permutation of the real top nodes")


def side_gap_merge(inst: BipartiteInstance, real_order: Permutation) -> Permutation:
    """Optimal side-gap placement of the dummies around `real_order`.

    Placing a dummy with neighbor position q on the left costs the
    real-incident edges left of q, on the right those right of q. Along
    `inst.dummy_chain` q ascends, so the left cost is nondecreasing and
    the right cost nonincreasing, and the dummies that go right form a
    suffix, found by binary search over the chain's positions; ties go
    right. Edge-less dummies cross nothing and sort first in the chain,
    at q = -1: they go left when some edge has a real top end (left cost
    0 < right cost), and right, as every tie does, when none has.
    """
    _check_real_order(inst, real_order)
    chain = inst.dummy_chain
    before = inst.real_edges_before
    total = before[-1]

    def goes_right(link: tuple[int, int]) -> bool:
        q = link[0]
        if q < 0:
            return total == 0
        return before[q] >= total - before[q + 1]

    split = bisect_left(chain, True, key=goes_right)
    dummies = tuple(d for _, d in chain)
    return Permutation(dummies[:split] + real_order.order + dummies[split:])


def block_cost_columns(inst: BipartiteInstance, real_order: Permutation) -> list[list[int]]:
    """Placement costs of single dummies, one column per dummy of the
    canonical chain: columns[t][i] is the cost of the t-th dummy sitting
    after the first i real nodes and before the rest. Dummies that share
    a neighbor share one column list. With no dummy it is [].

    A dummy with neighbor position q at boundary 0 crosses every
    real-incident edge left of q. Moving the i-th real node from after
    the dummy to before it adds w[i], its edges right of q minus those
    left of q, so the dummy's column over the boundaries is a running
    sum of w. Walking the chain upward, q only grows, and w starts at
    the degrees (q = -1) and loses 1 per edge when q reaches the edge's
    position and 1 more when q passes it. That is O(E + b) Python steps
    for E real edges and b bottom positions, plus d C-level passes of
    length r. Edge-less dummies (q < 0) cross nothing anywhere."""
    neigh = inst.neighbor_positions
    left = inst.real_edges_before
    reals = real_order.order
    w = [len(neigh[r]) for r in reals]
    at: list[list[int]] = [[] for _ in left]  # per position, ranks of its real neighbors
    for i, r in enumerate(reals):
        for p in neigh[r]:
            at[p].append(i)

    columns = []
    column = [0] * (len(reals) + 1)
    q = -1
    for qt, _ in inst.dummy_chain:
        if qt > q:
            if q >= 0:
                for i in at[q]:
                    w[i] -= 1
            for p in range(q + 1, qt):
                for i in at[p]:
                    w[i] -= 2
            for i in at[qt]:
                w[i] -= 1
            q = qt
            column = list(accumulate(w, initial=left[qt]))
        columns.append(column)
    return columns


def merge_layers(columns: list[list[int]], k: int) -> list[list[list[int]]]:
    """The merge table V_1..V_k of `k_gap_merge` over the
    `block_cost_columns` `columns`, for k up to the number d of dummies:
    layer g - 1 holds V_g[t] for t = 0..d-1, a row over the r + 1 real
    boundaries. V_1 sums the columns; each row of a higher layer is one
    Python pass keeping the running prefix minimum of V_{g-1}[t-1], and
    rows of dummies that fit in fewer blocks are shared with the layer
    below. At k = 0 it returns no layer. O(k·r·d) for r real and d dummy
    nodes."""
    if k < 1:
        return []
    layers = [list(accumulate(columns, lambda v, c: list(map(add, v, c))))]
    for g in range(2, k + 1):
        below = layers[-1]
        layer = below[: g - 1]
        row = layer[-1]
        for t in range(g - 1, len(columns)):
            opened = below[t - 1]
            run = opened[0]
            new = []
            for same, b, c in zip(row, opened, columns[t]):
                if b < run:
                    run = b
                new.append((same if same < run else run) + c)
            row = new
            layer.append(row)
        layers.append(layer)
    return layers


def boundary_totals(inst: BipartiteInstance, real_order: Permutation) -> list[int]:
    """Entry i is the mixed cost of all dummies in one block after the
    first i real nodes: the sum of the `block_cost_columns` at i, from the
    real nodes' edges alone in O(E + b) for E real edges and b bottom
    positions.

    At boundary 0 each dummy crosses the real edges left of it. Moving
    real node r before the block adds, per edge of r at position p, the
    dummies left of p and drops those right of it: weight[p]."""
    q = [qt for qt, _ in inst.dummy_chain if qt >= 0]
    at = [0] * len(inst.pi1)
    for qt in q:
        at[qt] += 1
    below = list(accumulate(at, initial=0))  # dummies left of each position
    weight = [x + y - len(q) for x, y in zip(below, below[1:])]
    neigh = inst.neighbor_positions
    left = inst.real_edges_before
    return list(
        accumulate(
            (sum(map(weight.__getitem__, neigh[r])) for r in real_order.order),
            initial=sum(left[qt] for qt in q),
        )
    )


def k_gap_merge(
    inst: BipartiteInstance, real_order: Permutation, k: int
) -> tuple[Permutation, int]:
    """Merge `real_order` with the instance's `dummy_chain` using at most
    k gaps, minimizing crossings between real-incident and dummy-incident
    edge pairs. Returns the merged permutation and that mixed cost; k is
    read by `as_k`.

    V_g[t][i], the least mixed cost of chain dummies 0..t in at most g
    blocks with dummy t at real boundary i, is c_t(i) plus the smaller of
    V_g[t-1][i] (dummy t joins the block of dummy t-1) and the prefix
    minimum of V_{g-1}[t-1] up to i (it opens a block), over the
    `block_cost_columns` c_t. V_1 sums the columns, and V_g[t] is
    V_{t+1}[t] once g > t + 1. The mixed cost is min(V_k[d-1]); at one
    gap that row is the `boundary_totals`, and no column is built."""
    k = as_k(k)
    _check_real_order(inst, real_order)
    dummies = [d for _, d in inst.dummy_chain]
    # more gaps than dummies never help; with no dummy, one gap holds the
    # empty block
    k = max(1, min(k, len(dummies)))
    merged = list(real_order.order)
    if k == 1:
        totals = boundary_totals(inst, real_order)
        mixed = min(totals)
        i = totals.index(mixed)
        merged[i:i] = dummies
        return Permutation(tuple(merged)), mixed

    columns = block_cost_columns(inst, real_order)
    layers = merge_layers(columns, k)
    # the last block goes at the earliest boundary reaching the minimum
    row = layers[-1][-1]
    mixed = min(row)
    i = row.index(mixed)

    # Walk the chain down from the last dummy. Dummy t-1 stays in the
    # block of dummy t while V_g[t-1][i] + c_t(i) == V_g[t][i] (the
    # smallest split); otherwise the block from t is inserted at i and the
    # one before ends at the earliest boundary reaching the prefix minimum.
    # Blocks are found last to first at nonincreasing boundaries, so index
    # i of `merged` lies just after the first i real nodes, ahead of every
    # block inserted so far.
    g, end, value = k, len(dummies), mixed
    for t in range(len(dummies) - 1, 0, -1):
        value -= columns[t][i]
        if value != layers[g - 1][t - 1][i]:
            merged[i:i] = dummies[t:end]
            g, end = g - 1, t
            i = layers[g - 1][t - 1].index(value)
    merged[i:i] = dummies[:end]
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
