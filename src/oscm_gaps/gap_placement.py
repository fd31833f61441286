"""Lifting a base ordering of the real nodes to gap-constrained solutions.

Dummy nodes always appear in the canonical order of
`BipartiteInstance.dummy_chain` (sorted by their neighbor's bottom
position), under which no two dummy edges cross. The side-gap merge
splits that order into a left and a right block around the real nodes;
the k-gap merge places it into at most k blocks by a dynamic program over
(gaps used, real prefix, dummy prefix).

With s_i[j] the summed cost of the first j dummies at real boundary i,
the block term min_{j'<=j}(dp[g-1][i][j'] + s_i[j] - s_i[j']) is a
running prefix minimum of dp[g-1][i] - s_i, so the merge takes
O(k·r·d) time for r real and d dummy nodes. The rows s_i come from one
running sum per dummy, swept up the chain over the real edges: O(E + b)
Python steps for E real edges and b bottom positions, plus d C-level
passes of length r. The DP builds layers
1..k-1 in full; the top layer is read only at j = d, so it is one
column, and at k = 1 that column comes from the boundary totals s_i[d]
without any cost row. The backtrack re-derives each step from the dp
rows with a fixed tie rule: advancing to boundary i-1 wins ties, else
the smallest split j' reaching the minimum. It inserts each dummy block
into the real order at its boundary as it finds it, last block first.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import sub

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


def block_cost_tables(inst: BipartiteInstance, real_order: Permutation) -> list[list[int]]:
    """Prefix-summed placement costs for dummy blocks, one row per real
    boundary: rows[i][j] sums, over the first j dummies of the canonical
    chain, the cost of sitting after the first i real nodes and before
    the rest; the cost of block (j'+1..j) at real boundary i is
    rows[i][j] - rows[i][j']. With no dummy it is r + 1 rows of [0].

    A dummy with neighbor position q at boundary 0 crosses every
    real-incident edge left of q. Moving the i-th real node from after
    the dummy to before it adds w[i], its edges right of q minus those
    left of q, so the dummy's column over the boundaries is a running
    sum of w. Walking the chain upward, q only grows, and w starts at
    the degrees (q = -1) and loses 1 per edge when q reaches the edge's
    position and 1 more when q passes it. That is O(E + b) Python steps
    for E real edges and b bottom positions, plus d C-level passes of
    length r for the columns and r + 1 of length d for the rows.
    Edge-less dummies (q < 0) cross nothing anywhere."""
    neigh = inst.neighbor_positions
    left = inst.real_edges_before
    reals = real_order.order
    w = [len(neigh[r]) for r in reals]
    at: list[list[int]] = [[] for _ in left]  # per position, ranks of its real neighbors
    for i, r in enumerate(reals):
        for p in neigh[r]:
            at[p].append(i)

    columns = []
    zero = [0] * (len(reals) + 1)
    column = zero
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
    if not columns:
        return [[0] for _ in zero]
    return [list(accumulate(row, initial=0)) for row in zip(*columns)]


def _rowwise_min(above: list[int], row: list[int]) -> list[int]:
    return [a if a < b else b for a, b in zip(above, row)]


def merge_dp(costs: list[list[int]], k: int) -> list[list[list[int]]]:
    """Merge DP over the `block_cost_tables` rows `costs`, one layer per
    gap budget g = 1..k (layer g at index g - 1), each built in full:
    dp[g][i][j] is the minimum mixed crossing count when the first j
    dummies sit in at most g gaps at real boundaries <= i. At k = 0 it
    returns no layer.

    dp[g][i] = min(dp[g][i-1], prefmin_j(dp[g-1][i] - s_i) + s_i),
    elementwise, with s_i = costs[i]: O(k·r·d) for r real and d dummy
    nodes. With no gap only j = 0 is reachable, so the one-gap block
    term is s_i itself.
    """
    if k < 1:
        return []
    dp = [list(accumulate(costs, _rowwise_min))]
    for _ in range(1, k):
        prev_layer = dp[-1]
        # the split j' = j keeps every block term <= dp[g-1][i], so taking
        # the minimum with dp[g-1][0] leaves row 0 exact
        above = prev_layer[0]
        layer = []
        for prev_i, s_i in zip(prev_layer, costs):
            # the C-level form, accumulate(map(sub, prev_i, s_i), min) and two
            # maps, measured 2.5-4x slower than this loop
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


def boundary_totals(inst: BipartiteInstance, real_order: Permutation) -> list[int]:
    """Entry i is the mixed cost of all dummies in one block after the
    first i real nodes: the last column of `block_cost_tables`, from the
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

    Only the last block's boundary reads the top layer, at column j = d,
    so that layer is one column: min(dp[k-1][i] - s_i) + s_i[d] per
    boundary i. At one gap its terms are the `boundary_totals`, and no
    cost row is built. The backtrack inserts each dummy block into a copy
    of the real order at its boundary as it finds it."""
    k = as_k(k)
    _check_real_order(inst, real_order)
    dummies = [d for _, d in inst.dummy_chain]
    # more gaps than dummies never help; with no dummy, one gap holds the
    # empty block
    k = max(1, min(k, len(dummies)))
    if k > 1:
        costs = block_cost_tables(inst, real_order)
        dp = merge_dp(costs, k - 1)
        column = [min(map(sub, p, s)) + s[-1] for p, s in zip(dp[-1], costs)]
    else:
        column = boundary_totals(inst, real_order)
    # the top layer is the running minimum of `column`; its walk down the
    # ties stops at the earliest boundary that reaches the minimum
    mixed = min(column)
    i = column.index(mixed)
    g, j = k - 1, 0
    if g:  # the last block starts at the smallest split reaching the minimum
        s_i = costs[i]
        j = list(map(sub, dp[-1][i], s_i)).index(mixed - s_i[-1])
    merged = list(real_order.order)
    merged[i:i] = dummies[j:]

    # Re-derive each step from the dp rows: advancing to boundary i-1 wins
    # ties, else the smallest split j' that reaches the minimum. Blocks are
    # found last to first at nonincreasing boundaries, so index i of
    # `merged` lies just after the first i real nodes, ahead of every
    # block inserted so far.
    while j:
        layer = dp[g - 1]
        value = layer[i][j]
        if i and layer[i - 1][j] == value:
            i -= 1
            continue
        s_i = costs[i]
        split = list(map(sub, dp[g - 2][i], s_i)).index(value - s_i[j]) if g > 1 else 0
        merged[i:i] = dummies[split:j]
        g, j = g - 1, split
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
