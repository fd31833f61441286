"""Lifting a base ordering of the real nodes to gap-constrained solutions.

Dummy nodes always appear in the canonical order of
`BipartiteInstance.dummy_chain` (sorted by their neighbor's bottom
position), under which no two dummy edges cross. The side-gap merge
splits that order into a left and a right block around the real nodes;
the k-gap merge partitions it into at most k blocks of consecutive chain
dummies, each placed at one real boundary.

The k-gap merge rests on one fact. Let c_t(i) be the cost of chain dummy
t at real boundary i (`block_cost_columns`). Then c_t(i+1) - c_t(i) is
the number of edges of the i-th real node right of the dummy's neighbor
position q_t minus the number left of it. Along the chain q_t only
grows, so this difference only falls: for t < t' and i < i',
c_t'(i') - c_t'(i) <= c_t(i') - c_t(i). Edge-less dummies (q < 0) have
zero columns and sit first in the chain; they break the inequality only
formally, and both consequences below hold with them. Let at(s, t) be
the earliest boundary that minimizes the summed columns of the block of
chain dummies s..t. Then:

- at(s, t-1) <= at(s, t) <= at(s+1, t) (the quadrangle-inequality bounds
  of Knuth 1971 and Yao 1980), so scanning each block only between its
  neighbours' boundaries builds the table of every block's cost and
  boundary in O(d·(r + d)) steps for d dummies and r real nodes, whatever
  k is (`block_table`);
- consecutive blocks at their own earliest best boundaries are already in
  order, so the merge is a partition of the chain into at most k blocks
  priced by that table alone, a DP over the blocks' starts in O(k·d²).

Ties put each block at its earliest best boundary and take the smallest
split, which keeps the edge-less dummies in the first block. The
backtrack inserts each block into the real order at its boundary as it
finds it, last block first.
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


def blocks_ending(
    sums: list[list[int]], columns: list[list[int]], t: int, lower: list[int]
) -> tuple[list[int], list[int]]:
    """Cost and earliest best boundary of each block s..t of chain
    dummies, as two lists indexed by s = 0..t. `columns` are the
    `block_cost_columns` and `sums` their running sums from a zero row, so
    the block at boundary i costs sums[t + 1][i] - sums[s][i]; block t..t
    is its own column. lower[s] must not exceed the earliest best
    boundary of s..t, which does not exceed that of s + 1..t (module
    docstring), so the blocks are scanned from s = t down, each only
    between those two."""
    column = columns[t]
    best = min(column)
    hi = column.index(best)
    costs, at = [best], [hi]
    row = sums[t + 1]
    for s in range(t - 1, -1, -1):
        start = sums[s]
        i = lower[s]
        best = row[i] - start[i]
        for j in range(i + 1, hi + 1):
            value = row[j] - start[j]
            if value < best:
                best, i = value, j
        costs.append(best)
        at.append(i)
        hi = i
    costs.reverse()
    at.reverse()
    return costs, at


def block_table(
    sums: list[list[int]], columns: list[list[int]]
) -> list[tuple[list[int], list[int]]]:
    """`blocks_ending` for every end t of the chain. Each block s..t is
    scanned from the earliest best boundary of s..t-1 on, so the windows
    of one diagonal t - s of the table tile the boundaries: O(d·(r + d))
    steps for d dummies and r real nodes."""
    table: list[tuple[list[int], list[int]]] = []
    lower: list[int] = []
    for t in range(len(columns)):
        table.append(blocks_ending(sums, columns, t, lower))
        lower = table[-1][1]
    return table


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

    The merge partitions the chain into at most k blocks, each at its
    earliest best boundary (module docstring): F_g[t], the least cost of
    dummies 0..t in at most g blocks, is the minimum over s of
    F_{g-1}[s-1] + cost(s, t), with F_{g-1}[-1] = 0, keeping the smallest
    s on ties. That takes O(d·(r + d) + k·d²) for r real and d dummy
    nodes. At two gaps the DP reads only the prefix blocks 0..t and the
    blocks s..d-1 that end the chain, and no table is built; at one gap
    the cost is the minimum of the `boundary_totals`, and no column is
    built."""
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
    # sums[t]: the first t columns added up
    sums = [[0] * (len(merged) + 1), columns[0]]
    for column in columns[1:]:
        sums.append(list(map(add, sums[-1], column)))
    d = len(dummies)
    # ends[t]: costs and boundaries of the blocks s..t that the DP reads;
    # first[t]: the cost of block 0..t
    if k == 2:
        # the prefix blocks, each best at the first minimum of its row, and
        # those that end the chain, none best before the whole chain
        first = [min(row) for row in sums[1:]]
        ends = {d - 1: blocks_ending(sums, columns, d - 1, [sums[d].index(first[-1])] * d)}
    else:
        ends = block_table(sums, columns)
        first = [costs[0] for costs, _ in ends]

    # Layers 2..k-1 keep F_g[t] for the ends t that the layer above reads,
    # with the start s of each one's last block; the top layer keeps only
    # F_k[d-1].
    best = first
    splits = []
    for g in range(2, k):
        below = best
        best, split = [], []
        for t in range(d - k + g):
            costs = ends[t][0]
            value, s = costs[0], 0
            for j in range(1, t + 1):
                total = below[j - 1] + costs[j]
                if total < value:
                    value, s = total, j
            best.append(value)
            split.append(s)
        splits.append(split)
    costs = ends[d - 1][0]
    mixed, s = costs[0], 0
    for j in range(1, d):
        total = best[j - 1] + costs[j]
        if total < mixed:
            mixed, s = total, j

    # Blocks are found last to first at nonincreasing boundaries, so index
    # i of `merged` lies just after the first i real nodes, ahead of every
    # block inserted so far.
    t = d - 1
    while s:
        i = ends[t][1][s]
        merged[i:i] = dummies[s : t + 1]
        t = s - 1
        s = splits.pop()[t] if splits else 0
    i = sums[t + 1].index(first[t])
    merged[i:i] = dummies[: t + 1]
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
