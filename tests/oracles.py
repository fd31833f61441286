"""Independent brute-force oracles used to derive expected test values.

Everything here recomputes results from first principles (definition-level
double loops, explicit enumeration) and must stay independent of the
library code paths it checks.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from time import perf_counter
from typing import Literal

from oscm_gaps.core import BipartiteInstance, InputError, Permutation
from oscm_gaps.exact import _MEMO_CAP, OrderingModel, SolveResult, _Timeout, objective_value


def naive_crossings(inst: BipartiteInstance, pi2: Permutation) -> int:
    """Crossing definition applied to every edge pair."""
    pos1 = inst.pi1.position
    pos2 = pi2.position
    edges = sorted(inst.edges)
    total = 0
    for (b1, t1), (b2, t2) in combinations(edges, 2):
        if (pos1[b1] < pos1[b2] and pos2[t1] > pos2[t2]) or (
            pos1[b1] > pos1[b2] and pos2[t1] < pos2[t2]
        ):
            total += 1
    return total


def naive_pair_crossings(inst: BipartiteInstance, u: int, v: int) -> int:
    """Neighbor-pair double loop: crossings with u placed before v."""
    pos1 = inst.pi1.position
    nu = [b for b, t in inst.edges if t == u]
    nv = [b for b, t in inst.edges if t == v]
    return sum(1 for a in nu for b in nv if pos1[b] < pos1[a])


def naive_block_crossings(inst, block_a, block_b) -> int:
    """Edge-pair enumeration with block_a placed wholly before block_b."""
    rest = [t for t in inst.top_ids if t not in set(block_a) | set(block_b)]
    pi2 = Permutation(tuple(block_a) + tuple(block_b) + tuple(rest))
    pos1 = inst.pi1.position
    pos2 = pi2.position
    in_a, in_b = set(block_a), set(block_b)
    total = 0
    for b1, t1 in inst.edges:
        if t1 not in in_a:
            continue
        for b2, t2 in inst.edges:
            if t2 not in in_b:
                continue
            if (pos1[b1] < pos1[b2] and pos2[t1] > pos2[t2]) or (
                pos1[b1] > pos1[b2] and pos2[t1] < pos2[t2]
            ):
                total += 1
    return total


def naive_mixed_crossings(inst: BipartiteInstance, pi2: Permutation) -> int:
    """Crossing pairs with one real-incident and one dummy-incident edge."""
    pos1 = inst.pi1.position
    pos2 = pi2.position
    kind = inst.top_kind
    edges = sorted(inst.edges)
    total = 0
    for (b1, t1), (b2, t2) in combinations(edges, 2):
        if (kind[t1] == "dummy") == (kind[t2] == "dummy"):
            continue
        if (pos1[b1] < pos1[b2] and pos2[t1] > pos2[t2]) or (
            pos1[b1] > pos1[b2] and pos2[t1] < pos2[t2]
        ):
            total += 1
    return total


def evaluate_exported_ilp(
    text: str, inst: BipartiteInstance, pi2: Permutation
) -> tuple[int, dict[str, int], list[str]]:
    """Read an exported ILP and evaluate it at the 0/1 assignment the top
    order `pi2` induces, derived from the documented variable names alone:
    `x_u_v` is 1 when u precedes v, and `g_a_b` is 1 when a real node sits
    between the chain neighbours a and b. Returns the objective, the
    assignment and the violated constraints."""
    payload = json.loads(text)
    pos = pi2.position
    reals = [pos[v] for v in inst.real_top_ids]
    assignment: dict[str, int] = {}
    for var in payload["vars"]:
        name = var["name"]
        family, a, b = name.split("_")
        lo, hi = pos[int(a)], pos[int(b)]
        if family == "x":
            assignment[name] = int(lo < hi)
        else:
            assert family == "g", name
            assignment[name] = int(any(lo < r < hi for r in reals))
    objective = sum(t["coef"] * assignment[t["var"]] for t in payload["objective"])
    violated = []
    for c in payload["constraints"]:
        lhs = sum(t["coef"] * assignment[t["var"]] for t in c["terms"])
        assert c["op"] in ("<=", "="), c
        if not (lhs <= c["rhs"] if c["op"] == "<=" else lhs == c["rhs"]):
            violated.append(f"{c['terms']} {c['op']} {c['rhs']} (lhs={lhs})")
    return objective, assignment, violated


def solve_exported_ilp(text: str) -> tuple[int, tuple[int, ...]]:
    """Solve an exported ILP with scipy's MILP solver (HiGHS), reading the
    documented JSON schema alone: every variable 0/1, the objective
    minimized under every constraint, optimality proven with no gap.
    Returns the optimum and the top order the `x_u_v` values encode
    (u's position is the number of v with `x_v_u` = 1)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    payload = json.loads(text)
    column = {var["name"]: j for j, var in enumerate(payload["vars"])}
    cost = np.zeros(len(column))
    for term in payload["objective"]:
        cost[column[term["var"]]] += term["coef"]
    rows, cols, coefs, lower, upper = [], [], [], [], []
    for i, c in enumerate(payload["constraints"]):
        assert c["op"] in ("<=", "="), c
        for term in c["terms"]:
            rows.append(i)
            cols.append(column[term["var"]])
            coefs.append(term["coef"])
        lower.append(c["rhs"] if c["op"] == "=" else -np.inf)
        upper.append(c["rhs"])
    matrix = coo_array((coefs, (rows, cols)), shape=(len(upper), len(column))).tocsr()
    result = milp(
        cost,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(len(column)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert result.status == 0, result.message
    values = {name: round(result.x[j]) for name, j in column.items()}
    ids = {int(v) for name in column if name.startswith("x_") for v in name.split("_")[1:]}
    order = sorted(ids, key=lambda v: sum(values[f"x_{u}_{v}"] for u in ids if u != v))
    return round(result.fun), tuple(order)


def solve_sidegap_ilp(inst: BipartiteInstance, text: str) -> tuple[int, tuple[int, ...]]:
    """Solve the exported plain-OSCM ILP `text` over all top nodes with
    side gaps imposed by one row per top dummy d and ordered pair of
    distinct real top nodes (r, r'): x_r_d + x_d_r' <= 1, so no dummy
    lies strictly between two real nodes. Returns what
    `solve_exported_ilp` returns."""
    payload = json.loads(text)
    payload["constraints"] += [
        {"terms": [{"var": f"x_{r}_{d}", "coef": 1}, {"var": f"x_{d}_{s}", "coef": 1}], "op": "<=", "rhs": 1}
        for d in inst.dummy_top_ids
        for r in inst.real_top_ids
        for s in inst.real_top_ids
        if r != s
    ]
    return solve_exported_ilp(json.dumps(payload))


def gap_runs(inst: BipartiteInstance, order: tuple[int, ...]) -> list[tuple[int, int]]:
    kind = inst.top_kind
    runs = []
    start = None
    for i, v in enumerate(order):
        if kind[v] == "dummy":
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(order) - 1))
    return runs


def is_side_gap_order(inst: BipartiteInstance, order: tuple[int, ...]) -> bool:
    last = len(order) - 1
    return all(s == 0 or e == last for s, e in gap_runs(inst, order))


def best_by_enumeration(inst: BipartiteInstance, predicate=None) -> tuple[tuple[int, ...], int]:
    """Minimum-crossing permutation via itertools enumeration, optionally
    filtered; ties resolve to the lexicographically smallest order."""
    best_order = None
    best_value = None
    for order in permutations(sorted(inst.top_ids)):
        if predicate is not None and not predicate(order):
            continue
        value = naive_crossings(inst, Permutation(order))
        if best_value is None or value < best_value:
            best_order, best_value = order, value
    return best_order, best_value


def best_sidegap_split(inst: BipartiteInstance, real_order: Permutation, dummy_order: tuple[int, ...]) -> int:
    """Minimum crossings over every left-prefix split of the dummy order."""
    best = None
    for cut in range(len(dummy_order) + 1):
        order = dummy_order[:cut] + real_order.order + dummy_order[cut:]
        value = naive_crossings(inst, Permutation(order))
        if best is None or value < best:
            best = value
    return best


def all_bounded_gap_merges(real_order: tuple[int, ...], dummy_order: tuple[int, ...], is_dummy, k: int):
    """Yield every interleaving of the two orders with at most k dummy runs."""
    n_real, n_dummy = len(real_order), len(dummy_order)

    def rec(prefix, i, j, gaps, last_dummy):
        if i == n_real and j == n_dummy:
            yield tuple(prefix)
            return
        if i < n_real:
            prefix.append(real_order[i])
            yield from rec(prefix, i + 1, j, gaps, False)
            prefix.pop()
        if j < n_dummy:
            new_gaps = gaps if last_dummy else gaps + 1
            if new_gaps <= k:
                prefix.append(dummy_order[j])
                yield from rec(prefix, i, j + 1, new_gaps, True)
                prefix.pop()

    yield from rec([], 0, 0, 0, False)


def best_bounded_gap_merge(inst: BipartiteInstance, real_order: Permutation, dummy_order: tuple[int, ...], k: int):
    """(min mixed crossings, min total crossings) over all merges of the
    two given orders using at most k gaps."""
    kind = inst.top_kind
    best_mixed = None
    best_total = None
    for order in all_bounded_gap_merges(
        real_order.order, dummy_order, lambda v: kind[v] == "dummy", k
    ):
        pi2 = Permutation(order)
        mixed = naive_mixed_crossings(inst, pi2)
        total = naive_crossings(inst, pi2)
        if best_mixed is None or mixed < best_mixed:
            best_mixed = mixed
        if best_total is None or total < best_total:
            best_total = total
    return best_mixed, best_total


def reference_heuristic_order(inst: BipartiteInstance, subset, kind: str) -> Permutation:
    """The heuristic order with exact-rational keys: the left median or the
    `Fraction` mean of a node's neighbor positions (-1 at degree 0), then
    0 for odd and 1 for even degree, then the id."""

    def key(v):
        positions = inst.neighbor_positions[v]
        deg = len(positions)
        if deg == 0:
            value = -1
        elif kind == "median":
            value = positions[(deg - 1) // 2]
        else:
            value = Fraction(sum(positions), deg)
        return value, 0 if deg % 2 else 1, v

    return Permutation(tuple(sorted(subset, key=key)))


def reference_dummy_chain(inst: BipartiteInstance) -> list[tuple[int, int]]:
    """The canonical dummy chain from the edge list: (bottom position of
    the neighbor, id) per top dummy, -1 for an edge-less one, sorted."""
    kind = {v.id: v.kind for v in inst.top}
    neighbor = {v.id: None for v in inst.top if v.kind == "dummy"}
    neighbor.update((t, b) for b, t in inst.edges if kind[t] == "dummy")
    order = list(inst.pi1.order)
    return sorted((-1 if b is None else order.index(b), d) for d, b in neighbor.items())


def reference_dummy_order(inst: BipartiteInstance) -> tuple[int, ...]:
    """The ids of `reference_dummy_chain`, in chain order."""
    return tuple(d for _, d in reference_dummy_chain(inst))


def reference_k_gap_merge(inst: BipartiteInstance, real_order: Permutation, k: int):
    """The O(k·r·d²) k-gap merge DP over (gaps, real prefix, dummy prefix)
    with its tagged backtrack, kept as the reference for the library's
    merge, which partitions the dummy chain into blocks priced by one
    table of every block's best boundary (r real, d dummy nodes). Same
    tie rule: advancing to boundary i-1 wins ties, else the smallest
    split j' reaching the minimum. Returns (permutation, mixed)."""
    chain = reference_dummy_chain(inst)
    dummies = [d for _, d in chain]
    reals = real_order.order
    if not dummies:
        return Permutation(reals), 0
    n_real, n_dummy = len(reals), len(dummies)
    q = [qt for qt, _ in chain]

    # s[i][j]: summed crossings of the first j dummies at real boundary i
    neigh = inst.neighbor_positions
    greater = [[0 if qt < 0 else sum(1 for p in neigh[r] if p > qt) for qt in q] for r in reals]
    less = [[0 if qt < 0 else sum(1 for p in neigh[r] if p < qt) for qt in q] for r in reals]
    s = []
    for i in range(n_real + 1):
        costs = [
            sum(greater[x][t] for x in range(i)) + sum(less[x][t] for x in range(i, n_real))
            for t in range(n_dummy)
        ]
        s.append([0, *accumulate(costs)])

    advance = -1
    k = min(k, n_dummy)
    inf = inst.m * inst.m + 1
    dp = [[[inf] * (n_dummy + 1) for _ in range(n_real + 1)] for _ in range(k + 1)]
    choice = [[[None] * (n_dummy + 1) for _ in range(n_real + 1)] for _ in range(k + 1)]
    for i in range(n_real + 1):
        dp[0][i][0] = 0
    for g in range(1, k + 1):
        for i in range(n_real + 1):
            for j in range(n_dummy + 1):
                best, tag = inf, None
                if i and dp[g][i - 1][j] < best:
                    best, tag = dp[g][i - 1][j], advance
                for jp in range(j + 1):
                    prev = dp[g - 1][i][jp]
                    if prev >= inf:
                        continue
                    val = prev + s[i][j] - s[i][jp]
                    if val < best:
                        best, tag = val, jp
                dp[g][i][j], choice[g][i][j] = best, tag

    g, i, j = k, n_real, n_dummy
    boundary = [0] * n_dummy
    while g > 0:
        tag = choice[g][i][j]
        if tag == advance:
            i -= 1
        else:
            for t in range(tag, j):
                boundary[t] = i
            j, g = tag, g - 1
    assert j == 0, "reference backtrack failed to place every dummy"
    merged = []
    for b in range(n_real + 1):
        merged.extend(dummies[t] for t in range(n_dummy) if boundary[t] == b)
        if b < n_real:
            merged.append(reals[b])
    return Permutation(tuple(merged)), dp[k][n_real][n_dummy]


def reference_block_cost_tables(inst: BipartiteInstance, real_order: Permutation) -> list[list[int]]:
    """Prefix-summed placement costs, one row per real boundary: rows[i][j]
    sums the costs of the first j dummies of the chain at boundary i. For
    each real node r in turn, every dummy's cost at the next boundary adds
    r's edges strictly right of the dummy's neighbor and drops those
    strictly left, found by two bisections per (real node, dummy) pair.
    The differences of its rows are the reference for the library's
    `gap_placement.block_cost_columns`."""
    neigh = inst.neighbor_positions
    q = [qt for qt, _ in inst.dummy_chain]
    left = inst.real_edges_before
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


def reference_block_cost_columns(inst: BipartiteInstance, real_order: Permutation) -> list[list[int]]:
    """`reference_block_cost_tables` as one column per dummy: column t at
    boundary i is rows[i][t + 1] - rows[i][t]."""
    rows = reference_block_cost_tables(inst, real_order)
    return [[row[t + 1] - row[t] for row in rows] for t in range(len(rows[0]) - 1)]


def reference_contraction(model: OrderingModel, segments: list[tuple[int, ...]]):
    """The k-gap model contracted for one cut set, entry by entry: its real
    nodes, then one node per segment (a tuple of chain indices), each entry
    the sum of its members' pair costs; and the contracted model's sum of
    min(c_uv, c_vu) over all pairs."""
    on_chain = set(model.chain)
    groups = [(i,) for i in range(len(model.ids)) if i not in on_chain] + segments
    cost = tuple(tuple(sum(model.cost[i][j] for i in g for j in h) for h in groups) for g in groups)
    p = len(groups)
    root_bound = sum(min(cost[i][j], cost[j][i]) for i in range(p) for j in range(i + 1, p))
    return cost, root_bound


def reference_branch_and_bound(
    model: OrderingModel,
    time_budget_s: float = 300.0,
    initial: Permutation | None = None,
) -> SolveResult:
    """The branch and bound as it was before child bounds were tested in
    the parent: each child updates the forced costs, the summed forced
    cost and the remaining pair minima of every unplaced node before its
    own bound test, and undoes them after. Kept as the reference for the
    library's search, which must give the same status, permutation,
    objective and node count."""
    start = perf_counter()
    p = len(model.ids)
    if p == 0:
        return SolveResult("optimal", Permutation(()), 0, perf_counter() - start, 0)

    cost = [list(row) for row in model.cost]
    index = {v: i for i, v in enumerate(model.ids)}
    chain = model.chain
    n_chain = len(chain)
    in_chain = [False] * p
    for u in chain:
        in_chain[u] = True

    gap_tracked = model.gap_budget is not None
    kmax = (model.gap_budget + 1) if gap_tracked else 0

    def feasible(perm: Permutation) -> bool:
        pos = perm.position
        ids = model.ids
        for i, j in model.fixed_pairs:
            if pos[ids[i]] >= pos[ids[j]]:
                return False
        if gap_tracked and chain:
            runs = 0
            last = False
            for v in perm.order:
                d = in_chain[index[v]]
                if d and not last:
                    runs += 1
                last = d
            if runs > kmax:
                return False
        return True

    best_obj: int | None = None
    best_order: list[int] | None = None
    if initial is not None:
        if set(initial.order) != set(model.ids):
            raise InputError("initial incumbent does not cover the model's nodes")
        if not feasible(initial):
            raise InputError("initial incumbent violates the model's constraints")
        best_order = [index[v] for v in initial.order]
        best_obj = objective_value(model, initial)

    if time_budget_s <= 0:
        perm = Permutation(tuple(model.ids[u] for u in best_order)) if best_order else None
        return SolveResult("timeout_incumbent", perm, best_obj, perf_counter() - start, 0)

    minp = [[min(cost[i][j], cost[j][i]) for j in range(p)] for i in range(p)]
    # children in the incumbent's order, or in id order without one
    static_order = best_order.copy() if best_order is not None else list(range(p))

    placed = [False] * p
    prefix: list[int] = []
    add = [0] * p  # forced cost of each unplaced node against the prefix
    sum_add = 0
    rem_min = sum(minp[i][j] for i in range(p) for j in range(i + 1, p))
    memo: dict[tuple[int, int, bool], int] = {}
    nodes = 0
    deadline = start + time_budget_s

    def dfs(acc: int, gaps: int, last_dummy: bool, chain_placed: int, mask: int) -> None:
        nonlocal best_obj, best_order, sum_add, rem_min, nodes
        nodes += 1
        if nodes & 1023 == 0 and perf_counter() > deadline:
            raise _Timeout
        depth = len(prefix)
        if depth == p:
            if best_obj is None or acc < best_obj:
                best_obj = acc
                best_order = prefix.copy()
            return
        if best_obj is not None and acc + sum_add + rem_min >= best_obj:
            return
        key = (mask, gaps, last_dummy)
        prev = memo.get(key)
        if prev is not None and prev <= acc:
            return
        if prev is not None or len(memo) < _MEMO_CAP:
            memo[key] = acc

        next_chain = chain[chain_placed] if chain_placed < n_chain else -1
        for u in static_order:
            if placed[u]:
                continue
            u_chain = in_chain[u]
            if u_chain and u != next_chain:
                continue
            if gap_tracked:
                if u_chain:
                    g2 = gaps if last_dummy else gaps + 1
                    if g2 > kmax:
                        continue
                    ld2 = True
                else:
                    if chain_placed < n_chain and gaps >= kmax:
                        continue  # a later dummy would need one gap too many
                    g2, ld2 = gaps, False
            else:
                g2, ld2 = 0, False

            prefix.append(u)
            placed[u] = True
            acc2 = acc + add[u]
            saved_sum, saved_rem = sum_add, rem_min
            sum_add -= add[u]
            cu = cost[u]
            mu = minp[u]
            for v in range(p):
                if not placed[v]:
                    add[v] += cu[v]
                    sum_add += cu[v]
                    rem_min -= mu[v]
            dfs(acc2, g2, ld2, chain_placed + (1 if u_chain else 0), mask | (1 << u))
            for v in range(p):
                if not placed[v]:
                    add[v] -= cu[v]
            sum_add, rem_min = saved_sum, saved_rem
            placed[u] = False
            prefix.pop()

    status: Literal["optimal", "timeout_incumbent"]
    try:
        dfs(0, 0, False, 0, 0)
        status = "optimal"
    except _Timeout:
        status = "timeout_incumbent"

    perm = None
    if best_order is not None:
        perm = Permutation(tuple(model.ids[u] for u in best_order))
    return SolveResult(status, perm, best_obj, perf_counter() - start, nodes)
