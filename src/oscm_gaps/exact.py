"""Exact solvers: the ordering model, a branch-and-bound optimizer over
permutation prefixes, and the oracle `enumerate_optima`, which checks
them by definition (at most 9 top nodes; `oscm-gaps oracle` runs it)
and shares no search code with them.

The model uses 0/1 ordering variables x_ij (v_i before v_j) with
antisymmetry and transitivity, plus gap variables g_ij for consecutive
dummies that count real interruptions of the canonical dummy order.
Branch-and-bound searches permutation space directly, so transitivity
holds implicitly in every explored state. It is plain OSCM: a k-gap
optimum is the best optimum over the cut sets of the canonical d-dummy
chain into min(k, d) segments, each searched as one node, and the
unrestricted optimum is the k-gap one at k = max(1, d). The real nodes'
optimum, searched first, gives every k-gap solve an incumbent and, with
one floor per segment, each cut set's root bound. Every search starts
from the greedy switch of its incumbent.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations, groupby, pairwise, permutations
from math import inf
from operator import add, getitem, sub
from time import perf_counter
from typing import Literal

from .core import (
    BipartiteInstance,
    InputError,
    Permutation,
    as_k,
    count_crossings,
    pairwise_crossings,
)
from .gap_placement import k_gap_merge, side_gap_merge, solve_kgaps
from .heuristics import heuristic_order

ORACLE_NODE_LIMIT = 9
DEFAULT_TIME_BUDGET_S = 300.0


@dataclass(frozen=True)
class OrderingModel:
    """Linear ordering model over the top nodes of one instance.

    `cost[i][j]` is the crossing count with node i before node j, `chain`
    lists the canonical dummy order as node indices (every dummy in a
    k-gap model, so the real nodes are the indices off the chain; empty in
    the base model), and `gap_budget` (k-1) bounds the number of
    consecutive chain pairs a real node may separate.
    """

    ids: tuple[int, ...]
    cost: tuple[tuple[int, ...], ...]
    chain: tuple[int, ...]
    gap_budget: int | None

    @property
    def fixed_pairs(self) -> tuple[tuple[int, int], ...]:
        """Consecutive chain pairs, whose order is forced."""
        return tuple(zip(self.chain, self.chain[1:]))


def build_base_oscm_model(inst: BipartiteInstance, ids: tuple[int, ...]) -> OrderingModel:
    """Plain crossing-minimization model over the top nodes `ids`:
    ordering variables and antisymmetry/transitivity only, no dummy or gap
    machinery."""
    return OrderingModel(ids, pairwise_crossings(inst, ids), (), None)


def build_kgap_model(inst: BipartiteInstance, k: int) -> OrderingModel:
    """Model with the instance's `dummy_chain` fixed and at most k gaps;
    k is read by `as_k`."""
    k = as_k(k)
    ids = inst.top_ids
    index = {v: i for i, v in enumerate(ids)}
    chain = tuple(index[d] for _, d in inst.dummy_chain)
    return OrderingModel(ids, pairwise_crossings(inst, ids), chain, k - 1)


def export_model(model: OrderingModel) -> str:
    """Serialize to the documented JSON interchange schema, materializing
    every constraint, including the transitivity family that the solver
    otherwise keeps implicit. `x_u_v` is 1 when u precedes v; `g_a_b` is 1
    when a real node sits between the consecutive chain dummies a and b.

    The text is `json.dumps(payload, indent=1)` plus a newline, written
    from templates: with an indent, `json` takes its pure-Python encoder,
    several times slower at paper scale. Names and ops hold no character
    that JSON escapes."""
    p = len(model.ids)

    def x(i: int, j: int) -> str:
        return f"x_{model.ids[i]}_{model.ids[j]}"

    pairs = [(i, j) for i in range(p) for j in range(p) if i != j]
    g_names = [f"g_{model.ids[i]}_{model.ids[j]}" for i, j in model.fixed_pairs]
    on_chain = set(model.chain)
    reals = [l for l in range(p) if l not in on_chain]

    # (terms, op, rhs) per constraint
    cons = [([(x(i, j), 1), (x(j, i), 1)], "=", 1) for i in range(p) for j in range(i + 1, p)]
    cons += [
        ([(x(i, j), 1), (x(j, l), 1), (x(i, l), -1)], "<=", 1)
        for i, j in pairs
        for l in range(p)
        if l != i and l != j
    ]
    cons += [([(x(i, j), 1)], "=", 1) for i, j in model.fixed_pairs]
    cons += [
        ([(x(i, l), 1), (x(l, j), 1), (g, -1)], "<=", 1)
        for (i, j), g in zip(model.fixed_pairs, g_names)
        for l in reals
    ]
    if g_names and model.gap_budget is not None:
        cons.append(([(g, 1) for g in g_names], "<=", model.gap_budget))

    def listed(items: list[str], pad: str) -> str:
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"

    var = '  {{\n   "name": "{}"\n  }}'.format
    coef = '  {{\n   "var": "{}",\n   "coef": {}\n  }}'.format
    term = '    {{\n     "var": "{}",\n     "coef": {}\n    }}'.format
    row = '  {{\n   "terms": {},\n   "op": "{}",\n   "rhs": {}\n  }}'.format
    return (
        '{\n "vars": '
        + listed([var(name) for name in [x(i, j) for i, j in pairs] + g_names], " ")
        + ',\n "objective": '
        + listed([coef(x(i, j), model.cost[i][j]) for i, j in pairs], " ")
        + ',\n "constraints": '
        + listed(
            [row(listed([term(*t) for t in terms], "   "), op, rhs) for terms, op, rhs in cons],
            " ",
        )
        + "\n}\n"
    )


def objective_value(model: OrderingModel, permutation: Permutation) -> int:
    index = {v: i for i, v in enumerate(model.ids)}
    cost = model.cost
    return sum(cost[u][v] for u, v in combinations([index[v] for v in permutation.order], 2))


# -- branch and bound --------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one exact solve. Every search starts from a feasible
    incumbent, so a solve always carries a permutation and its objective:
    a proven optimum (`optimal`) or, when the time budget ran out, the
    best order found so far (`timeout_incumbent`). For the instance-level
    pipelines `wall_time_s` covers model build, incumbent and search."""

    status: Literal["optimal", "timeout_incumbent"]
    permutation: Permutation
    objective: int
    wall_time_s: float
    nodes_explored: int


class _Timeout(Exception):
    pass


_MEMO_CAP = 1 << 22


def check_time_budget(time_budget_s: float) -> None:
    """Refuse a NaN or negative budget: NaN would switch every deadline
    test off, and a negative one would act as 0. Zero (unsearched) and inf
    (no limit) are valid."""
    if not time_budget_s >= 0:
        raise InputError(f"time budget must be a number of seconds >= 0, got {time_budget_s}")


def solve_branch_and_bound(
    model: OrderingModel, time_budget_s: float, initial: Permutation, *, upper: float = inf
) -> SolveResult:
    """Depth-first search over permutation prefixes, starting from the
    incumbent `initial`, an order of the model's nodes. Every node visits
    its children in `initial`'s order, so the first descent follows the
    incumbent. It prunes against the lower of `initial`'s objective and
    `upper`, so a search given an `upper` at or below the optimum proves
    that no order costs less and returns `initial` with its own objective.

    The bound at a prefix is the cost among placed pairs, plus the forced
    cost of placed-vs-unplaced pairs, plus min(c_uv, c_vu) over unplaced
    pairs. Placing u next adds `extra[u][v] = c_uv - min(c_uv, c_vu)` for
    each unplaced v. Each node keeps that sum per unplaced node in a vector
    `esum`, so a child's bound is tested in its parent in O(1), as the
    parent's bound plus `esum[u]`, before any state is built for it. A memo
    of the best bound per placed set removes dominated revisits: for a
    fixed placed set the bound exceeds the prefix cost by a term of that
    set alone, so a lower bound there is a cheaper prefix of the same set.
    With two nodes unplaced, each child's bound is the cost of its full
    permutation, so the last two levels take it directly and store no memo
    entry: one stored there always led to a leaf that lowered the
    incumbent to it, so it could never prune a child that passes the
    incumbent's test.
    It refuses a chained model: `solve_kgap_exact` reduces the chain away.
    `nodes_explored` counts bound tests, the root's and each leaf's
    included; a budget of 0 returns `initial` unsearched.
    """
    check_time_budget(time_budget_s)
    if model.chain:
        raise InputError("the search takes no dummy chain; use solve_kgap_exact")
    if set(initial.order) != set(model.ids):
        raise InputError("initial incumbent does not cover the model's nodes")
    start = perf_counter()
    p = len(model.ids)
    if p == 0:
        return SolveResult("optimal", initial, 0, perf_counter() - start, 0)

    incumbent = objective_value(model, initial)
    if time_budget_s <= 0:
        return SolveResult("timeout_incumbent", initial, incumbent, perf_counter() - start, 0)

    cost = model.cost
    index = {v: i for i, v in enumerate(model.ids)}

    extra = [[e if e > 0 else 0 for e in map(sub, row, col)] for row, col in zip(cost, zip(*cost))]
    extra_col = list(zip(*extra))
    esum = list(map(sum, extra))
    # each pair has c_uv + c_vu = 2 min(c_uv, c_vu) + extra[u][v] + extra[v][u]
    root_bound = (sum(map(sum, cost)) - sum(map(getitem, cost, range(p))) - sum(esum)) // 2

    best_obj = min(incumbent, upper)
    best_order: list[int] | None = None  # set when the search beats best_obj
    prefix: list[int] = []
    memo: dict[int, int] = {0: root_bound}
    nodes = 1  # the root's bound test
    tick = 1024  # the next node count at which the deadline is checked
    deadline = start + time_budget_s

    def dfs(bound, mask, unplaced, esum) -> None:
        """Visit the children of a node: its placed set is `mask`, and its
        `unplaced` nodes (at least two), in branching order, have extras
        `esum` against each other."""
        nonlocal best_obj, best_order, nodes, tick
        nodes += len(unplaced)
        if nodes >= tick:
            tick = (nodes | 1023) + 1
            if perf_counter() > deadline:
                raise _Timeout
        slack = best_obj - bound
        # the incumbent can improve inside the loop, so each survivor is
        # tested again
        children = [u for u in unplaced if esum[u] < slack]
        if len(unplaced) == 2:
            for u in children:
                if bound + esum[u] < best_obj:
                    nodes += 1  # the leaf's test
                    best_obj = bound + esum[u]
                    best_order = prefix + (unplaced if u == unplaced[0] else unplaced[::-1])
            return
        for u in children:
            child_bound = bound + esum[u]
            if child_bound >= best_obj:
                continue
            mask2 = mask | (1 << u)
            prev = memo.get(mask2)
            if prev is not None and prev <= child_bound:
                continue
            if prev is not None or len(memo) < _MEMO_CAP:
                memo[mask2] = child_bound

            rest = unplaced.copy()
            rest.remove(u)
            prefix.append(u)
            dfs(child_bound, mask2, rest, list(map(sub, esum, extra_col[u])))
            prefix.pop()

    status: Literal["optimal", "timeout_incumbent"] = "optimal"
    if root_bound < best_obj:
        try:
            dfs(root_bound, 0, [index[v] for v in initial.order], esum)
        except _Timeout:
            status = "timeout_incumbent"

    if best_order is None:
        return SolveResult(status, initial, incumbent, perf_counter() - start, nodes)
    perm = Permutation(tuple(model.ids[u] for u in best_order))
    return SolveResult(status, perm, best_obj, perf_counter() - start, nodes)


# -- exhaustive oracle -------------------------------------------------------


def enumerate_optima(
    inst: BipartiteInstance, ks: tuple[int, ...] = ()
) -> dict[object, tuple[tuple[int, ...], int]]:
    """The optima by definition: every permutation of the top layer,
    priced pair by pair from `pairwise_crossings`, with its gaps read from
    its runs of dummies. An order is side-gap when no dummy run lies
    strictly inside it, and k-gap when it has at most k dummy runs.

    Returns mode -> (order, crossings) with modes "unrestricted",
    "sidegap", and ("kgap", k), each k read by `as_k`. The permutations
    come in lexicographic order and only a strict improvement replaces a
    mode's best, so ties resolve to the lexicographically smallest id
    sequence. Guarded to at most 9 top nodes.
    """
    ids = sorted(inst.top_ids)
    p = len(ids)
    if p > ORACLE_NODE_LIMIT:
        raise InputError(
            f"oracle refuses {p} top nodes (limit {ORACLE_NODE_LIMIT}: factorial enumeration)"
        )
    cost = pairwise_crossings(inst, ids)
    dummy = [inst.top_kind[v] == "dummy" for v in ids]
    # each mode's test of an order's runs: one flag per run, True for dummies
    fits: dict[object, Callable[[list[bool]], bool]] = {
        "unrestricted": lambda runs: True,
        "sidegap": lambda runs: True not in runs[1:-1],
    }
    fits |= {("kgap", k): (lambda runs, k=k: sum(runs) <= k) for k in map(as_k, ks)}
    best = dict.fromkeys(fits, ((), inf))
    ceiling = inf  # the largest best: an order that reaches it improves no mode
    for order in permutations(range(p)):
        crossings = sum(cost[u][v] for u, v in combinations(order, 2))
        if crossings >= ceiling:
            continue
        runs = [flag for flag, _ in groupby(dummy[u] for u in order)]
        for mode, fit in fits.items():
            if crossings < best[mode][1] and fit(runs):
                best[mode] = (tuple(ids[u] for u in order), crossings)
        ceiling = max(value for _, value in best.values())
    return best


# -- instance-level pipelines ------------------------------------------------


def solve_unrestricted_exact(
    inst: BipartiteInstance, time_budget_s: float = DEFAULT_TIME_BUDGET_S
) -> SolveResult:
    """Exact optimum over all top permutations: no order of d dummies has
    more than d gaps, so it is the k-gap optimum at k = max(1, d)."""
    return solve_kgap_exact(inst, max(1, len(inst.dummy_top_ids)), time_budget_s)


def solve_kgap_exact(
    inst: BipartiteInstance, k: int, time_budget_s: float = DEFAULT_TIME_BUDGET_S
) -> SolveResult:
    """Exact optimum over permutations with at most k gaps: the best
    optimum over the chain's cut sets, taken lazily with the deadline
    checked before each.

    Crossings among real nodes do not depend on the dummies, and
    `k_gap_merge` is exact for a given real order, so the real nodes are
    searched first, from the greedy switch of the median k-gap order's
    real order. Their optimum (at budget 0, that switched order), merged,
    is an incumbent beside the median k-gap order. It ends the solve when
    its search timed out (only past the deadline) or there is no dummy. A
    cut set whose root bound, the real optimum plus its segments' floors,
    does not prune it is contracted and searched from the greedy switch of
    the best order, each segment at its first dummy's place, against the
    best objective so far. Segments leave chain order only at equal cost
    (a strict switch never moves them), so refilling an improving order's
    dummy slots in canonical order keeps crossings and gaps."""
    check_time_budget(time_budget_s)
    k = as_k(k)
    start = perf_counter()
    deadline = start + time_budget_s
    model = build_kgap_model(inst, k)
    best = solve_kgaps(inst, "median", k)
    best_obj = objective_value(model, best)
    contract, floor = _cut_set_contraction(model)
    real = _search(contract([]), deadline, best)  # no segment: the real nodes alone
    merged, mixed = k_gap_merge(inst, real.permutation, k)
    if real.objective + mixed < best_obj:
        best, best_obj = merged, real.objective + mixed
    status, nodes = real.status, real.nodes_explored
    dummies, d = [model.ids[c] for c in model.chain], len(model.chain)
    if status != "optimal" or not d:
        return SolveResult(status, best, best_obj, perf_counter() - start, nodes)
    for cuts in combinations(range(1, d), min(k, d) - 1):
        if perf_counter() >= deadline:
            status = "timeout_incumbent"
            break
        bounds = list(pairwise((0, *cuts, d)))
        if real.objective + sum(floor(a, b) for a, b in bounds) >= best_obj:
            continue
        result = _search(contract(bounds), deadline, best, upper=best_obj)
        nodes += result.nodes_explored
        if result.objective < best_obj:
            width = {dummies[a]: b - a for a, b in bounds}
            slots = [v for h in result.permutation.order for v in [h] * width.get(h, 1)]
            canonical = iter(dummies)
            best = Permutation(tuple(next(canonical) if v in width else v for v in slots))
            best_obj = result.objective
        if (status := result.status) != "optimal":
            break
    return SolveResult(status, best, best_obj, perf_counter() - start, nodes)


def greedy_switch(model: OrderingModel, permutation: Permutation) -> Permutation:
    """The greedy switch of Eades and Kelly: left-to-right passes over
    `permutation`, an order of the model's nodes, that swap adjacent u, v
    whenever `c_vu < c_uv`, until a pass makes no swap. Each swap lowers
    the integer objective by `c_uv - c_vu`, so the passes end."""
    index = {v: i for i, v in enumerate(model.ids)}
    order = [index[v] for v in permutation.order]
    cost = model.cost
    swapped = True
    while swapped:
        swapped = False
        for a in range(len(order) - 1):
            u, v = order[a], order[a + 1]
            if cost[v][u] < cost[u][v]:
                order[a], order[a + 1] = v, u
                swapped = True
    return Permutation(tuple(model.ids[u] for u in order))


def _search(
    model: OrderingModel, deadline: float, incumbent: Permutation, upper: float = inf
) -> SolveResult:
    """`solve_branch_and_bound` on the chain-free `model` until the
    `perf_counter` time `deadline`, from the greedy switch of `incumbent`'s
    order of the model's nodes (it may hold others). The switch runs even
    with no time left: it belongs to the incumbent, not to the search."""
    ids = set(model.ids)
    initial = greedy_switch(model, Permutation(tuple(v for v in incumbent.order if v in ids)))
    return solve_branch_and_bound(model, max(0.0, deadline - perf_counter()), initial, upper=upper)


def _cut_set_contraction(
    model: OrderingModel,
) -> tuple[Callable[[list[tuple[int, int]]], OrderingModel], Callable[[int, int], int]]:
    """For the k-gap `model`: `contract(bounds)`, the chain-free model of
    one cut set given by its segments' chain slices (its real nodes and one
    node per segment, named after its first dummy, whose costs sum its
    dummies'), and `floor(a, b)`, the sum over real i of min(c_i,seg,
    c_seg,i) for the segment a:b, cached per segment (a chain of d dummies
    has d(d+1)/2 of them, and each recurs in many cut sets). No two chain
    dummies' edges cross, so the model's root bound is the real pairs'
    part plus its floors.

    Two prefix tables over the chain hold, per chain prefix j and real
    node x, x's cost before the first j dummies (`before[j][x]`) and
    theirs before x (`after[j][x]`), so every entry between a real node
    and a segment is one difference. Only a searched cut set reads the
    entries between two segments, so `contract` sums those pair by
    pair."""
    cost, chain = model.cost, model.chain
    on_chain = set(chain)
    reals = [i for i in range(len(model.ids)) if i not in on_chain]
    real_rows = [[cost[x][y] for y in reals] for x in reals]

    def prefixes(rows) -> list[list[int]]:
        zero = [0] * len(reals)
        return list(accumulate(rows, lambda total, row: list(map(add, total, row)), initial=zero))

    before = prefixes([cost[x][c] for x in reals] for c in chain)
    after = prefixes([cost[c][x] for x in reals] for c in chain)

    def contract(bounds) -> OrderingModel:
        columns = [list(map(sub, before[b], before[a])) for a, b in bounds]
        rows = [row + [column[x] for column in columns] for x, row in enumerate(real_rows)]
        rows += [
            list(map(sub, after[b], after[a]))
            + [sum(cost[u][v] for u in chain[a:b] for v in chain[c:e]) for c, e in bounds]
            for a, b in bounds
        ]
        ids = tuple(model.ids[i] for i in reals + [chain[a] for a, _ in bounds])
        return OrderingModel(ids, tuple(map(tuple, rows)), (), None)

    @cache
    def floor(a: int, b: int) -> int:
        return sum(map(min, map(sub, before[b], before[a]), map(sub, after[b], after[a])))

    return contract, floor


def solve_sidegap_exact(
    inst: BipartiteInstance, time_budget_s: float = DEFAULT_TIME_BUDGET_S
) -> SolveResult:
    """Exact optimum over side-gap permutations: the optimum order of the
    real nodes, searched from the greedy switch of their median order,
    with the dummies then placed into side gaps (the placement is
    independent of the real order, so the composition stays exact).
    Crossings among real nodes do not depend on the dummies, so the search
    reads the real nodes' rows of the instance's crossing counts."""
    check_time_budget(time_budget_s)
    start = perf_counter()
    reals = inst.real_top_ids
    model = build_base_oscm_model(inst, reals)
    inner = _search(model, start + time_budget_s, heuristic_order(inst, reals, "median"))
    merged = side_gap_merge(inst, inner.permutation)
    return SolveResult(
        inner.status,
        merged,
        count_crossings(inst, merged),
        perf_counter() - start,
        inner.nodes_explored,
    )
