"""Exact solvers: the ordering model, a branch-and-bound optimizer over
permutation prefixes, and the exhaustive enumeration oracle.

The model uses 0/1 ordering variables x_ij (v_i before v_j) with
antisymmetry and transitivity, plus gap variables g_ij for consecutive
dummies that count real interruptions of the canonical dummy order.
Branch-and-bound searches permutation space directly, so transitivity
holds implicitly in every explored state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from typing import Literal

from .core import (
    BipartiteInstance,
    InputError,
    Kind,
    Permutation,
    count_crossings,
    pairwise_crossings,
    restrict_top,
)
from .gap_placement import canonical_dummy_order, side_gap_merge, solve_kgaps
from .heuristics import heuristic_order

ORACLE_NODE_LIMIT = 9


@dataclass(frozen=True)
class OrderingModel:
    """Linear ordering model over the top nodes of one instance.

    `cost[i][j]` is the crossing count with node i before node j, `chain`
    lists the canonical dummy order as node indices (every dummy in a
    k-gap model, empty in the base model), and `gap_budget` (k-1) bounds
    the number of consecutive chain pairs a real node may separate.
    `degrees` only steers branching.
    """

    ids: tuple[int, ...]
    kinds: tuple[Kind, ...]
    cost: tuple[tuple[int, ...], ...]
    chain: tuple[int, ...]
    gap_budget: int | None
    degrees: tuple[int, ...]

    @property
    def fixed_pairs(self) -> tuple[tuple[int, int], ...]:
        """Consecutive chain pairs, whose order is forced."""
        return tuple(zip(self.chain, self.chain[1:]))


@dataclass(frozen=True)
class LinearTerm:
    var: str
    coef: int


@dataclass(frozen=True)
class LinearConstraint:
    terms: tuple[LinearTerm, ...]
    op: Literal["<=", "="]
    rhs: int


@dataclass(frozen=True)
class LinearModel:
    """Flat variables/objective/constraints view used for interchange."""

    vars: tuple[str, ...]
    objective: tuple[LinearTerm, ...]
    constraints: tuple[LinearConstraint, ...]


def build_base_oscm_model(inst: BipartiteInstance) -> OrderingModel:
    """Plain crossing-minimization model: ordering variables and
    antisymmetry/transitivity only, no dummy or gap machinery."""
    return _build(inst, fixed=False, gap_budget=None)


def build_kgap_model(inst: BipartiteInstance, k: int) -> OrderingModel:
    """Model with the canonical dummy order fixed and at most k gaps."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return _build(inst, fixed=True, gap_budget=k - 1)


def _build(inst: BipartiteInstance, fixed: bool, gap_budget: int | None) -> OrderingModel:
    ids = inst.top_ids
    index = {v: i for i, v in enumerate(ids)}
    chain = canonical_dummy_order(inst).order.order if fixed else ()
    return OrderingModel(
        ids=ids,
        kinds=tuple(inst.top_kind[v] for v in ids),
        cost=pairwise_crossings(inst).rows,
        chain=tuple(index[d] for d in chain),
        gap_budget=gap_budget,
        degrees=tuple(inst.degree(v) for v in ids),
    )


# -- flat view, export, import ---------------------------------------------


def _x(model: OrderingModel, i: int, j: int) -> str:
    return f"x_{model.ids[i]}_{model.ids[j]}"


def _g(model: OrderingModel, i: int, j: int) -> str:
    return f"g_{model.ids[i]}_{model.ids[j]}"


def linearize(model: OrderingModel) -> LinearModel:
    """Materialize every constraint, including the transitivity family
    that the solver otherwise keeps implicit."""
    p = len(model.ids)
    names = [_x(model, i, j) for i in range(p) for j in range(p) if i != j]
    g_names = [_g(model, i, j) for i, j in model.fixed_pairs]

    objective = tuple(
        LinearTerm(_x(model, i, j), model.cost[i][j])
        for i in range(p)
        for j in range(p)
        if i != j
    )

    cons: list[LinearConstraint] = []
    for i in range(p):
        for j in range(i + 1, p):
            cons.append(
                LinearConstraint(
                    (LinearTerm(_x(model, i, j), 1), LinearTerm(_x(model, j, i), 1)),
                    "=",
                    1,
                )
            )
    for i in range(p):
        for j in range(p):
            if j == i:
                continue
            for l in range(p):
                if l == i or l == j:
                    continue
                cons.append(
                    LinearConstraint(
                        (
                            LinearTerm(_x(model, i, j), 1),
                            LinearTerm(_x(model, j, l), 1),
                            LinearTerm(_x(model, i, l), -1),
                        ),
                        "<=",
                        1,
                    )
                )
    for i, j in model.fixed_pairs:
        cons.append(LinearConstraint((LinearTerm(_x(model, i, j), 1),), "=", 1))
    reals = [i for i, kind in enumerate(model.kinds) if kind == "real"]
    for i, j in model.fixed_pairs:
        for l in reals:
            cons.append(
                LinearConstraint(
                    (
                        LinearTerm(_x(model, i, l), 1),
                        LinearTerm(_x(model, l, j), 1),
                        LinearTerm(_g(model, i, j), -1),
                    ),
                    "<=",
                    1,
                )
            )
    if model.fixed_pairs and model.gap_budget is not None:
        cons.append(
            LinearConstraint(
                tuple(LinearTerm(name, 1) for name in g_names),
                "<=",
                model.gap_budget,
            )
        )
    return LinearModel(tuple(names + g_names), objective, tuple(cons))


def export_model(model: OrderingModel | LinearModel) -> str:
    """Serialize to the documented JSON interchange schema."""
    linear = linearize(model) if isinstance(model, OrderingModel) else model
    payload = {
        "vars": [{"name": name} for name in linear.vars],
        "objective": [{"var": t.var, "coef": t.coef} for t in linear.objective],
        "constraints": [
            {
                "terms": [{"var": t.var, "coef": t.coef} for t in c.terms],
                "op": c.op,
                "rhs": c.rhs,
            }
            for c in linear.constraints
        ],
    }
    return json.dumps(payload, indent=1) + "\n"


def import_model(text: str) -> LinearModel:
    try:
        payload = json.loads(text)
        names = tuple(v["name"] for v in payload["vars"])
        objective = tuple(
            LinearTerm(t["var"], int(t["coef"])) for t in payload["objective"]
        )
        constraints = []
        for c in payload["constraints"]:
            if c["op"] not in ("<=", "="):
                raise ValueError(f"bad op {c['op']!r}")
            constraints.append(
                LinearConstraint(
                    tuple(LinearTerm(t["var"], int(t["coef"])) for t in c["terms"]),
                    c["op"],
                    int(c["rhs"]),
                )
            )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid model JSON: {exc}") from None
    return LinearModel(names, objective, tuple(constraints))


def decode_assignment(model: OrderingModel, permutation: Permutation) -> dict[str, int]:
    """Variable assignment induced by a permutation of the model's nodes:
    x from relative order, g from whether a real node interrupts the pair."""
    if set(permutation.order) != set(model.ids):
        raise InputError("permutation does not cover the model's nodes")
    p = len(model.ids)
    pos = [permutation.position[v] for v in model.ids]
    out: dict[str, int] = {}
    for i in range(p):
        for j in range(p):
            if i != j:
                out[_x(model, i, j)] = 1 if pos[i] < pos[j] else 0
    reals = [i for i, kind in enumerate(model.kinds) if kind == "real"]
    for i, j in model.fixed_pairs:
        lo, hi = pos[i], pos[j]
        between = any(lo < pos[l] < hi for l in reals)
        out[_g(model, i, j)] = 1 if between else 0
    return out


def evaluate_assignment(
    linear: LinearModel, assignment: dict[str, int]
) -> tuple[int, list[str]]:
    """Objective value and the list of violated constraints."""
    objective = sum(t.coef * assignment[t.var] for t in linear.objective)
    violated: list[str] = []
    for c in linear.constraints:
        lhs = sum(t.coef * assignment[t.var] for t in c.terms)
        ok = lhs <= c.rhs if c.op == "<=" else lhs == c.rhs
        if not ok:
            violated.append(f"{' + '.join(f'{t.coef}*{t.var}' for t in c.terms)} {c.op} {c.rhs} (lhs={lhs})")
    return objective, violated


def objective_value(model: OrderingModel, permutation: Permutation) -> int:
    index = {v: i for i, v in enumerate(model.ids)}
    order = [index[v] for v in permutation.order]
    return sum(
        model.cost[order[a]][order[b]]
        for a in range(len(order))
        for b in range(a + 1, len(order))
    )


# -- branch and bound --------------------------------------------------------


@dataclass(frozen=True)
class SolveResult:
    status: Literal["optimal", "timeout_incumbent", "infeasible"]
    permutation: Permutation | None
    objective: int | None
    wall_time_s: float
    nodes_explored: int


class _Timeout(Exception):
    pass


_MEMO_CAP = 1 << 22


def solve_branch_and_bound(
    model: OrderingModel,
    time_budget_s: float = 300.0,
    initial: Permutation | None = None,
) -> SolveResult:
    """Depth-first search over permutation prefixes with incremental cost.

    The bound at a prefix is the cost among placed pairs, plus the forced
    cost of placed-vs-unplaced pairs, plus min(c_ij, c_ji) over unplaced
    pairs. The fixed dummy chain restricts which dummy may come next, and
    the gap budget prunes placements that would exceed k runs. A memo of
    best-known prefix cost per (placed set, gap state) removes dominated
    revisits.
    """
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
    static_order = sorted(range(p), key=lambda i: (-model.degrees[i], model.ids[i]))

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


# -- exhaustive oracle -------------------------------------------------------


def enumerate_optima(
    inst: BipartiteInstance, ks: tuple[int, ...] = ()
) -> dict[object, tuple[tuple[int, ...], int]]:
    """Walk every permutation of the top layer once, tracking the best
    solution for the unrestricted, side-gap, and requested k-gap modes.

    Returns mode -> (order, crossings) with modes "unrestricted",
    "sidegap", and ("kgap", k). Ties resolve to the lexicographically
    smallest id sequence. Guarded to at most 9 top nodes.
    """
    ids = sorted(inst.top_ids)
    p = len(ids)
    if p > ORACLE_NODE_LIMIT:
        raise InputError(
            f"oracle refuses {p} top nodes (limit {ORACLE_NODE_LIMIT}: factorial enumeration)"
        )
    for k in ks:
        if k < 1:
            raise InputError(f"k must be >= 1, got {k}")
    matrix = pairwise_crossings(inst)
    cost = [[matrix.cost(u, v) for v in ids] for u in ids]
    dummy = [inst.top_kind[v] == "dummy" for v in ids]

    inf = inst.m * inst.m + 1
    best: dict[object, list] = {"unrestricted": [inf, None], "sidegap": [inf, None]}
    for k in ks:
        best[("kgap", k)] = [inf, None]

    placed = [False] * p
    order: list[int] = []
    add = [0] * p

    def walk(acc: int, gaps: int, open_at_zero: bool, interior: int) -> None:
        depth = len(order)
        if depth == p:
            if acc < best["unrestricted"][0]:
                best["unrestricted"][:] = [acc, tuple(order)]
            if interior == 0 and acc < best["sidegap"][0]:
                best["sidegap"][:] = [acc, tuple(order)]
            for k in ks:
                if gaps <= k and acc < best[("kgap", k)][0]:
                    best[("kgap", k)][:] = [acc, tuple(order)]
            return
        last_dummy = depth > 0 and dummy[order[-1]]
        for u in range(p):
            if placed[u]:
                continue
            if dummy[u]:
                g2 = gaps if last_dummy else gaps + 1
                z2 = open_at_zero if last_dummy else depth == 0
                i2 = interior
            else:
                g2, z2 = gaps, False
                i2 = interior + (1 if last_dummy and not open_at_zero else 0)
            acc2 = acc + add[u]
            placed[u] = True
            order.append(u)
            cu = cost[u]
            for v in range(p):
                if not placed[v]:
                    add[v] += cu[v]
            walk(acc2, g2, z2, i2)
            for v in range(p):
                if not placed[v]:
                    add[v] -= cu[v]
            order.pop()
            placed[u] = False

    if p:
        walk(0, 0, False, 0)
    else:
        for entry in best.values():
            entry[:] = [0, ()]
    return {
        mode: (tuple(ids[u] for u in entry[1]), entry[0]) for mode, entry in best.items()
    }


def brute_force_oracle(
    inst: BipartiteInstance,
    mode: Literal["unrestricted", "sidegap", "kgap"] = "unrestricted",
    k: int | None = None,
) -> tuple[Permutation, int]:
    """Exhaustive optimum for one mode; see `enumerate_optima`."""
    if mode == "kgap":
        if k is None:
            raise InputError("kgap mode requires k")
        result = enumerate_optima(inst, ks=(k,))[("kgap", k)]
    elif mode in ("unrestricted", "sidegap"):
        result = enumerate_optima(inst)[mode]
    else:
        raise InputError(f"unknown oracle mode: {mode!r}")
    order, value = result
    return Permutation(order), value


# -- instance-level pipelines ------------------------------------------------


def solve_unrestricted_exact(
    inst: BipartiteInstance, time_budget_s: float = 300.0
) -> SolveResult:
    """Exact optimum over all top permutations (no gap constraint)."""
    model = build_base_oscm_model(inst)
    initial = heuristic_order(inst, inst.top_ids, "median")
    return solve_branch_and_bound(model, time_budget_s, initial=initial)


def solve_kgap_exact(
    inst: BipartiteInstance, k: int, time_budget_s: float = 300.0
) -> SolveResult:
    """Exact optimum over permutations with at most k gaps."""
    model = build_kgap_model(inst, k)
    initial = solve_kgaps(inst, "median", k)
    return solve_branch_and_bound(model, time_budget_s, initial=initial)


def solve_sidegap_exact(
    inst: BipartiteInstance, time_budget_s: float = 300.0
) -> SolveResult:
    """Exact optimum over side-gap permutations: solve the real nodes
    exactly, then place the dummies into side gaps (the placement is
    independent of the real order, so the composition stays exact)."""
    start = perf_counter()
    reals = inst.real_top_ids
    restricted = restrict_top(inst, reals)
    model = build_base_oscm_model(restricted)
    initial = heuristic_order(restricted, reals, "median")
    inner = solve_branch_and_bound(model, time_budget_s, initial=initial)
    if inner.permutation is None:
        return SolveResult(
            inner.status, None, None, perf_counter() - start, inner.nodes_explored
        )
    merged = side_gap_merge(inst, inner.permutation)
    return SolveResult(
        inner.status,
        merged,
        count_crossings(inst, merged),
        perf_counter() - start,
        inner.nodes_explored,
    )
