"""Dummy-independent base heuristics for classic crossing minimization.

Both heuristics assign each top node a sort key that depends only on the
fixed bottom order and the node's own neighborhood, so adding or removing
degree-1 nodes never changes the relative order of the remaining nodes.
The barycenter is compared exactly, as an integer: the neighbor position
sum scaled by L // degree, where L is the lcm of the subset's degrees, so
two keys compare as the rational means do.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Literal

from .core import BipartiteInstance, InputError, Permutation

HeuristicKind = Literal["median", "barycenter"]

HEURISTIC_KINDS: tuple[HeuristicKind, ...] = ("median", "barycenter")


def heuristic_order(
    inst: BipartiteInstance, subset: Iterable[int], kind: HeuristicKind
) -> Permutation:
    """Order `subset` ascending by each node's key: the left median or the
    barycenter of its neighbor positions (-1, leftmost, at degree 0), then
    odd before even degree, then the id. Odd-degree nodes win ties; the
    tie rule keeps crossing-free instances at zero."""
    if kind not in HEURISTIC_KINDS:
        raise InputError(f"unknown heuristic kind: {kind!r}")
    neigh = inst.neighbor_positions
    subset = tuple(subset)
    try:
        rows = [neigh[v] for v in subset]
    except KeyError as exc:
        raise InputError(f"unknown top id {exc.args[0]}") from None
    if kind == "median":
        keys = [p[(len(p) - 1) // 2] if p else -1 for p in rows]
    else:
        # a degree of 0 counts as 1: lcm(..., 0) is 0 and would zero every key
        scale = lcm(*(len(p) or 1 for p in rows))
        keys = [sum(p) * (scale // len(p)) if p else -1 for p in rows]
    ranked = sorted(zip(keys, [1 - len(p) % 2 for p in rows], subset))
    return Permutation(tuple(v for _, _, v in ranked))
