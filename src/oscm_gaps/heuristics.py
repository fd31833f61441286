"""Dummy-independent base heuristics for classic crossing minimization.

Both heuristics assign each top node a sort key that depends only on the
fixed bottom order and the node's own neighborhood, so adding or removing
degree-1 nodes never changes the relative order of the remaining nodes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Literal

from .core import BipartiteInstance, InputError, Permutation

HeuristicKind = Literal["median", "barycenter"]

HEURISTIC_KINDS: tuple[HeuristicKind, ...] = ("median", "barycenter")


def heuristic_key(
    inst: BipartiteInstance, v: int, kind: HeuristicKind
) -> tuple[Fraction | int, int, int]:
    """Sort key of top node `v`: the left median or exact-rational
    barycenter of its neighbor positions (-1, leftmost, at degree 0),
    then 0 for odd and 1 for even degree, then the id. Odd-degree nodes
    win ties; the tie rule keeps crossing-free instances at zero."""
    if kind not in HEURISTIC_KINDS:
        raise InputError(f"unknown heuristic kind: {kind!r}")
    positions = inst.neighbor_positions.get(v)
    if positions is None:
        raise InputError(f"unknown top id {v}")
    deg = len(positions)
    key: Fraction | int
    if deg == 0:
        key = -1
    elif kind == "median":
        key = positions[(deg - 1) // 2]
    else:
        key = Fraction(sum(positions), deg)
    return key, 0 if deg % 2 else 1, v


def heuristic_order(
    inst: BipartiteInstance, subset: Iterable[int], kind: HeuristicKind
) -> Permutation:
    """Order `subset` ascending by `heuristic_key` (deterministic ties)."""
    return Permutation(tuple(sorted(subset, key=lambda v: heuristic_key(inst, v, kind))))
