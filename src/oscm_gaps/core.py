"""Two-layer instances, permutations, and crossing/gap counting primitives.

The bottom layer order is fixed; all solvers permute the top layer. Top
nodes are either real or dummy (degree-1 placeholders for long edges),
and a "gap" is a maximal run of dummy nodes in the top permutation.
"""

from __future__ import annotations

import json
from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add
from typing import Iterable, Literal, Sequence

Kind = Literal["real", "dummy"]
_KINDS = ("real", "dummy")


class InputError(ValueError):
    """Malformed caller input: unknown ids, bad files, bad parameters."""


def _as_fraction(value: int | float | str | Fraction, name: str) -> Fraction:
    # Floats go through str() so "0.3" means 3/10, not the nearest binary
    # float; n_dm = floor(n * f_dm) must match the decimal the user typed.
    if isinstance(value, bool):  # Python would read a JSON true or false as 1 or 0
        raise InputError(f"bad {name}: {value!r} (a boolean is not a number)")
    try:
        return Fraction(str(value) if isinstance(value, float) else value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {name}: {value!r} ({exc})") from None


def as_int(value: int | float | str, name: str) -> int:
    """`value` as an integer; integral floats and numeric strings pass,
    anything else (2.7, "abc", None, True) is an input error."""
    number = _as_fraction(value, name)
    if number.denominator != 1:
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(number)


def as_k(value: int | float | str) -> int:
    """The gap budget k as an integer >= 1, read as `as_int` reads a
    file's ids: 2.0 is 2, and True or 2.5 is an input error."""
    k = value if type(value) is int else as_int(value, "k")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return k


@dataclass(frozen=True)
class Node:
    id: int
    kind: Kind


def _checked_node(node: Node, layer: str) -> Node:
    if node.kind not in _KINDS:
        raise InputError(f"bad node kind: {node.kind!r}")
    return Node(as_int(node.id, f"{layer} node id"), node.kind)


@dataclass(frozen=True)
class Permutation:
    """Ordered arrangement of node ids with O(1) position lookup."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise InputError("permutation contains duplicate ids")

    @cached_property
    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class GapReport:
    """Maximal dummy runs of a top permutation.

    `runs` holds inclusive (start, end) index pairs; `side_flags[i]` is
    True when run i touches the first or last position.
    """

    count: int
    runs: tuple[tuple[int, int], ...]
    side_flags: tuple[bool, ...]

    @property
    def is_side_gap_permutation(self) -> bool:
        return all(self.side_flags)


@dataclass(frozen=True)
class BipartiteInstance:
    """A two-layer graph with a fixed bottom order.

    Edges run between the layers only, every dummy node has exactly one
    incident edge, and `pi1` fixes the bottom layer left to right.
    """

    bottom: tuple[Node, ...]
    top: tuple[Node, ...]
    edges: frozenset[tuple[int, int]]
    pi1: Permutation

    @classmethod
    def build(
        cls,
        bottom: Iterable[Node],
        top: Iterable[Node],
        edges: Iterable[tuple[int, int]],
        pi1_order: Sequence[int] | None = None,
    ) -> "BipartiteInstance":
        """The checked instance: node ids, edge ends and `pi1` ids are read
        with `as_int` and kinds must be "real" or "dummy", as in a file."""
        bottom = tuple(_checked_node(v, "bottom") for v in bottom)
        top = tuple(_checked_node(v, "top") for v in top)
        edge_list = [(as_int(b, "edge end"), as_int(t, "edge end")) for b, t in edges]
        edge_set = frozenset(edge_list)
        if len(edge_set) != len(edge_list):
            raise InputError("duplicate edges")
        if pi1_order is None:
            pi1_order = [v.id for v in bottom]
        pi1 = Permutation(tuple(as_int(v, "pi1 id") for v in pi1_order))
        inst = cls(bottom, top, edge_set, pi1)
        violations = validate_instance(inst)
        if violations:
            raise InputError(f"invalid instance: {'; '.join(violations)}")
        return inst

    # -- derived lookups (instances are immutable, so caching is safe) --

    @cached_property
    def top_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.top)

    @cached_property
    def real_top_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.top if v.kind == "real")

    @cached_property
    def dummy_top_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.top if v.kind == "dummy")

    @cached_property
    def top_kind(self) -> dict[int, Kind]:
        return {v.id: v.kind for v in self.top}

    @cached_property
    def neighbor_positions(self) -> dict[int, tuple[int, ...]]:
        """Top id -> sorted bottom positions of its neighbors."""
        pos = self.pi1.position
        adj: dict[int, list[int]] = {v.id: [] for v in self.top}
        for b, t in self.edges:
            adj[t].append(pos[b])
        return {t: tuple(sorted(ps)) for t, ps in adj.items()}

    @cached_property
    def real_edges_before(self) -> tuple[int, ...]:
        """Entry q counts the edges with a real top end whose bottom end
        lies left of position q, for q = 0..len(pi1)."""
        at = [0] * len(self.pi1)
        for t in self.real_top_ids:
            for q in self.neighbor_positions[t]:
                at[q] += 1
        return tuple(accumulate(at, initial=0))

    @cached_property
    def dummy_chain(self) -> tuple[tuple[int, int], ...]:
        """The top dummies in canonical order, as (neighbor position, id)
        pairs sorted ascending, so ties go by id and an edge-less dummy,
        at position -1, comes first. No two dummy edges cross under it."""
        neigh = self.neighbor_positions
        return tuple(sorted((neigh[d][0] if neigh[d] else -1, d) for d in self.dummy_top_ids))

    def build_lookups(self) -> None:
        """Build every lookup above, and the positions of `pi1`, now
        instead of on first use, so that a timed solve of this instance
        pays for none of them."""
        for name, attr in vars(BipartiteInstance).items():
            if isinstance(attr, cached_property):
                getattr(self, name)
        self.pi1.position

    @property
    def m(self) -> int:
        return len(self.edges)


def validate_instance(inst: BipartiteInstance) -> list[str]:
    """Return the list of violated invariants (empty means valid)."""
    violations: list[str] = []
    ids = [v.id for v in inst.bottom] + [v.id for v in inst.top]
    seen: set[int] = set()
    for i in ids:
        if i in seen:
            violations.append(f"duplicate node id {i}")
        seen.add(i)

    bottom_ids = set(v.id for v in inst.bottom)
    top_ids = set(v.id for v in inst.top)
    stray = [(b, t) for b, t in inst.edges if b not in bottom_ids or t not in top_ids]
    for b, t in sorted(stray):
        violations.append(f"edge not bipartite: ({b}, {t})")

    bdeg = Counter(b for b, _ in inst.edges)
    tdeg = Counter(t for _, t in inst.edges)
    # Degree-0 dummies are tolerated only in the degenerate case where the
    # opposite layer has no real node to attach to (all-dummy instances).
    top_has_real = any(v.kind == "real" for v in inst.top)
    bottom_has_real = any(v.kind == "real" for v in inst.bottom)
    for v in inst.bottom:
        if v.kind == "dummy":
            d = bdeg[v.id]
            if d > 1 or (d == 0 and top_has_real):
                violations.append(f"dummy degree != 1: bottom node {v.id} has degree {d}")
    for v in inst.top:
        if v.kind == "dummy":
            d = tdeg[v.id]
            if d > 1 or (d == 0 and bottom_has_real):
                violations.append(f"dummy degree != 1: top node {v.id} has degree {d}")

    if set(inst.pi1.order) != bottom_ids or len(inst.pi1) != len(inst.bottom):
        violations.append("pi1 is not a permutation of the bottom layer")
    return violations


def _check_top_permutation(inst: BipartiteInstance, pi2: Permutation) -> None:
    if set(pi2.order) != set(inst.top_ids):
        raise InputError("pi2 is not a permutation of the top layer")


def count_crossings(inst: BipartiteInstance, pi2: Permutation) -> int:
    """Crossings of the two-layer drawing given the top order `pi2`.

    Walks the top nodes in `pi2` order and keeps `ends`, the sorted bottom
    positions of the edges of the nodes passed so far. An edge of the
    current node at bottom position a crosses each of those edges whose end
    lies strictly right of a, `len(ends) - bisect_right(ends, a)`, and a
    shared end never crosses. The node's ends are counted first and then
    inserted with `insort`, so its own edges never count against each
    other. The m edges cost O(m log m) comparisons plus the insertions'
    list shifts, up to m^2 / 2 element moves done by memmove in C, which
    take over from the comparisons only past tens of thousands of edges.
    """
    _check_top_permutation(inst, pi2)
    neigh = inst.neighbor_positions
    ends: list[int] = []
    crossings = 0
    for t in pi2.order:
        positions = neigh[t]
        passed = len(ends)
        for a in positions:
            crossings += passed - bisect_right(ends, a)
        for a in positions:
            insort(ends, a)
    return crossings


def pairwise_crossings(
    inst: BipartiteInstance, ids: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Rows c[u][v] over the top nodes `ids`, aligned with `ids`: the
    crossings between edges of u and edges of v when u precedes v, that
    is the neighbor pairs (a in N(u), b in N(v)) with b strictly left of a.

    One left-to-right sweep of the bottom positions keeps `left[j]`, the
    number of neighbors of ids[j] passed so far. At position a, every id
    with an edge at a adds `left` to its row, and only then do those ids
    bump their own `left` entry, so a shared end never counts. A row's
    diagonal entry then holds the node's own pairs and is zeroed at the
    end. The sweep costs one C-level vector addition of length len(ids)
    per edge of the ids, O(m * len(ids)) in all, and O(len(pi1) + m)
    memory beyond the rows, for the ids listed at each bottom position:
    no len(ids) x len(pi1) table. An id that is not a top node is an
    input error.
    """
    neigh = inst.neighbor_positions
    at: list[list[int]] = [[] for _ in inst.pi1.order]
    for j, v in enumerate(ids):
        try:
            positions = neigh[v]
        except KeyError:
            raise InputError(f"unknown top id {v}") from None
        for a in positions:
            at[a].append(j)
    left = [0] * len(ids)
    rows = [[0] * len(ids) for _ in ids]
    for here in at:
        for j in here:
            rows[j] = list(map(add, rows[j], left))
        for j in here:
            left[j] += 1
    for i, row in enumerate(rows):
        row[i] = 0
    return tuple(map(tuple, rows))


def count_gaps(inst: BipartiteInstance, pi2: Permutation) -> GapReport:
    _check_top_permutation(inst, pi2)
    kind = inst.top_kind
    runs: list[tuple[int, int]] = []
    start: int | None = None
    for i, v in enumerate(pi2.order):
        if kind[v] == "dummy":
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(pi2) - 1))
    last = len(pi2) - 1
    flags = tuple(s == 0 or e == last for s, e in runs)
    return GapReport(len(runs), tuple(runs), flags)


# -- file formats ----------------------------------------------------------


def instance_to_json(inst: BipartiteInstance) -> str:
    payload = {
        "bottom": [{"id": v.id, "kind": v.kind} for v in inst.bottom],
        "top": [{"id": v.id, "kind": v.kind} for v in inst.top],
        "edges": [[b, t] for b, t in sorted(inst.edges)],
        "pi1": list(inst.pi1.order),
    }
    return json.dumps(payload, indent=2) + "\n"


def _node_from_obj(obj: object, layer: str) -> Node:
    if not isinstance(obj, dict) or "id" not in obj or "kind" not in obj:
        raise InputError(f"bad {layer} node entry: {obj!r}")
    return Node(obj["id"], obj["kind"])


def instance_from_json(text: str) -> BipartiteInstance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid instance JSON: {exc}") from None
    try:
        bottom = [_node_from_obj(o, "bottom") for o in payload["bottom"]]
        top = [_node_from_obj(o, "top") for o in payload["top"]]
        edges = [(b, t) for b, t in payload["edges"]]
        pi1 = list(payload["pi1"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid instance JSON: {exc}") from None
    return BipartiteInstance.build(bottom, top, edges, pi1)


def read_input(path: str) -> str:
    """The text of a UTF-8 input file; other bytes are an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None


def load_instance(path: str) -> BipartiteInstance:
    return instance_from_json(read_input(path))


def save_instance(inst: BipartiteInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))


def permutation_to_json(pi: Permutation) -> str:
    return json.dumps({"order": list(pi.order)}, indent=2) + "\n"


def permutation_from_json(text: str) -> Permutation:
    try:
        payload = json.loads(text)
        return Permutation(tuple(as_int(v, "permutation id") for v in payload["order"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid permutation JSON: {exc}") from None


def load_permutation(path: str) -> Permutation:
    return permutation_from_json(read_input(path))


def save_permutation(pi: Permutation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(permutation_to_json(pi))
