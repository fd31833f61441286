"""Two-layer instances, permutations, and crossing/gap counting primitives.

The bottom layer order is fixed; all solvers permute the top layer. Top
nodes are either real or dummy (degree-1 placeholders for long edges),
and a "gap" is a maximal run of dummy nodes in the top permutation.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Literal, Sequence

Kind = Literal["real", "dummy"]
Layer = Literal["bottom", "top"]


class InputError(ValueError):
    """Malformed caller input: unknown ids, bad files, bad parameters."""


@dataclass(frozen=True)
class Node:
    id: int
    layer: Layer
    kind: Kind


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

    def pos(self, node_id: int) -> int:
        try:
            return self.position[node_id]
        except KeyError:
            raise InputError(f"id {node_id} not in permutation") from None

    def precedes(self, x: int, y: int) -> bool:
        return self.pos(x) < self.pos(y)

    def induced(self, subset: Iterable[int]) -> "Permutation":
        """Restriction to `subset`, preserving relative order."""
        keep = set(subset)
        return Permutation(tuple(v for v in self.order if v in keep))

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.order)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.position


def concatenate(*parts: Sequence[int] | Permutation) -> Permutation:
    """Concatenate disjoint orders into one permutation."""
    order: list[int] = []
    for part in parts:
        order.extend(part.order if isinstance(part, Permutation) else part)
    return Permutation(tuple(order))


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
        bottom = tuple(bottom)
        top = tuple(top)
        edge_list = [(int(b), int(t)) for b, t in edges]
        edge_set = frozenset(edge_list)
        if len(edge_set) != len(edge_list):
            raise InputError("duplicate edges")
        if pi1_order is None:
            pi1_order = [v.id for v in bottom]
        return cls(bottom, top, edge_set, Permutation(tuple(pi1_order)))

    # -- derived lookups (instances are immutable, so caching is safe) --

    @cached_property
    def bottom_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.bottom)

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
    def _top_adj(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v.id: [] for v in self.top}
        for b, t in self.edges:
            adj[t].append(b)
        return {t: tuple(bs) for t, bs in adj.items()}

    @cached_property
    def neighbor_positions(self) -> dict[int, tuple[int, ...]]:
        """Top id -> sorted bottom positions of its neighbors."""
        pos = self.pi1.position
        return {
            t: tuple(sorted(pos[b] for b in bs)) for t, bs in self._top_adj.items()
        }

    def degree(self, top_id: int) -> int:
        return len(self._top_adj[top_id])

    @cached_property
    def bottom_real_degree(self) -> dict[int, int]:
        """Bottom id -> number of incident edges whose top endpoint is real."""
        deg = {v.id: 0 for v in self.bottom}
        kind = self.top_kind
        for b, t in self.edges:
            if kind[t] == "real":
                deg[b] += 1
        return deg

    @cached_property
    def dummy_neighbor(self) -> dict[int, int | None]:
        """Dummy top id -> its unique bottom neighbor (None if degree 0)."""
        out: dict[int, int | None] = {}
        for d in self.dummy_top_ids:
            bs = self._top_adj[d]
            out[d] = bs[0] if bs else None
        return out

    @property
    def n(self) -> int:
        return len(self.bottom) + len(self.top)

    @property
    def m(self) -> int:
        return len(self.edges)


def restrict_top(inst: BipartiteInstance, keep: Iterable[int]) -> BipartiteInstance:
    """Drop top nodes outside `keep` (and their edges); bottom layer unchanged."""
    keep = set(keep)
    top = tuple(v for v in inst.top if v.id in keep)
    edges = frozenset((b, t) for b, t in inst.edges if t in keep)
    return BipartiteInstance(inst.bottom, top, edges, inst.pi1)


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
    for b, t in sorted(inst.edges):
        if b not in bottom_ids or t not in top_ids:
            violations.append(f"edge not bipartite: ({b}, {t})")

    bdeg = {v.id: 0 for v in inst.bottom}
    tdeg = {v.id: 0 for v in inst.top}
    for b, t in inst.edges:
        if b in bdeg:
            bdeg[b] += 1
        if t in tdeg:
            tdeg[t] += 1
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

    Edges sorted by bottom position; crossings are inversions of the top
    positions, counted with a Fenwick tree in O(m log m).
    """
    _check_top_permutation(inst, pi2)
    pos1 = inst.pi1.position
    pos2 = pi2.position
    edges = sorted((pos1[b], pos2[t]) for b, t in inst.edges)
    size = len(pi2)
    tree = [0] * (size + 1)
    crossings = 0
    for inserted, (_, t) in enumerate(edges):
        i = t + 1
        not_greater = 0
        while i > 0:
            not_greater += tree[i]
            i -= i & -i
        crossings += inserted - not_greater
        i = t + 1
        while i <= size:
            tree[i] += 1
            i += i & -i
    return crossings


def pair_crossings(inst: BipartiteInstance, u: int, v: int) -> int:
    """Crossings between edges of u and edges of v when u precedes v."""
    if u == v:
        return 0
    pos_u = inst.neighbor_positions[u]
    pos_v = inst.neighbor_positions[v]
    # pairs (a in N(u), b in N(v)) with b strictly left of a
    return sum(bisect_left(pos_v, a) for a in pos_u)


@dataclass(frozen=True)
class CrossingMatrix:
    """Dense pairwise crossing counts c[u][v] for ordered top pairs."""

    ids: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.ids)}

    def cost(self, u: int, v: int) -> int:
        return self.rows[self.index[u]][self.index[v]]


def pairwise_crossings(inst: BipartiteInstance) -> CrossingMatrix:
    ids = inst.top_ids
    rows = tuple(
        tuple(0 if u == v else pair_crossings(inst, u, v) for v in ids) for u in ids
    )
    return CrossingMatrix(ids, rows)


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

_KINDS = ("real", "dummy")


def instance_to_json(inst: BipartiteInstance) -> str:
    payload = {
        "bottom": [{"id": v.id, "kind": v.kind} for v in inst.bottom],
        "top": [{"id": v.id, "kind": v.kind} for v in inst.top],
        "edges": [[b, t] for b, t in sorted(inst.edges)],
        "pi1": list(inst.pi1.order),
    }
    return json.dumps(payload, indent=2) + "\n"


def _node_from_obj(obj: object, layer: Layer) -> Node:
    if not isinstance(obj, dict) or "id" not in obj or "kind" not in obj:
        raise InputError(f"bad {layer} node entry: {obj!r}")
    if obj["kind"] not in _KINDS:
        raise InputError(f"bad node kind: {obj['kind']!r}")
    return Node(int(obj["id"]), layer, obj["kind"])


def instance_from_json(text: str) -> BipartiteInstance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid instance JSON: {exc}") from None
    try:
        bottom = [_node_from_obj(o, "bottom") for o in payload["bottom"]]
        top = [_node_from_obj(o, "top") for o in payload["top"]]
        edges = [(int(b), int(t)) for b, t in payload["edges"]]
        pi1 = [int(v) for v in payload["pi1"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid instance JSON: {exc}") from None
    inst = BipartiteInstance.build(bottom, top, edges, pi1)
    violations = validate_instance(inst)
    if violations:
        raise InputError(f"invalid instance: {'; '.join(violations)}")
    return inst


def load_instance(path: str) -> BipartiteInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_json(fh.read())


def save_instance(inst: BipartiteInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(inst))


def permutation_to_json(pi: Permutation) -> str:
    return json.dumps({"order": list(pi.order)}, indent=2) + "\n"


def permutation_from_json(text: str) -> Permutation:
    try:
        payload = json.loads(text)
        return Permutation(tuple(int(v) for v in payload["order"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid permutation JSON: {exc}") from None


def load_permutation(path: str) -> Permutation:
    with open(path, encoding="utf-8") as fh:
        return permutation_from_json(fh.read())


def save_permutation(pi: Permutation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(permutation_to_json(pi))
