"""Seeded random two-layer instance generation.

Instances are a deterministic function of the parameters: the PRNG is
splitmix64 (fixed published constants), so fixtures reproduce bit-for-bit
across platforms and implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import BipartiteInstance, InputError, Node

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 generator: state += 0x9E3779B97F4A7C15, output mixed
    with the Stafford mix13 multipliers."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection (no modulo bias)."""
        if n <= 0:
            raise InputError(f"randrange bound must be positive, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def _as_fraction(value: int | float | str | Fraction, name: str) -> Fraction:
    # Floats go through str() so "0.3" means 3/10, not the nearest binary
    # float; n_dm = floor(n * f_dm) must match the decimal the user typed.
    try:
        return Fraction(str(value) if isinstance(value, float) else value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {name}: {value!r} ({exc})") from None


def as_int(value: int | float | str, name: str) -> int:
    """`value` as an integer; integral floats and numeric strings pass,
    anything else (2.7, "abc", None) is an input error."""
    number = _as_fraction(value, name)
    if number.denominator != 1:
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class GenParams:
    """Generator parameters: layer size, dummy fraction, average real
    degree, and the 64-bit seed."""

    n: int
    f_dm: Fraction
    deg_avg: Fraction
    seed: int

    def __init__(
        self,
        n: int,
        f_dm: int | float | str | Fraction,
        deg_avg: int | float | str | Fraction,
        seed: int,
    ) -> None:
        object.__setattr__(self, "n", as_int(n, "n"))
        object.__setattr__(self, "f_dm", _as_fraction(f_dm, "f_dm"))
        object.__setattr__(self, "deg_avg", _as_fraction(deg_avg, "deg_avg"))
        object.__setattr__(self, "seed", as_int(seed, "seed"))
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.f_dm <= 1:
            raise InputError(f"f_dm must be in [0, 1], got {self.f_dm}")
        if self.deg_avg <= 0:
            raise InputError(f"deg_avg must be positive, got {self.deg_avg}")

    @property
    def n_dummy(self) -> int:
        return math.floor(self.n * self.f_dm)

    @property
    def n_real(self) -> int:
        return self.n - self.n_dummy


def generate(params: GenParams) -> BipartiteInstance:
    """Generate a random two-layer instance.

    Ids: bottom reals 0..n_r-1, bottom dummies n_r..n-1, top reals
    n..n+n_r-1, top dummies n+n_r..2n-1. Real-real edges are sampled
    without replacement from the full pair space by partial shuffle; each
    dummy then gets one edge to a uniformly random real node of the
    opposite layer (no target exists when n_r = 0, leaving all-dummy
    layers edgeless). pi1 is the bottom creation order.
    """
    n, n_dm, n_r = params.n, params.n_dummy, params.n_real
    rng = SplitMix64(params.seed)

    bottom = [Node(i, "bottom", "real") for i in range(n_r)]
    bottom += [Node(n_r + i, "bottom", "dummy") for i in range(n_dm)]
    top = [Node(n + i, "top", "real") for i in range(n_r)]
    top += [Node(n + n_r + i, "top", "dummy") for i in range(n_dm)]

    edges: list[tuple[int, int]] = []
    n_edges = math.floor(n_r * min(Fraction(n_r), params.deg_avg))
    if n_edges:
        pair_space = list(range(n_r * n_r))
        for i in range(n_edges):
            j = i + rng.randrange(n_r * n_r - i)
            pair_space[i], pair_space[j] = pair_space[j], pair_space[i]
        for idx in pair_space[:n_edges]:
            b, t = divmod(idx, n_r)
            edges.append((b, n + t))

    if n_r:
        for i in range(n_dm):  # bottom dummies -> random real top node
            edges.append((n_r + i, n + rng.randrange(n_r)))
        for i in range(n_dm):  # top dummies -> random real bottom node
            edges.append((rng.randrange(n_r), n + n_r + i))

    return BipartiteInstance.build(bottom, top, edges)
