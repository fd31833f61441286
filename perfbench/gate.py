"""Output gate: every solve of every round is checked outside the timed
region.

A solve passes when its permutation, recounted with `core.count_crossings`
and `core.count_gaps`, respects its gap regime, matches the crossing count
recorded from the seed commit, agrees with what the bench CSV reported,
and (for exact solvers) is a proven optimum. Exact results on
at most `ORACLE_NODE_LIMIT` top nodes are also checked against
`exact.enumerate_optima`.
"""

from __future__ import annotations

from dataclasses import dataclass

from oscm_gaps.core import (
    BipartiteInstance,
    InputError,
    Permutation,
    count_crossings,
    count_gaps,
)
from oscm_gaps.exact import ORACLE_NODE_LIMIT, enumerate_optima

ORACLE_KS = (1, 2, 3, 4, 5)


@dataclass
class Solve:
    """One checked operation: a pipeline run on one instance.

    `key` is "<instance>/<algo>[:k]", the reference key; `csv_row` is the
    bench CSV row of a `run_bench` cell.
    """

    key: str
    inst: BipartiteInstance
    algo: str
    k: int | None
    permutation: Permutation | None
    status: str
    latency_s: float
    csv_row: dict | None = None

    @property
    def instance_key(self) -> str:
        return self.key.partition("/")[0]


def check(solve: Solve, refs: dict[str, int] | None, oracle_cache: dict) -> str | None:
    """None when the solve passes, else why it fails. With `refs` None
    (while recording references) the reference comparison is skipped."""
    exact = solve.algo.startswith("exact_")
    expected_status = "optimal" if exact else "ok"
    if solve.status != expected_status:
        return f"{solve.key}: status {solve.status!r}, expected {expected_status!r}"
    if solve.permutation is None:
        return f"{solve.key}: no permutation"
    try:
        crossings = count_crossings(solve.inst, solve.permutation)
        report = count_gaps(solve.inst, solve.permutation)
    except InputError as exc:  # not a permutation of the top layer
        return f"{solve.key}: {exc}"
    gaps = report.count
    if solve.algo.endswith("_sidegaps") and not report.is_side_gap_permutation:
        return f"{solve.key}: dummies outside the side gaps"
    if solve.algo.endswith("_kgaps") and gaps > solve.k:
        return f"{solve.key}: {gaps} gaps > k={solve.k}"
    row = solve.csv_row
    if row is not None:
        written = (row["status"], row["crossings"], row["gaps"])
        if written != (solve.status, str(crossings), str(gaps)):
            return f"{solve.key}: CSV status/crossings/gaps {written} != {solve.status!r}/{crossings}/{gaps}"
    if refs is not None:
        ref = refs.get(solve.key)
        if ref is None:
            return f"{solve.key}: no reference value"
        if crossings != ref:
            return f"{solve.key}: {crossings} crossings, reference {ref}"
    if exact and len(solve.inst.top) <= ORACLE_NODE_LIMIT:
        optima = oracle_cache.get(solve.instance_key)
        if optima is None:
            optima = enumerate_optima(solve.inst, ks=ORACLE_KS)
            oracle_cache[solve.instance_key] = optima
        mode = "sidegap" if solve.algo == "exact_sidegaps" else ("kgap", solve.k)
        if crossings != optima[mode][1]:
            return f"{solve.key}: {crossings} crossings, oracle optimum {optima[mode][1]}"
    return None
