"""Experiment harness: run an algorithm matrix over seeded random
instances, collect crossing counts/timings as CSV, and plot the sweeps.

`ALGORITHMS` is the one list of algorithms: it maps each name to its
solver, its gap regime and whether it is exact, and every name-dependent
choice here and in the CLI reads it. Heuristic variants are compared
against the exact variant of the same gap regime (same k); exact solvers
honor a per-run time budget and report timeouts as rows rather than
failures.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Literal

from .core import BipartiteInstance, InputError, Permutation, count_crossings, count_gaps
from .draw import svg_line_chart
from .exact import SolveResult, brute_force_oracle, solve_kgap_exact, solve_sidegap_exact
from .gap_placement import solve_kgaps, solve_sidegaps
from .generator import GenParams, as_int, generate


@dataclass(frozen=True)
class Algorithm:
    """A registry entry. `solve(inst, k, time_budget_s)` returns
    (permutation, status); `regime` is the gap constraint its output
    meets, None for the unrestricted oracle, which a k bounds to k gaps."""

    solve: Callable[[BipartiteInstance, int | None, float], tuple[Permutation, str]]
    regime: Literal["sidegaps", "kgaps"] | None
    exact: bool


def _proven(result: SolveResult) -> tuple[Permutation, str]:
    if result.permutation is None:
        raise InputError("exact solver produced no permutation")
    return result.permutation, result.status


def _sidegaps(base: str):
    return lambda inst, k, time_budget_s: (solve_sidegaps(inst, base), "ok")


def _kgaps(base: str):
    return lambda inst, k, time_budget_s: (solve_kgaps(inst, base, k), "ok")


def _oracle(inst: BipartiteInstance, k: int | None, time_budget_s: float):
    permutation, _ = brute_force_oracle(inst, "unrestricted" if k is None else "kgap", k=k)
    return permutation, "optimal"


ALGORITHMS: dict[str, Algorithm] = {
    "median_sidegaps": Algorithm(_sidegaps("median"), "sidegaps", False),
    "barycenter_sidegaps": Algorithm(_sidegaps("barycenter"), "sidegaps", False),
    "exact_sidegaps": Algorithm(
        lambda inst, k, time_budget_s: _proven(solve_sidegap_exact(inst, time_budget_s)),
        "sidegaps",
        True,
    ),
    "median_kgaps": Algorithm(_kgaps("median"), "kgaps", False),
    "barycenter_kgaps": Algorithm(_kgaps("barycenter"), "kgaps", False),
    "exact_kgaps": Algorithm(
        lambda inst, k, time_budget_s: _proven(solve_kgap_exact(inst, k, time_budget_s)),
        "kgaps",
        True,
    ),
    "oracle": Algorithm(_oracle, None, True),
}

EXACT_SIZE_LIMIT = 20  # exact runs above this need allow_large


@dataclass(frozen=True)
class AlgoSpec:
    """Algorithm selector; k is required for the kgaps variants and turns
    the oracle into its bounded-gap mode."""

    name: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.name not in ALGORITHMS:
            raise InputError(f"unknown algorithm {self.name!r} (choose from {tuple(ALGORITHMS)})")
        if self.k is not None and self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.k is not None and self.algorithm.regime == "sidegaps":
            raise InputError(f"{self.name} does not take k")

    @classmethod
    def parse(cls, text: str) -> "AlgoSpec":
        """Parse "name" or "name:k" (e.g. "median_kgaps:2")."""
        if not isinstance(text, str):
            raise InputError(f"algorithm must be a string like 'median_kgaps:2', got {text!r}")
        name, _, suffix = text.partition(":")
        k = None
        if suffix:
            try:
                k = int(suffix)
            except ValueError:
                raise InputError(f"bad k suffix in algorithm {text!r}") from None
        return cls(name.strip(), k)

    @property
    def algorithm(self) -> Algorithm:
        return ALGORITHMS[self.name]

    def with_k(self, k: int) -> "AlgoSpec":
        if self.needs_k and self.k is None:
            return AlgoSpec(self.name, k)
        return self

    @property
    def needs_k(self) -> bool:
        return self.algorithm.regime == "kgaps"


def solve_with(
    inst: BipartiteInstance, spec: AlgoSpec, time_budget_s: float = 300.0
) -> tuple[Permutation, str]:
    """Run the registry entry of `spec`; returns (permutation, status)."""
    if spec.needs_k and spec.k is None:
        raise InputError(f"{spec.name} requires k")
    return spec.algorithm.solve(inst, spec.k, time_budget_s)


@dataclass
class RunRecord:
    """One CSV row; the fields, in order, are the CSV columns."""

    instance_id: str
    seed: int
    n: int
    f_dm: str
    deg_avg: str
    algo: str
    k: int | None
    crossings: int | None
    gaps: int | None
    wall_time_ms: float | None
    status: str
    optimal_crossings: int | None = None
    ratio_crossings: float | None = None
    ratio_time: float | None = None

    def as_row(self) -> list[str]:
        row = []
        for name in RUN_RECORD_COLUMNS:
            value = getattr(self, name)
            row.append("" if value is None else _COLUMN_FORMATS.get(name, "{}").format(value))
        return row


RUN_RECORD_COLUMNS = tuple(f.name for f in fields(RunRecord))
_COLUMN_FORMATS = {"wall_time_ms": "{:.3f}", "ratio_crossings": "{:.6f}", "ratio_time": "{:.6f}"}


def _fmt_number(value: Fraction | float | int) -> str:
    return f"{float(value):g}"


def instance_meta(params: GenParams) -> dict:
    """The instance columns (instance_id, seed, n, f_dm, deg_avg) of a
    generated instance's run records."""
    f_dm, deg_avg = _fmt_number(params.f_dm), _fmt_number(params.deg_avg)
    return {
        "instance_id": f"n{params.n}_f{f_dm}_d{deg_avg}_s{params.seed}",
        "seed": params.seed,
        "n": params.n,
        "f_dm": f_dm,
        "deg_avg": deg_avg,
    }


def run_record(
    inst: BipartiteInstance,
    meta: dict,
    spec: AlgoSpec,
    permutation: Permutation,
    status: str,
    wall_time_ms: float,
) -> RunRecord:
    """`meta` holds the instance columns, as `instance_meta` builds them.
    Crossings and gaps are recomputed from the permutation, never taken
    from solver-reported numbers."""
    return RunRecord(
        **meta,
        algo=spec.name,
        k=spec.k,
        crossings=count_crossings(inst, permutation),
        gaps=count_gaps(inst, permutation).count,
        wall_time_ms=wall_time_ms,
        status=status,
    )


# a sweep varies one generator parameter (the seed excepted) or the gap budget k
_SWEEPABLE = tuple(f.name for f in fields(GenParams) if f.name != "seed") + ("k",)
_CONFIG_KEYS = ("sweep_param", "values", "instances", "base_params", "algos")
_BASE_DEFAULTS = {"n": 40, "f_dm": "0.2", "deg_avg": 3, "seed": 1}


def _refuse_unknown_keys(payload: dict, known, where: str) -> None:
    for key in payload:
        if key not in known:
            raise InputError(f"unknown {where} key {key!r} (choose from {', '.join(known)})")


@dataclass
class BenchConfig:
    """Sweep description: around the generator parameters `base`, vary
    one of `_SWEEPABLE` or nothing; instance i of a cell uses seed
    `base.seed + i`."""

    sweep_param: str | None
    values: list
    instances: int
    base: GenParams
    algos: list[AlgoSpec]

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchConfig":
        if not isinstance(payload, dict):
            raise InputError(f"bench config must be a JSON object, got {type(payload).__name__}")
        _refuse_unknown_keys(payload, _CONFIG_KEYS, "bench config")
        sweep = payload.get("sweep_param")
        if sweep is not None and sweep not in _SWEEPABLE:
            raise InputError(f"sweep_param must be one of {', '.join(_SWEEPABLE)}; got {sweep!r}")
        values = payload.get("values") or [None]
        if sweep is None:
            values = [None]
        elif not isinstance(values, list):
            raise InputError(f"values must be a list, got {values!r}")
        elif sweep == "k":
            values = [as_int(v, "k") for v in values]
            if min(values) < 1:
                raise InputError(f"k must be >= 1, got {min(values)}")
        instances = as_int(payload.get("instances", 20), "instances")
        if instances < 1:
            raise InputError("instances must be >= 1")
        base = payload.get("base_params", {})
        if not isinstance(base, dict):
            raise InputError(f"base_params must be an object, got {base!r}")
        _refuse_unknown_keys(base, [f.name for f in fields(GenParams)], "base_params")
        algos_raw = payload.get("algos")
        if not algos_raw:
            raise InputError("config lists no algorithms")
        if not isinstance(algos_raw, list):
            raise InputError(f"algos must be a list, got {algos_raw!r}")
        algos = [a if isinstance(a, AlgoSpec) else AlgoSpec.parse(a) for a in algos_raw]
        return cls(sweep, list(values), instances, GenParams(**{**_BASE_DEFAULTS, **base}), algos)

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid bench config: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def default(cls) -> "BenchConfig":
        """20 instances at 40 nodes per layer, dummy fraction 0.2, average
        degree 3, heuristic matrix with k=2."""
        return cls.from_dict(
            {
                "instances": 20,
                "base_params": _BASE_DEFAULTS,
                "algos": [
                    "median_sidegaps",
                    "barycenter_sidegaps",
                    "median_kgaps:2",
                    "barycenter_kgaps:2",
                ],
            }
        )

    def cells(self) -> list[tuple[int, int, GenParams, AlgoSpec]]:
        """(value_index, instance_index, params, resolved algo) per run."""
        out = []
        for v_idx, value in enumerate(self.values):
            swept = {} if self.sweep_param in (None, "k") else {self.sweep_param: value}
            for i_idx in range(self.instances):
                params = replace(self.base, seed=self.base.seed + i_idx, **swept)
                for spec in self.algos:
                    resolved = spec.with_k(value) if self.sweep_param == "k" else spec
                    if resolved.needs_k and resolved.k is None:
                        raise InputError(
                            f"{resolved.name} needs k: give it as name:k or sweep k"
                        )
                    out.append((v_idx, i_idx, params, resolved))
        return out


def _run_cell(cell) -> RunRecord:
    params, spec, time_budget_s = cell
    inst = generate(params)
    meta = instance_meta(params)
    try:
        started = perf_counter()
        permutation, status = solve_with(inst, spec, time_budget_s)
        elapsed_ms = (perf_counter() - started) * 1000.0
        return run_record(inst, meta, spec, permutation, status, elapsed_ms)
    except Exception as exc:  # per-row fault isolation: the matrix keeps running
        return RunRecord(
            **meta,
            algo=spec.name,
            k=spec.k,
            crossings=None,
            gaps=None,
            wall_time_ms=None,
            status=f"error: {exc}",
        )


def _attach_ratios(by_cell: dict[tuple[int, int], list[RunRecord]]) -> None:
    """Fill optimal/ratio columns from the row of the exact algorithm of
    the same gap regime and k in the same (sweep value, instance) cell,
    if that row proved its optimum; a timed-out incumbent is no reference."""
    exact_of = {a.regime: name for name, a in ALGORITHMS.items() if a.exact and a.regime}
    for records in by_cell.values():
        rows = {(r.algo, r.k): r for r in records}
        for record in records:
            reference = rows.get((exact_of.get(ALGORITHMS[record.algo].regime), record.k))
            if reference is None or reference.status != "optimal" or record.crossings is None:
                continue
            record.optimal_crossings = reference.crossings
            if reference.crossings > 0:
                record.ratio_crossings = record.crossings / reference.crossings
            elif record.crossings == 0:
                record.ratio_crossings = 1.0
            if (
                record.wall_time_ms is not None
                and reference.wall_time_ms
                and reference.wall_time_ms > 0
            ):
                record.ratio_time = record.wall_time_ms / reference.wall_time_ms


def run_bench(
    config: BenchConfig,
    out_dir: str | Path,
    jobs: int = 1,
    time_budget_s: float = 300.0,
    deterministic_times: bool = False,
    allow_large: bool = False,
) -> tuple[Path, list[Path]]:
    """Run the full matrix; returns (csv path, plot paths).

    With deterministic_times, wall_time_ms is recorded as 0 and time
    ratios are left blank, so repeated runs are byte-identical.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = config.cells()

    for _, _, params, spec in cells:
        # the oracle refuses large instances itself; the branch and bound
        # would only run into its time budget
        searched = spec.algorithm.exact and spec.algorithm.regime is not None
        if searched and params.n > EXACT_SIZE_LIMIT and not allow_large:
            raise InputError(
                f"exact run at n={params.n} exceeds the n<={EXACT_SIZE_LIMIT} default; "
                "pass allow_large to accept possible timeouts"
            )

    work = [(params, spec, time_budget_s) for _, _, params, spec in cells]
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_cell, work))
    else:
        records = [_run_cell(cell) for cell in work]

    by_cell: dict[tuple[int, int], list[RunRecord]] = {}
    for (v_idx, i_idx, _, _), record in zip(cells, records):
        by_cell.setdefault((v_idx, i_idx), []).append(record)
        if deterministic_times and record.wall_time_ms is not None:
            record.wall_time_ms = 0.0
    _attach_ratios(by_cell)

    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_RECORD_COLUMNS)
        for record in records:
            writer.writerow(record.as_row())

    plot_paths = _write_plots(config, by_cell, out_dir)
    return csv_path, plot_paths


def _series_stats(values: list[float]) -> tuple[float, float, float]:
    return (math.fsum(values) / len(values), min(values), max(values))


def _write_plots(
    config: BenchConfig, by_cell: dict[tuple[int, int], list[RunRecord]], out_dir: Path
) -> list[Path]:
    sweep = config.sweep_param or "run"
    if config.sweep_param is None:
        x_values = [0.0]
    else:
        x_values = [float(Fraction(str(v))) for v in config.values]

    algo_labels: list[str] = []
    for spec in config.algos:
        if spec.name not in algo_labels:
            algo_labels.append(spec.name)

    def collect(metric) -> list[tuple[str, list[tuple[float, float, float]]]]:
        series = []
        for label in algo_labels:
            points = []
            for v_idx in range(len(x_values)):
                values = [
                    metric(r)
                    for (vi, _), records in by_cell.items()
                    if vi == v_idx
                    for r in records
                    if r.algo == label and metric(r) is not None
                ]
                if not values:
                    break
                points.append(_series_stats(values))
            if len(points) == len(x_values):
                series.append((label, points))
        return series

    include_exact = any(spec.algorithm.exact for spec in config.algos)
    charts = [
        ("crossings.svg", "crossings", lambda r: r.crossings, False),
        ("time_s.svg", "time [s]", lambda r: None if r.wall_time_ms is None else r.wall_time_ms / 1000.0, include_exact),
        ("ratio_crossings.svg", "crossing ratio vs exact", lambda r: r.ratio_crossings, False),
        ("ratio_time_s.svg", "time ratio vs exact", lambda r: r.ratio_time, include_exact),
    ]
    written = []
    for filename, y_label, metric, log_y in charts:
        series = collect(metric)
        if not series:
            continue
        try:
            text = svg_line_chart(
                f"{y_label} by {sweep}", sweep, y_label, x_values, series, log_y=log_y
            )
        except InputError:
            continue
        path = out_dir / filename
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written
