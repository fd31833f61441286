"""Experiment harness: run an algorithm matrix over seeded random
instances, collect crossing counts/timings as CSV, and plot the sweeps.

`ALGORITHMS` is the one list of algorithms: it maps each name to its
solver, its gap regime and whether it is exact, and every name-dependent
choice here and in the CLI reads it. Heuristic variants are compared
against the exact variant of the same gap regime (same k); exact solvers
honor a per-run time budget and report timeouts as rows rather than
failures. The exhaustive oracle is no entry: it is
`exact.enumerate_optima`, run by `oscm-gaps oracle`.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Literal

from .core import BipartiteInstance, InputError, Permutation, as_int, as_k, count_crossings, count_gaps
from .draw import svg_line_chart
from .exact import (
    DEFAULT_TIME_BUDGET_S,
    SolveResult,
    check_time_budget,
    solve_kgap_exact,
    solve_sidegap_exact,
)
from .gap_placement import solve_kgaps, solve_sidegaps
from .generator import GenParams, generate


@dataclass(frozen=True)
class Algorithm:
    """A registry entry. `solve(inst, k, time_budget_s)` returns
    (permutation, status); `regime` is the gap constraint its output
    meets, and each regime has one exact entry."""

    solve: Callable[[BipartiteInstance, int | None, float], tuple[Permutation, str]]
    regime: Literal["sidegaps", "kgaps"]
    exact: bool


def _proven(result: SolveResult) -> tuple[Permutation, str]:
    return result.permutation, result.status


def _sidegaps(base: str):
    return lambda inst, k, time_budget_s: (solve_sidegaps(inst, base), "ok")


def _kgaps(base: str):
    return lambda inst, k, time_budget_s: (solve_kgaps(inst, base, k), "ok")


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
}


@dataclass(frozen=True)
class AlgoSpec:
    """Algorithm selector; k is required for the kgaps variants (here or
    from a k sweep) and refused for the others. k is stored as `as_k`
    reads it."""

    name: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.name not in ALGORITHMS:
            raise InputError(f"unknown algorithm {self.name!r} (choose from {tuple(ALGORITHMS)})")
        if self.k is not None:
            if not self.needs_k:
                raise InputError(f"{self.name} takes no k (got k={self.k})")
            object.__setattr__(self, "k", as_k(self.k))

    @classmethod
    def parse(cls, text: str) -> "AlgoSpec":
        """Parse "name" or "name:k" (e.g. "median_kgaps:2")."""
        if not isinstance(text, str):
            raise InputError(f"algorithm must be a string like 'median_kgaps:2', got {text!r}")
        name, sep, suffix = text.partition(":")
        return cls(name.strip(), as_int(suffix, f"k of {text!r}") if sep else None)

    @property
    def algorithm(self) -> Algorithm:
        return ALGORITHMS[self.name]

    def with_k(self, k: int) -> "AlgoSpec":
        """This spec with a swept k, if its algorithm takes one and it
        has none of its own."""
        if self.k is None and self.needs_k:
            return AlgoSpec(self.name, k)
        return self

    @property
    def needs_k(self) -> bool:
        return self.algorithm.regime == "kgaps"


def solve_with(
    inst: BipartiteInstance, spec: AlgoSpec, time_budget_s: float = DEFAULT_TIME_BUDGET_S
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
    inst: BipartiteInstance, meta: dict, spec: AlgoSpec, time_budget_s: float
) -> tuple[RunRecord, Permutation]:
    """One timed `solve_with` call and its record; returns (record,
    permutation). `solve_with` is looked up in this module at call time,
    where the traced benchmark wraps it. `meta` holds the instance
    columns, as `instance_meta` builds them. Crossings and gaps are
    recomputed from the permutation, never taken from solver-reported
    numbers."""
    started = perf_counter()
    permutation, status = solve_with(inst, spec, time_budget_s)
    wall_time_ms = (perf_counter() - started) * 1000.0
    record = RunRecord(
        **meta,
        algo=spec.name,
        k=spec.k,
        crossings=count_crossings(inst, permutation),
        gaps=count_gaps(inst, permutation).count,
        wall_time_ms=wall_time_ms,
        status=status,
    )
    return record, permutation


def write_records(fh, records) -> None:
    """Write the CSV header and one row per record to the text file `fh`."""
    writer = csv.writer(fh)
    writer.writerow(RUN_RECORD_COLUMNS)
    writer.writerows(record.as_row() for record in records)


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
        values = payload.get("values")
        if sweep is None:
            if values is not None:
                raise InputError(f"values {values!r} given without a sweep_param")
            values = [None]
        elif not isinstance(values, list) or not values:
            raise InputError(f"values must be a non-empty list, got {values!r}")
        elif sweep == "k":
            values = [as_k(v) for v in values]
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


def _rows(cells, time_budget_s: float):
    """(instance, meta, spec, time budget) per cell, in cell order. Each
    distinct instance is generated once, with its lookups built before
    any row's timer, and released after its last row. Each cell's params
    are hashed once, into a small integer key: a `GenParams` hash goes
    through its `Fraction` fields."""
    number: dict[GenParams, int] = {}
    keys = [number.setdefault(params, len(number)) for _, _, params, _ in cells]
    last = {key: i for i, key in enumerate(keys)}
    live: dict[int, tuple[BipartiteInstance, dict]] = {}
    for i, (key, (_, _, params, spec)) in enumerate(zip(keys, cells)):
        if key not in live:
            inst = generate(params)
            inst.build_lookups()
            live[key] = (inst, instance_meta(params))
        inst, meta = live.pop(key) if last[key] == i else live[key]
        yield inst, meta, spec, time_budget_s


def _run_row(row) -> RunRecord:
    inst, meta, spec, time_budget_s = row
    try:
        return run_record(inst, meta, spec, time_budget_s)[0]
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
    exact_of = {a.regime: name for name, a in ALGORITHMS.items() if a.exact}
    for records in by_cell.values():
        rows = {(r.algo, r.k): r for r in records}
        for record in records:
            reference = rows.get((exact_of[ALGORITHMS[record.algo].regime], record.k))
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
    time_budget_s: float = DEFAULT_TIME_BUDGET_S,
    deterministic_times: bool = False,
) -> tuple[Path, list[Path]]:
    """Run the full matrix; returns (csv path, plot paths).

    With deterministic_times, wall_time_ms is recorded as 0 and time
    ratios are left blank, so repeated runs are byte-identical.
    """
    check_time_budget(time_budget_s)
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    cells = config.cells()  # refuses a bad config before any output exists
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _rows(cells, time_budget_s)
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures  # a serial run never loads the pool's modules
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_row, rows))
    else:
        records = list(map(_run_row, rows))

    by_cell: dict[tuple[int, int], list[RunRecord]] = {}
    for (v_idx, i_idx, _, _), record in zip(cells, records):
        by_cell.setdefault((v_idx, i_idx), []).append(record)
        if deterministic_times and record.wall_time_ms is not None:
            record.wall_time_ms = 0.0
    _attach_ratios(by_cell)

    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        write_records(fh, records)

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

    records_at: dict[tuple[int, str], list[RunRecord]] = {}
    for (v_idx, _), records in by_cell.items():
        for r in records:
            records_at.setdefault((v_idx, r.algo), []).append(r)

    def collect(metric) -> list[tuple[str, list[tuple[float, float, float]]]]:
        series = []
        for label in algo_labels:
            points = []
            for v_idx in range(len(x_values)):
                records = records_at.get((v_idx, label), ())
                values = [y for y in map(metric, records) if y is not None]
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
        text = svg_line_chart(f"{y_label} by {sweep}", sweep, y_label, x_values, series, log_y=log_y)
        path = out_dir / filename
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written
