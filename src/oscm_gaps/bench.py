"""Experiment harness: run an algorithm matrix over seeded random
instances, collect crossing counts/timings as CSV, and plot the sweeps.

Heuristic variants are compared against the matching exact variant (same
gap regime, same k); exact solvers honor a per-run time budget and report
timeouts as rows rather than failures.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from .core import BipartiteInstance, InputError, Permutation, count_crossings, count_gaps
from .draw import svg_line_chart
from .exact import brute_force_oracle, solve_kgap_exact, solve_sidegap_exact
from .gap_placement import solve_kgaps, solve_sidegaps
from .generator import GenParams, generate

ALGO_NAMES = (
    "median_sidegaps",
    "barycenter_sidegaps",
    "exact_sidegaps",
    "median_kgaps",
    "barycenter_kgaps",
    "exact_kgaps",
    "oracle",
)

_KGAP_ALGOS = {"median_kgaps", "barycenter_kgaps", "exact_kgaps"}
_EXACT_ALGOS = {"exact_sidegaps", "exact_kgaps", "oracle"}

EXACT_SIZE_LIMIT = 20  # exact runs above this need allow_large


@dataclass(frozen=True)
class AlgoSpec:
    """Algorithm selector; k is required for the kgaps variants and turns
    the oracle into its bounded-gap mode."""

    name: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.name not in ALGO_NAMES:
            raise InputError(f"unknown algorithm {self.name!r} (choose from {ALGO_NAMES})")
        if self.k is not None and self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if self.k is not None and self.name not in _KGAP_ALGOS | {"oracle"}:
            raise InputError(f"{self.name} does not take k")

    @classmethod
    def parse(cls, text: str) -> "AlgoSpec":
        """Parse "name" or "name:k" (e.g. "median_kgaps:2")."""
        name, _, suffix = text.partition(":")
        k = None
        if suffix:
            try:
                k = int(suffix)
            except ValueError:
                raise InputError(f"bad k suffix in algorithm {text!r}") from None
        return cls(name.strip(), k)

    def with_k(self, k: int) -> "AlgoSpec":
        if self.name in _KGAP_ALGOS and self.k is None:
            return AlgoSpec(self.name, k)
        return self

    @property
    def needs_k(self) -> bool:
        return self.name in _KGAP_ALGOS


def solve_with(
    inst: BipartiteInstance, spec: AlgoSpec, time_budget_s: float = 300.0
) -> tuple[Permutation, str]:
    """Dispatch to the matching pipeline; returns (permutation, status)."""
    name, k = spec.name, spec.k
    if spec.needs_k and k is None:
        raise InputError(f"{name} requires k")
    if name == "median_sidegaps":
        return solve_sidegaps(inst, "median"), "ok"
    if name == "barycenter_sidegaps":
        return solve_sidegaps(inst, "barycenter"), "ok"
    if name == "median_kgaps":
        return solve_kgaps(inst, "median", k), "ok"
    if name == "barycenter_kgaps":
        return solve_kgaps(inst, "barycenter", k), "ok"
    if name == "exact_sidegaps":
        result = solve_sidegap_exact(inst, time_budget_s)
        if result.permutation is None:
            raise InputError("exact solver produced no permutation")
        return result.permutation, result.status
    if name == "exact_kgaps":
        result = solve_kgap_exact(inst, k, time_budget_s)
        if result.permutation is None:
            raise InputError("exact solver produced no permutation")
        return result.permutation, result.status
    if name == "oracle":
        if k is not None:
            perm, _ = brute_force_oracle(inst, "kgap", k=k)
        else:
            perm, _ = brute_force_oracle(inst, "unrestricted")
        return perm, "optimal"
    raise InputError(f"unknown algorithm {name!r}")


RUN_RECORD_COLUMNS = (
    "instance_id",
    "seed",
    "n",
    "f_dm",
    "deg_avg",
    "algo",
    "k",
    "crossings",
    "gaps",
    "wall_time_ms",
    "status",
    "optimal_crossings",
    "ratio_crossings",
    "ratio_time",
)


@dataclass
class RunRecord:
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
        def fmt(value, pattern="{}"):
            return "" if value is None else pattern.format(value)

        return [
            self.instance_id,
            str(self.seed),
            str(self.n),
            self.f_dm,
            self.deg_avg,
            self.algo,
            fmt(self.k),
            fmt(self.crossings),
            fmt(self.gaps),
            fmt(self.wall_time_ms, "{:.3f}"),
            self.status,
            fmt(self.optimal_crossings),
            fmt(self.ratio_crossings, "{:.6f}"),
            fmt(self.ratio_time, "{:.6f}"),
        ]


def _fmt_number(value: Fraction | float | int) -> str:
    return f"{float(value):g}"


def run_record(
    inst: BipartiteInstance,
    params: GenParams,
    spec: AlgoSpec,
    permutation: Permutation,
    status: str,
    wall_time_ms: float,
) -> RunRecord:
    # crossings and gaps are recomputed from the permutation, never taken
    # from solver-reported numbers
    return RunRecord(
        instance_id=f"n{params.n}_f{_fmt_number(params.f_dm)}_d{_fmt_number(params.deg_avg)}_s{params.seed}",
        seed=params.seed,
        n=params.n,
        f_dm=_fmt_number(params.f_dm),
        deg_avg=_fmt_number(params.deg_avg),
        algo=spec.name,
        k=spec.k,
        crossings=count_crossings(inst, permutation),
        gaps=count_gaps(inst, permutation).count,
        wall_time_ms=wall_time_ms,
        status=status,
    )


@dataclass
class BenchConfig:
    """Sweep description: vary one of n, f_dm, deg_avg, k (or nothing)."""

    sweep_param: str | None
    values: list
    instances: int
    base_params: dict
    algos: list[AlgoSpec]

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchConfig":
        sweep = payload.get("sweep_param")
        if sweep is not None and sweep not in ("n", "f_dm", "deg_avg", "k"):
            raise InputError(f"sweep_param must be one of n, f_dm, deg_avg, k; got {sweep!r}")
        values = payload.get("values") or [None]
        if sweep is None:
            values = [None]
        instances = int(payload.get("instances", 20))
        if instances < 1:
            raise InputError("instances must be >= 1")
        base = dict(payload.get("base_params", {}))
        base.setdefault("n", 40)
        base.setdefault("f_dm", "0.2")
        base.setdefault("deg_avg", 3)
        base.setdefault("seed", 1)
        algos_raw = payload.get("algos")
        if not algos_raw:
            raise InputError("config lists no algorithms")
        algos = [a if isinstance(a, AlgoSpec) else AlgoSpec.parse(a) for a in algos_raw]
        return cls(sweep, list(values), instances, base, algos)

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
                "sweep_param": None,
                "values": None,
                "instances": 20,
                "base_params": {"n": 40, "f_dm": "0.2", "deg_avg": 3, "seed": 1},
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
        base_seed = int(self.base_params.get("seed", 1))
        for v_idx, value in enumerate(self.values):
            params_kw = {
                "n": self.base_params["n"],
                "f_dm": self.base_params["f_dm"],
                "deg_avg": self.base_params["deg_avg"],
            }
            k_value = None
            if self.sweep_param == "k":
                k_value = int(value)
            elif self.sweep_param is not None:
                params_kw[self.sweep_param] = value
            for i_idx in range(self.instances):
                params = GenParams(seed=base_seed + i_idx, **params_kw)
                for spec in self.algos:
                    resolved = spec.with_k(k_value) if k_value is not None else spec
                    if resolved.needs_k and resolved.k is None:
                        raise InputError(
                            f"{resolved.name} needs k: give it as name:k or sweep k"
                        )
                    out.append((v_idx, i_idx, params, resolved))
        return out


def _run_cell(cell) -> tuple[int, int, int | None, RunRecord]:
    v_idx, i_idx, params, spec, time_budget_s = cell
    inst = generate(params)
    try:
        started = perf_counter()
        permutation, status = solve_with(inst, spec, time_budget_s)
        elapsed_ms = (perf_counter() - started) * 1000.0
        record = run_record(inst, params, spec, permutation, status, elapsed_ms)
    except Exception as exc:  # per-row fault isolation: the matrix keeps running
        record = RunRecord(
            instance_id=f"n{params.n}_f{_fmt_number(params.f_dm)}_d{_fmt_number(params.deg_avg)}_s{params.seed}",
            seed=params.seed,
            n=params.n,
            f_dm=_fmt_number(params.f_dm),
            deg_avg=_fmt_number(params.deg_avg),
            algo=spec.name,
            k=spec.k,
            crossings=None,
            gaps=None,
            wall_time_ms=None,
            status=f"error: {exc}",
        )
    return v_idx, i_idx, spec.k, record


def _attach_ratios(groups: dict, records: list[tuple[tuple, RunRecord]]) -> None:
    """Fill optimal/ratio columns from the matching exact row in the same
    (sweep value, instance) group, if that row proved its optimum; a
    timed-out incumbent is no reference."""
    for key, record in records:
        v_idx, i_idx, _ = key
        group = groups[(v_idx, i_idx)]
        reference = None
        if record.algo.endswith("_sidegaps"):
            reference = group.get(("exact_sidegaps", None))
        elif record.algo.endswith("_kgaps"):
            reference = group.get(("exact_kgaps", record.k))
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
        if spec.name in ("exact_sidegaps", "exact_kgaps") and params.n > EXACT_SIZE_LIMIT:
            if not allow_large:
                raise InputError(
                    f"exact run at n={params.n} exceeds the n<={EXACT_SIZE_LIMIT} default; "
                    "pass allow_large to accept possible timeouts"
                )

    work = [(v, i, p, s, time_budget_s) for v, i, p, s in cells]
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_run_cell, work))
    else:
        raw = [_run_cell(cell) for cell in work]

    groups: dict[tuple[int, int], dict] = {}
    keyed: list[tuple[tuple, RunRecord]] = []
    for v_idx, i_idx, k, record in raw:
        groups.setdefault((v_idx, i_idx), {})[(record.algo, k)] = record
        keyed.append(((v_idx, i_idx, record.algo), record))
    if deterministic_times:
        for _, record in keyed:
            if record.wall_time_ms is not None:
                record.wall_time_ms = 0.0
    _attach_ratios(groups, keyed)

    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_RECORD_COLUMNS)
        for _, record in keyed:
            writer.writerow(record.as_row())

    plot_paths = _write_plots(config, keyed, out_dir)
    return csv_path, plot_paths


def _series_stats(values: list[float]) -> tuple[float, float, float]:
    return (math.fsum(values) / len(values), min(values), max(values))


def _write_plots(
    config: BenchConfig, keyed: list[tuple[tuple, RunRecord]], out_dir: Path
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
                    for (vi, _, algo), r in keyed
                    if algo == label and vi == v_idx and metric(r) is not None
                ]
                if not values:
                    break
                points.append(_series_stats(values))
            if len(points) == len(x_values):
                series.append((label, points))
        return series

    include_exact = any(spec.name in _EXACT_ALGOS for spec in config.algos)
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
