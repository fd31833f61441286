"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 solve timed out (incumbent was
still written), 4 internal error.
"""

from __future__ import annotations

import csv
import io
import sys
from functools import wraps
from pathlib import Path
from time import perf_counter

import click

from .bench import (
    ALGORITHMS,
    RUN_RECORD_COLUMNS,
    AlgoSpec,
    BenchConfig,
    run_bench,
    run_record,
    solve_with,
)
from .core import (
    InputError,
    count_crossings,
    count_gaps,
    load_instance,
    load_permutation,
    save_instance,
    save_permutation,
)
from .draw import render_two_layer_svg
from .exact import brute_force_oracle
from .generator import GenParams, generate

EXIT_INPUT_ERROR = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL_ERROR = 4


def _handle_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(EXIT_INPUT_ERROR)
        except click.ClickException:
            raise
        except OSError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(EXIT_INPUT_ERROR)
        except Exception as exc:  # pragma: no cover - defensive
            click.echo(f"internal error: {exc}", err=True)
            sys.exit(EXIT_INTERNAL_ERROR)

    return wrapper


@click.group()
@click.version_option(package_name="oscm-gaps")
def cli() -> None:
    """Crossing minimization for two-layer drawings under gap constraints."""


@cli.command("generate")
@click.option("--n", type=int, required=True, help="Nodes per layer.")
@click.option("--f-dm", default="0.2", show_default=True, help="Dummy node fraction.")
@click.option("--deg-avg", default="3", show_default=True, help="Average real-node degree.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def generate_cmd(n, f_dm, deg_avg, seed, out):
    """Generate a seeded random instance and write it as JSON."""
    params = GenParams(n=n, f_dm=f_dm, deg_avg=deg_avg, seed=seed)
    inst = generate(params)
    save_instance(inst, out)
    click.echo(
        f"wrote {out}: {len(inst.bottom)} bottom + {len(inst.top)} top nodes, "
        f"{len(inst.dummy_top_ids)} top dummies, {inst.m} edges"
    )


def _record_csv(record) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(RUN_RECORD_COLUMNS)
    writer.writerow(record.as_row())
    return buffer.getvalue().rstrip("\n")


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--algo", type=click.Choice(list(ALGORITHMS)), required=True)
@click.option("--k", type=int, default=None, help="Gap budget for kgaps variants.")
@click.option("--time-budget-s", type=float, default=300.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Permutation JSON path.")
@_handle_errors
def solve(instance, algo, k, time_budget_s, out):
    """Solve one instance with one algorithm; prints the run record."""
    inst = load_instance(instance)
    spec = AlgoSpec(algo, k)
    started = perf_counter()
    permutation, status = solve_with(inst, spec, time_budget_s)
    elapsed_ms = (perf_counter() - started) * 1000.0
    save_permutation(permutation, out)

    # a loaded instance has no generator parameters: its columns are
    # measured, and its seed is 0
    reals = inst.real_top_ids
    f_dm = len(inst.dummy_top_ids) / len(inst.top) if inst.top else 0
    deg_avg = sum(map(inst.degree, reals)) / len(reals) if reals else 0
    meta = {
        "instance_id": Path(instance).stem,
        "seed": 0,
        "n": max(len(inst.top), len(inst.bottom)),
        "f_dm": f"{f_dm:g}",
        "deg_avg": f"{deg_avg:g}",
    }
    record = run_record(inst, meta, spec, permutation, status, elapsed_ms)
    click.echo(_record_csv(record))
    if status == "timeout_incumbent":
        sys.exit(EXIT_TIMEOUT)


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--mode",
    type=click.Choice(["unrestricted", "sidegap", "kgap"]),
    default="unrestricted",
    show_default=True,
)
@click.option("--k", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Permutation JSON path.")
@_handle_errors
def oracle(instance, mode, k, out):
    """Exhaustive optimum for small instances (at most 9 top nodes)."""
    inst = load_instance(instance)
    permutation, value = brute_force_oracle(inst, mode, k=k)
    if out:
        save_permutation(permutation, out)
    suffix = f" k={k}" if mode == "kgap" else ""
    click.echo(f"mode={mode}{suffix} crossings={value} order={list(permutation.order)}")


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--time-budget-s", type=float, default=300.0, show_default=True)
@click.option(
    "--deterministic-times",
    is_flag=True,
    help="Record all wall times as 0 so outputs are byte-reproducible.",
)
@click.option(
    "--allow-large",
    is_flag=True,
    help="Permit exact solvers above the n<=20 default (timeouts become likely).",
)
@_handle_errors
def bench(config_path, out_dir, jobs, time_budget_s, deterministic_times, allow_large):
    """Run a benchmark matrix; writes results.csv and SVG plots."""
    if config_path:
        config = BenchConfig.from_json(Path(config_path).read_text(encoding="utf-8"))
    else:
        config = BenchConfig.default()
    csv_path, plots = run_bench(
        config,
        out_dir,
        jobs=jobs,
        time_budget_s=time_budget_s,
        deterministic_times=deterministic_times,
        allow_large=allow_large,
    )
    rows = len(config.cells())
    click.echo(f"wrote {csv_path} ({rows} rows)")
    for path in plots:
        click.echo(f"wrote {path}")


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.argument("permutation", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_handle_errors
def draw(instance, permutation, out):
    """Render a two-layer drawing of a solved instance as SVG."""
    inst = load_instance(instance)
    pi2 = load_permutation(permutation)
    Path(out).write_text(render_two_layer_svg(inst, pi2), encoding="utf-8")
    click.echo(
        f"wrote {out} (crossings={count_crossings(inst, pi2)} gaps={count_gaps(inst, pi2).count})"
    )


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
