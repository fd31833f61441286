"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 solve timed out (incumbent was
still written), 4 internal error.
"""

from __future__ import annotations

import sys
from functools import wraps
from pathlib import Path

import click

from .bench import ALGORITHMS, AlgoSpec, BenchConfig, run_bench, run_record, write_records
from .core import (
    InputError,
    Permutation,
    as_k,
    count_crossings,
    count_gaps,
    load_instance,
    load_permutation,
    read_input,
    save_instance,
    save_permutation,
)
from .draw import render_two_layer_svg
from .exact import DEFAULT_TIME_BUDGET_S, check_time_budget, enumerate_optima
from .generator import GenParams, generate

EXIT_INPUT_ERROR = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL_ERROR = 4


def _handle_errors(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (InputError, OSError) as exc:
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
@click.option("--n", required=True, help="Nodes per layer.")
@click.option("--f-dm", default="0.2", show_default=True, help="Dummy node fraction.")
@click.option("--deg-avg", default="3", show_default=True, help="Average real-node degree.")
@click.option("--seed", default="0", show_default=True)
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


def _check_time_budget(ctx, param, value: float) -> float:
    # NaN passes FloatRange(min=0) and would switch the deadline off
    try:
        check_time_budget(value)
    except InputError as exc:
        raise click.BadParameter(str(exc)) from None
    return value


_time_budget_option = click.option(
    "--time-budget-s",
    type=float,
    default=DEFAULT_TIME_BUDGET_S,
    show_default=True,
    callback=_check_time_budget,
    help="Per exact solve; 0 returns the incumbent unsearched, inf sets no limit.",
)


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--algo", type=click.Choice(list(ALGORITHMS)), required=True)
@click.option("--k", default=None, help="Gap budget for kgaps variants.")
@_time_budget_option
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Permutation JSON path.")
@_handle_errors
def solve(instance, algo, k, time_budget_s, out):
    """Solve one instance with one algorithm; prints the run record."""
    inst = load_instance(instance)
    inst.build_lookups()  # as bench does, so the timer holds the solve alone
    # a loaded instance has no generator parameters: its columns are
    # measured, and its seed is 0
    reals = inst.real_top_ids
    f_dm = len(inst.dummy_top_ids) / len(inst.top) if inst.top else 0
    deg_avg = sum(len(inst.neighbor_positions[v]) for v in reals) / len(reals) if reals else 0
    meta = {
        "instance_id": Path(instance).stem,
        "seed": 0,
        "n": max(len(inst.top), len(inst.bottom)),
        "f_dm": f"{f_dm:g}",
        "deg_avg": f"{deg_avg:g}",
    }
    record, permutation = run_record(inst, meta, AlgoSpec(algo, k), time_budget_s)
    save_permutation(permutation, out)
    write_records(sys.stdout, [record])
    if record.status == "timeout_incumbent":
        sys.exit(EXIT_TIMEOUT)


@cli.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--mode",
    type=click.Choice(["unrestricted", "sidegap", "kgap"]),
    default="unrestricted",
    show_default=True,
)
@click.option("--k", default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Permutation JSON path.")
@_handle_errors
def oracle(instance, mode, k, out):
    """Exhaustive optimum for small instances (at most 9 top nodes)."""
    if mode == "kgap":
        if k is None:
            raise InputError("kgap mode requires k")
        k = as_k(k)
    elif k is not None:
        raise InputError(f"{mode} mode takes no k (got k={k})")
    inst = load_instance(instance)
    order, value = enumerate_optima(inst, (k,) if k else ())[("kgap", k) if k else mode]
    if out:
        save_permutation(Permutation(order), out)
    suffix = f" k={k}" if k else ""
    click.echo(f"mode={mode}{suffix} crossings={value} order={list(order)}")


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@_time_budget_option
@click.option(
    "--deterministic-times",
    is_flag=True,
    help="Record all wall times as 0 so outputs are byte-reproducible.",
)
@_handle_errors
def bench(config_path, out_dir, jobs, time_budget_s, deterministic_times):
    """Run a benchmark matrix; writes results.csv and SVG plots."""
    if config_path:
        config = BenchConfig.from_json(read_input(config_path))
    else:
        config = BenchConfig.default()
    csv_path, plots = run_bench(
        config,
        out_dir,
        jobs=jobs,
        time_budget_s=time_budget_s,
        deterministic_times=deterministic_times,
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
