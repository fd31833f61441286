"""Every function the traced benchmark wraps still exists where its
callers look it up and is called there, and the search keeps the
parameters its recorder reads, so a refactor that breaks any of these
fails here and not only under `python -m pytest perfbench`."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import desk_config

from oscm_gaps import bench
from oscm_gaps.cli import cli
from oscm_gaps.exact import solve_branch_and_bound

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _, _ in _targets()]
)
def test_traced_target_is_a_module_global(module, attr):
    assert callable(getattr(importlib.import_module(f"oscm_gaps.{module}"), attr, None))


def test_search_parameters_are_the_recorder_contract():
    # the recorder reads the model as args[0] and the incumbent as
    # args[2] or the keyword `initial`
    params = list(inspect.signature(solve_branch_and_bound).parameters)
    assert params[:3] == ["model", "time_budget_s", "initial"]


def test_every_target_is_called_by_the_desk_configs(tmp_path, monkeypatch):
    # a target kept only as an unused module global would record no span
    targets = [(module, attr) for module, attr, _, _ in _targets()]
    calls = Counter()

    def counted(target, fn):
        def call(*args, **kwargs):
            calls[target] += 1
            return fn(*args, **kwargs)

        return call

    for module, attr in targets:
        owner = importlib.import_module(f"oscm_gaps.{module}")
        monkeypatch.setattr(owner, attr, counted((module, attr), getattr(owner, attr)))
    for script in ("experiment_gap_count", "experiment_sidegaps_vs_2gaps"):
        bench.run_bench(replace(desk_config(script), instances=1), tmp_path / script)
    assert [target for target in targets if not calls[target]] == []


def test_cli_solve_reaches_bench_solve_with_once(tmp_path, monkeypatch):
    # `oscm-gaps solve` times its row through the bench, so the traced
    # `bench.solve_with` span covers the command's solve too
    calls = []
    solve_with = bench.solve_with

    def counted(*args, **kwargs):
        calls.append(args[1].name)
        return solve_with(*args, **kwargs)

    monkeypatch.setattr(bench, "solve_with", counted)
    runner = CliRunner()
    inst_path, perm_path = str(tmp_path / "inst.json"), str(tmp_path / "perm.json")
    assert runner.invoke(cli, ["generate", "--n", "8", "--out", inst_path]).exit_code == 0
    result = runner.invoke(
        cli, ["solve", inst_path, "--algo", "exact_kgaps", "--k", "2", "--out", perm_path]
    )
    assert result.exit_code == 0, result.output
    assert calls == ["exact_kgaps"]
