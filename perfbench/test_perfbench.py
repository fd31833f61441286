"""Tests of the benchmark itself: the gate rejects wrong outputs, and a
smoke-size round of every workload passes it.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gate
import workloads
from oscm_gaps.core import Permutation, count_crossings, count_gaps

HERE = Path(__file__).resolve().parent
REFS = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke_solves(name: str, tmp_path: Path) -> list[gate.Solve]:
    return list(workloads.build(name, 0, tmp_path, smoke=True).run_round().solves)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_round_passes_the_gate(name, tmp_path):
    wl = workloads.build(name, 3, tmp_path, smoke=True)
    solves = list(wl.run_round().solves)
    assert len(solves) == wl.ops_per_round
    cache: dict = {}
    assert [gate.check(solve, REFS[name], cache) for solve in solves] == [None] * len(solves)


def test_swapped_permutation_fails(tmp_path):
    solve = smoke_solves("heuristics_large", tmp_path)[0]
    order = list(solve.permutation.order)
    crossings = count_crossings(solve.inst, solve.permutation)
    for i in range(len(order) - 1):
        swapped = order[:i] + [order[i + 1], order[i]] + order[i + 2 :]
        if count_crossings(solve.inst, Permutation(tuple(swapped))) != crossings:
            break
    bad = replace(solve, permutation=Permutation(tuple(swapped)))
    assert "reference" in gate.check(bad, REFS["heuristics_large"], {})


def test_wrong_exact_objective_fails(tmp_path):
    solve = next(s for s in smoke_solves("desk_sweeps", tmp_path) if s.algo == "exact_kgaps")
    refs = REFS["desk_sweeps"]
    assert gate.check(solve, refs, {}) is None
    row = dict(solve.csv_row, crossings=str(int(solve.csv_row["crossings"]) + 1))
    assert "CSV status/crossings/gaps" in gate.check(replace(solve, csv_row=row), refs, {})
    assert "reference" in gate.check(solve, {solve.key: refs[solve.key] + 1}, {})


def test_oracle_catches_a_wrong_reference(tmp_path):
    solve = next(
        s for s in smoke_solves("desk_sweeps", tmp_path)
        if s.algo == "exact_kgaps" and len(s.inst.top) <= 9
    )
    optimum = count_crossings(solve.inst, solve.permutation)
    order = list(solve.permutation.order)
    for i in range(len(order) - 1):  # a worse order with at most k gaps
        swapped = Permutation(tuple(order[:i] + [order[i + 1], order[i]] + order[i + 2 :]))
        worse = count_crossings(solve.inst, swapped)
        if worse > optimum and count_gaps(solve.inst, swapped).count <= solve.k:
            break
    else:
        pytest.fail("no worse feasible neighbour")
    bad = replace(solve, permutation=swapped, csv_row=None)
    assert "oracle optimum" in gate.check(bad, {bad.key: worse}, {})


def test_forced_timeout_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "EXACT_BUDGET_S", 0.0)
    solves = [s for s in smoke_solves("desk_sweeps", tmp_path) if s.algo.startswith("exact_")]
    assert solves and all(s.status == "timeout_incumbent" for s in solves)
    for solve in solves:
        assert "timeout_incumbent" in gate.check(solve, REFS["desk_sweeps"], {})


def run_command(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heuristics_large", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_metric(trace, group):
    proc = run_command(HERE.parent, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[group]}


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run_command(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
