"""The experiment scripts run their sweeps to completion and refuse bad
arguments with exit code 2, as the CLI does."""

from __future__ import annotations

import csv
import sys

import pytest

from conftest import load_script as load

NAMES = ["experiment_gap_count", "experiment_sidegaps_vs_2gaps"]


@pytest.mark.parametrize("name", NAMES)
def test_desk_scale_run_writes_proven_ratios(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, "--instances", "1", "--out", str(tmp_path)])
    assert load(name).main() == 0
    assert f"wrote {tmp_path / 'results.csv'}" in capsys.readouterr().out.splitlines()
    with open(tmp_path / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        if row["algo"].startswith("exact_"):
            assert row["status"] == "optimal", row
        else:
            assert float(row["ratio_crossings"]) >= 1.0, row


@pytest.mark.parametrize("name", NAMES)
def test_integral_float_instances_and_seed(name, tmp_path, monkeypatch):
    # read by BenchConfig and GenParams, as a config's values are
    argv = [name, "--instances", "1.0", "--seed", "2.0", "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    script = load(name)
    assert script.main() == 0
    with open(tmp_path / "results.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    sweep = script.config(False)
    assert len(rows) == len(sweep["values"]) * len(sweep["algos"])  # one instance
    assert {row["seed"] for row in rows} == {"2"}


@pytest.mark.parametrize("name", NAMES)
def test_no_instances_is_an_input_error(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, "--instances", "0", "--out", str(tmp_path)])
    assert load(name).main() == 2
    assert "input error: instances must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("name", NAMES)
def test_jobs_below_one_exit_2(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, "--jobs", "0", "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exit_info:
        load(name).main()
    assert exit_info.value.code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("budget", ["nan", "-1"])
@pytest.mark.parametrize("name", NAMES)
def test_bad_time_budget_exit_2(name, budget, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = [name, "--instances", "1", "--time-budget-s", budget, "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        load(name).main()
    assert exit_info.value.code == 2
    assert "--time-budget-s must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", NAMES)
def test_out_on_a_plain_file_exit_2(name, tmp_path, monkeypatch, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    monkeypatch.setattr(sys, "argv", [name, "--instances", "1", "--out", str(out)])
    assert load(name).main() == 2
    assert "input error: " in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"
