"""The experiment scripts refuse bad arguments with exit code 2, as the
CLI does."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
NAMES = ["experiment_gap_count", "experiment_sidegaps_vs_2gaps"]


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
