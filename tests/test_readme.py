"""The README's library example runs against the package root and its
bench-config example parses, so the documented surface and the code
cannot drift apart."""

from __future__ import annotations

import json
import re
from pathlib import Path

from oscm_gaps import GenParams
from oscm_gaps.bench import BenchConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    heuristic, exact = capsys.readouterr().out.splitlines()
    crossings, gaps = map(int, heuristic.split())
    assert gaps <= 2
    status, objective = exact.split()
    assert status == "optimal"
    assert int(objective) <= crossings


def test_bench_config_example_parses():
    section = README.read_text(encoding="utf-8").split("### Bench configuration", 1)[1]
    text = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    config = BenchConfig.from_json(text)
    assert config.base == GenParams(**json.loads(text)["base_params"])
    assert len(config.cells()) == len(config.values) * config.instances * len(config.algos)
