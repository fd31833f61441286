"""The README's library example runs against the package root, so the
documented surface and `oscm_gaps.__init__` cannot drift apart."""

from __future__ import annotations

import re
from pathlib import Path

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
