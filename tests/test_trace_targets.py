"""Every function the traced benchmark wraps still exists where its
callers look it up, and the search keeps the parameters its recorder
reads, so a refactor that breaks either fails here and not only under
`python -m pytest perfbench`."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
