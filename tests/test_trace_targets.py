"""Every function the traced benchmark wraps still exists where its
callers look it up, so a refactor that renames or removes one fails here
and not only under `python -m pytest perfbench`."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

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
