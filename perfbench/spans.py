"""Span recorder for the traced benchmark run.

Spans are recorded around calls into the package's layers by replacing
functions at the module attributes where their callers look them up
(for example `oscm_gaps.exact.solve_branch_and_bound`, which
`solve_kgap_exact` reads from its module globals). Nothing inside the
package changes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module name, attribute, span name, name of an enclosing span or None).
# Each entry is one call site family; the span name is the layer the
# function belongs to, whichever module looks it up.
TARGETS = (
    ("bench", "run_bench", "bench.run_bench", None),
    ("bench", "generate", "generator.generate", None),
    ("bench", "solve_with", "bench.solve_with", None),
    ("bench", "count_crossings", "core.count_crossings", None),
    ("bench", "count_gaps", "core.count_gaps", None),
    ("bench", "svg_line_chart", "draw.svg_line_chart", None),
    ("gap_placement", "heuristic_order", "heuristics.heuristic_order", None),
    ("gap_placement", "side_gap_merge", "gap_placement.side_gap_merge", None),
    ("gap_placement", "k_gap_merge", "gap_placement.k_gap_merge", None),
    ("exact", "build_kgap_model", "exact.model_build", None),
    ("exact", "build_base_oscm_model", "exact.model_build", None),
    ("exact", "pairwise_crossings", "core.pairwise_crossings", None),
    ("exact", "solve_kgaps", "exact.incumbent", None),
    # the side-gap and unrestricted exact pipelines take the heuristic
    # order itself as incumbent
    ("exact", "heuristic_order", "heuristics.heuristic_order", "exact.incumbent"),
    ("exact", "solve_branch_and_bound", "exact.search", None),
    ("exact", "side_gap_merge", "gap_placement.side_gap_merge", None),
    ("exact", "count_crossings", "core.count_crossings", None),
)


@contextlib.contextmanager
def patched(module, attr: str, value):
    """Set `module.attr` for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield original
    finally:
        setattr(module, attr, original)


class SpanRecorder:
    """Spans as [name, start, end, parent, run id, attrs] lists; the
    index in `spans` is the span id and parent -1 marks a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        # (run id, model, initial, result) per search, for the incumbent ratio;
        # evaluated after the run so it costs no traced time
        self.searches: list[tuple] = []

    def wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        is_search = name == "exact.search"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None])
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[sid]
                span[1], span[2] = start, end
            if is_search:
                span[5] = {"nodes": result.nodes_explored}
                initial = kwargs.get("initial", args[2] if len(args) > 2 else None)
                self.searches.append((self.run_id, args[0], initial, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every target in `TARGETS` for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for module_name, attr, span_name, outer in TARGETS:
                module = modules[module_name]
                fn = self.wrap(span_name, getattr(module, attr))
                if outer is not None:
                    fn = self.wrap(outer, fn)
                stack.enter_context(patched(module, attr, fn))
            yield

    def self_times(self) -> dict[tuple[int, str], float]:
        """(run id, span name) -> summed self time in seconds: each span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[int, str], float] = defaultdict(float)
        for sid, (name, start, end, _, run_id, _) in enumerate(self.spans):
            out[(run_id, name)] += end - start - child[sid]
        return out

    def counts(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = defaultdict(int)
        for name, _, _, _, run_id, _ in self.spans:
            out[(run_id, name)] += 1
        return out

    def nodes(self) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for name, _, _, _, run_id, attrs in self.spans:
            if attrs is not None:
                out[run_id] += attrs["nodes"]
        return out

    def write(self, path: Path) -> None:
        """One JSON array per line: id, name, start, end, parent, run id,
        attrs; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, run_id, attrs) in enumerate(self.spans):
                row = [sid, name, round(start - origin, 9), round(end - origin, 9), parent, run_id, attrs]
                fh.write(json.dumps(row) + "\n")
