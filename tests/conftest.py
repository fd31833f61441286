from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from oscm_gaps.bench import BenchConfig
from oscm_gaps.core import BipartiteInstance, Node, Permutation
from oscm_gaps.generator import GenParams, generate

TOP_BASE = 100  # top ids start here so the layers never collide
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def mk_instance(bottom_kinds: str, top_kinds: str, edges, pi1=None) -> BipartiteInstance:
    """Compact builder: kinds as strings of 'r'/'d', bottom ids 0.., top
    ids 100.. in listing order."""
    bottom = [
        Node(i, "real" if c == "r" else "dummy")
        for i, c in enumerate(bottom_kinds)
    ]
    top = [
        Node(TOP_BASE + i, "real" if c == "r" else "dummy")
        for i, c in enumerate(top_kinds)
    ]
    return BipartiteInstance.build(bottom, top, edges, pi1)


def gen(n, f_dm, deg_avg, seed) -> BipartiteInstance:
    return generate(GenParams(n=n, f_dm=f_dm, deg_avg=deg_avg, seed=seed))


def induced(pi: Permutation, subset) -> Permutation:
    """Restriction of `pi` to `subset`, preserving relative order."""
    keep = set(subset)
    return Permutation(tuple(v for v in pi.order if v in keep))


def precedes(pi: Permutation, x: int, y: int) -> bool:
    return pi.position[x] < pi.position[y]


def restrict_top(inst: BipartiteInstance, keep) -> BipartiteInstance:
    """Drop top nodes outside `keep` (and their edges); bottom layer unchanged."""
    keep = set(keep)
    top = tuple(v for v in inst.top if v.id in keep)
    edges = frozenset((b, t) for b, t in inst.edges if t in keep)
    return BipartiteInstance(inst.bottom, top, edges, inst.pi1)


def load_script(name: str):
    """The experiment script `name` as a module. Its directory is put on
    sys.path, as it is when the script is run, so that the script finds
    the shared front end `sweep`."""
    if str(SCRIPTS) not in sys.path:
        sys.path.insert(0, str(SCRIPTS))
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def desk_config(script: str) -> BenchConfig:
    """The desk-scale config of an experiment script, at its defaults."""
    sweep = load_script(script).config(False)
    base = {"f_dm": "0.2", "deg_avg": 3, "seed": 1, **sweep.get("base_params", {})}
    return BenchConfig.from_dict({**sweep, "instances": 20, "base_params": base})


@st.composite
def instances(draw, max_bottom=5, max_top=5, allow_dummies=True):
    """Random valid instances, including degree-0 real top nodes and a
    shuffled bottom order."""
    n_bottom_real = draw(st.integers(1, max_bottom))
    n_top_real = draw(st.integers(1, max_top))
    n_bottom_dummy = draw(st.integers(0, 2)) if allow_dummies else 0
    n_top_dummy = draw(st.integers(0, 3)) if allow_dummies else 0

    bottom = [Node(i, "real") for i in range(n_bottom_real)]
    bottom += [
        Node(n_bottom_real + i, "dummy") for i in range(n_bottom_dummy)
    ]
    top = [Node(TOP_BASE + i, "real") for i in range(n_top_real)]
    top += [Node(TOP_BASE + n_top_real + i, "dummy") for i in range(n_top_dummy)]

    edges = set()
    for t in range(n_top_real):
        neighbors = draw(
            st.sets(st.integers(0, n_bottom_real - 1), min_size=0, max_size=n_bottom_real)
        )
        edges |= {(b, TOP_BASE + t) for b in neighbors}
    for i in range(n_top_dummy):
        b = draw(st.integers(0, n_bottom_real - 1))
        edges.add((b, TOP_BASE + n_top_real + i))
    for i in range(n_bottom_dummy):
        t = draw(st.integers(0, n_top_real - 1))
        edges.add((n_bottom_real + i, TOP_BASE + t))

    bottom_ids = [v.id for v in bottom]
    pi1 = draw(st.permutations(bottom_ids))
    return BipartiteInstance.build(bottom, top, edges, pi1)


@st.composite
def dummy_bottom_instances(draw, max_bottom=5, max_top=4):
    """Random valid instances whose bottom layer is all dummies, so that
    top dummies may have no edge; each top dummy takes at most one bottom
    dummy, and every bottom dummy has an edge while the top has a real."""
    n_bottom = draw(st.integers(1, max_bottom))
    n_real = draw(st.integers(0, max_top))
    n_dummy = draw(st.integers(0, max_top))
    reals = [TOP_BASE + i for i in range(n_real)]
    free = draw(st.permutations([TOP_BASE + n_real + i for i in range(n_dummy)]))
    edges = []
    for b in range(n_bottom):
        if free and (not reals or draw(st.booleans())):
            edges.append((b, free.pop()))
        elif reals:
            edges.append((b, draw(st.sampled_from(reals))))
    pi1 = draw(st.permutations(range(n_bottom)))
    return mk_instance("d" * n_bottom, "r" * n_real + "d" * n_dummy, edges, pi1)


# -- acceptance reporting ----------------------------------------------------

_acceptance_outcomes: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if "test_acceptance.py" in report.nodeid:
        if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
            _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        status = "PASS" if _acceptance_outcomes[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {status}")
