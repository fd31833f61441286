from __future__ import annotations

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscm_gaps.core import validate_instance
from oscm_gaps.generator import GenParams, SplitMix64, generate


def test_splitmix64_reference_value():
    # first output for seed 0, as published with the algorithm
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_splitmix64_randrange_bounds():
    rng = SplitMix64(99)
    values = [rng.randrange(7) for _ in range(200)]
    assert set(values) <= set(range(7))
    assert len(set(values)) == 7  # all residues show up over 200 draws


def test_param_arithmetic():
    params = GenParams(n=10, f_dm=0.2, deg_avg=3, seed=0)
    assert params.n_dummy == 2
    assert params.n_real == 8
    inst = generate(params)
    real_real = [
        (b, t) for b, t in inst.edges if b < params.n_real and t < 10 + params.n_real
    ]
    assert len(real_real) == 24  # floor(8 * min(8, 3))


def test_decimal_fraction_is_exact():
    # 10 * 0.3 must floor to 3, not to 2 via binary-float noise
    assert GenParams(n=10, f_dm=0.3, deg_avg=1, seed=0).n_dummy == 3


def test_all_dummy_degenerate():
    inst = generate(GenParams(n=4, f_dm=1, deg_avg=2, seed=1))
    assert len(inst.bottom) == len(inst.top) == 4
    assert not inst.edges
    assert not inst.real_top_ids
    assert validate_instance(inst) == []


def test_no_dummies():
    inst = generate(GenParams(n=6, f_dm=0, deg_avg=2, seed=1))
    assert not inst.dummy_top_ids
    assert len(inst.edges) == 12


def test_min_clamp_gives_complete_graph():
    inst = generate(GenParams(n=4, f_dm=0, deg_avg=50, seed=3))
    assert len(inst.edges) == 16


def test_determinism():
    params = GenParams(n=12, f_dm=0.25, deg_avg=3, seed=42)
    assert generate(params) == generate(params)


def test_pi1_is_creation_order():
    inst = generate(GenParams(n=6, f_dm=0.5, deg_avg=2, seed=9))
    assert inst.pi1.order == tuple(range(6))


@pytest.mark.parametrize(
    "params",
    [
        GenParams(8, "0.25", 2, 7),
        GenParams(10, 0.5, 1, 123),
        GenParams(3, 0, 1, 0),
        GenParams(40, 0.2, 3, 1),
    ],
)
def test_generated_instances_are_valid(params):
    inst = generate(params)
    assert validate_instance(inst) == []
    assert len(inst.bottom) == len(inst.top) == params.n
    assert len(inst.dummy_top_ids) == params.n_dummy


@pytest.mark.parametrize("f_dm", ["0", "0.2", "0.5", "0.8", "1"])
@pytest.mark.parametrize("deg_avg", ["1", "2.5", "3", "50"])
def test_generated_instances_are_valid_on_the_grid(f_dm, deg_avg):
    # generate builds its instances unvalidated, so check them here;
    # f_dm 1 leaves no real node (n_r = 0)
    for n in (1, 2, 5, 16, 40):
        for seed in range(20):
            params = GenParams(n, f_dm, deg_avg, seed)
            inst = generate(params)
            assert validate_instance(inst) == []
            n_r = params.n_real
            drawn = math.floor(n_r * min(n_r, params.deg_avg)) + (2 * params.n_dummy if n_r else 0)
            assert len(inst.edges) == drawn  # no edge was drawn twice


def test_memory_grows_with_the_edges_not_the_pair_space():
    # 800 real nodes per layer: 640,000 pairs for 2,400 real-real edges
    tracemalloc.start()
    try:
        generate(GenParams(1000, "0.2", 3, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@given(
    st.integers(1, 12),
    st.fractions(0, 1),
    st.fractions(1, 4).filter(lambda f: f > 0),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=60)
def test_generated_instances_are_valid_fuzz(n, f_dm, deg_avg, seed):
    inst = generate(GenParams(n=n, f_dm=f_dm, deg_avg=deg_avg, seed=seed))
    assert validate_instance(inst) == []


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0, "f_dm": 0, "deg_avg": 1, "seed": 0},
        {"n": 4, "f_dm": 1.5, "deg_avg": 1, "seed": 0},
        {"n": 4, "f_dm": 0, "deg_avg": 0, "seed": 0},
        {"n": 4, "f_dm": "nonsense", "deg_avg": 1, "seed": 0},
        {"n": True, "f_dm": 0, "deg_avg": 1, "seed": 0},
        {"n": 4, "f_dm": 0, "deg_avg": True, "seed": 0},
    ],
)
def test_bad_params_rejected(kwargs):
    from oscm_gaps.core import InputError

    with pytest.raises(InputError):
        GenParams(**kwargs)
