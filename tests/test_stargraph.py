"""Stage construction: coefficient sources, group bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfem import (
    GROUP_PROBS,
    GROUP_VALUES,
    InvalidArgumentError,
    build_stage,
    coefficient_random,
)
from starfem.stargraph import group_shares


@pytest.mark.parametrize("ell,expected", [
    (1, 2.0), (2, 2.0), (3, 1.0), (4, 2.0), (6, 1.0), (11, 2.0), (12, 1.0),
])
def test_deterministic_rule_marks_every_third_edge(ell, expected):
    stage = build_stage(12)
    assert stage.coeffs[ell - 1] == expected
    assert stage.group_of[ell - 1] == (1 if expected == 1.0 else 2)


def test_deterministic_shares_ignore_probs():
    # every third edge takes the first value, whatever probs says; the
    # shares are the exact GROUP_PROBS floats (1 - 1/3 != 2/3 in float64)
    assert group_shares("deterministic", (0.5, 0.5)) == GROUP_PROBS
    assert group_shares("random", (0.5, 0.5)) == (0.5, 0.5)
    with pytest.raises(InvalidArgumentError):
        group_shares("deterministic", (0.2, 0.3, 0.5), (1.0, 2.0, 3.0))
    with pytest.raises(InvalidArgumentError):
        group_shares("explicit")


def test_random_coefficients_are_prefix_stable():
    long = coefficient_random(500, seed=7)
    short = coefficient_random(60, seed=7)
    assert np.array_equal(long[:60], short)


def test_random_coefficients_depend_on_seed():
    a = coefficient_random(200, seed=0)
    b = coefficient_random(200, seed=1)
    assert not np.array_equal(a, b)


def test_random_coefficients_use_only_group_values():
    draws = coefficient_random(1000, seed=3)
    assert set(np.unique(draws)) <= set(GROUP_VALUES)


def test_random_coefficient_frequencies_match_probs():
    n = 200000
    draws = coefficient_random(n, seed=11)
    frac = np.mean(draws == GROUP_VALUES[0])
    # binomial se at n=2e5 is ~0.001; allow five of them
    assert abs(frac - GROUP_PROBS[0]) < 0.005


def test_random_coefficients_validate_probs():
    with pytest.raises(InvalidArgumentError):
        coefficient_random(10, seed=0, probs=(0.5, 0.4))
    with pytest.raises(InvalidArgumentError):
        coefficient_random(10, seed=0, probs=(1.2, -0.2))
    with pytest.raises(InvalidArgumentError):
        coefficient_random(10, seed=0, probs=(0.5, 0.3, 0.2))


def test_build_stage_deterministic_layout():
    stage = build_stage(12)
    assert stage.n == 12
    assert np.array_equal(stage.coeffs[np.arange(1, 13) % 3 == 0], [1.0] * 4)
    assert np.array_equal(stage.group_of, [2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1])
    assert stage.group_values == GROUP_VALUES


def test_build_stage_rejects_single_edge():
    # one edge would make the center a boundary vertex, a different problem
    with pytest.raises(InvalidArgumentError):
        build_stage(1)


def test_build_stage_rejects_unknown_source():
    with pytest.raises(InvalidArgumentError):
        build_stage(5, source="oracle")


def test_build_stage_explicit_coeffs():
    stage = build_stage(4, source="explicit", coeffs=[3.0, 1.0, 3.0, 0.5])
    assert stage.group_values == (0.5, 1.0, 3.0)
    assert np.array_equal(stage.group_of, [3, 2, 3, 1])


def test_build_stage_explicit_requires_matching_length():
    with pytest.raises(InvalidArgumentError):
        build_stage(4, source="explicit", coeffs=[1.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        build_stage(4, source="explicit", coeffs=None)


def test_build_stage_rejects_nonpositive_coefficients():
    with pytest.raises(InvalidArgumentError):
        build_stage(3, source="explicit", coeffs=[1.0, 0.0, 2.0])
    with pytest.raises(InvalidArgumentError):
        build_stage(3, values=(-1.0, 2.0))


def test_equal_group_values_collapse_to_one_group():
    stage = build_stage(9, values=(1.0, 1.0))
    assert not stage.group_mask(1).any()
    assert stage.group_mask(2).all()


def _dict_group_of(stage):
    # the per-edge rule: a value maps to the last group carrying it
    lookup = {v: i + 1 for i, v in enumerate(stage.group_values)}
    return np.array([lookup[v] for v in stage.coeffs.tolist()])


@pytest.mark.parametrize("source,kwargs", [
    ("deterministic", {}),
    ("deterministic", {"values": (3.0, 0.5)}),
    ("random", {"seed": 7}),
    ("random", {"seed": 1, "probs": (0.2, 0.5, 0.3),
                "values": (1.0, 4.0, 2.5)}),
    ("explicit", {"coeffs": [3.0, 1.0, 3.0, 0.5, 7.25, 1.0] * 50}),
    ("deterministic", {"values": (1.0, 1.0)}),
    ("random", {"seed": 3, "probs": (0.25, 0.25, 0.5),
                "values": (2.0, 1.0, 2.0)}),
])
def test_group_of_follows_the_per_edge_rule(source, kwargs):
    n = len(kwargs["coeffs"]) if source == "explicit" else 300
    stage = build_stage(n, source=source, **kwargs)
    assert np.array_equal(stage.group_of, _dict_group_of(stage))


def test_nan_group_value_is_rejected():
    with pytest.raises(InvalidArgumentError):
        build_stage(6, values=(float("nan"), 2.0))


def test_group_mask_rejects_out_of_range_group():
    stage = build_stage(6)
    with pytest.raises(InvalidArgumentError):
        stage.group_mask(3)
    with pytest.raises(InvalidArgumentError):
        stage.group_mask(0)


def test_stage_arrays_are_frozen():
    stage = build_stage(5)
    with pytest.raises(ValueError):
        stage.coeffs[0] = 9.0
    with pytest.raises(ValueError):
        stage.group_of[0] = 1


def test_deterministic_group_counts():
    stage = build_stage(300)
    assert np.bincount(stage.group_of).tolist() == [0, 100, 200]
    assert stage.coeffs.mean() == pytest.approx(5 / 3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=400),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       source=st.sampled_from(["deterministic", "random"]))
def test_group_counts_partition_the_edges(n, seed, source):
    stage = build_stage(n, source=source, seed=seed)
    groups = len(stage.group_values)
    counts = np.bincount(stage.group_of, minlength=groups + 1)
    assert counts[0] == 0 and counts.sum() == n
    masks = [stage.group_mask(i + 1) for i in range(groups)]
    assert [int(m.sum()) for m in masks] == counts[1:].tolist()
    assert np.all(sum(m.astype(int) for m in masks) == 1)


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.floats(min_value=0.1, max_value=50.0,
                                 allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=40))
def test_explicit_groups_recover_their_coefficients(coeffs):
    stage = build_stage(len(coeffs), source="explicit", coeffs=coeffs)
    rebuilt = np.array([stage.group_values[g - 1] for g in stage.group_of])
    assert np.array_equal(rebuilt, stage.coeffs)
    assert list(stage.group_values) == sorted(set(coeffs))
