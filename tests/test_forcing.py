"""Forcing families: formulas, moments, group averages, orientation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import cesaro_forcing_average, quad_moment
from starfem import (
    GridFunction,
    InvalidArgumentError,
    build_stage,
    builtin_field,
    manufactured_exact,
    manufactured_profile,
    profile_moment,
)
from starfem.forcing import FAMILIES, FAMILY_IDS

PI = np.pi


def test_family_registry_is_complete():
    assert set(FAMILY_IDS) == {
        "ex1", "ex2", "ex3", "ex4", "ex5", "constant", "manufactured"}


def test_unknown_family_rejected():
    with pytest.raises(InvalidArgumentError):
        builtin_field("ex0")


def test_unknown_parameter_rejected():
    with pytest.raises(InvalidArgumentError):
        builtin_field("ex1", {"amplitude": 3.0})
    with pytest.raises(InvalidArgumentError):
        builtin_field("ex3", {"orientation": "sideways"})


class TestGridFunction:
    def test_nodes_are_uniform(self):
        g = GridFunction(m=4, values=np.zeros(5))
        assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_length_must_match_mesh(self):
        with pytest.raises(InvalidArgumentError):
            GridFunction(m=4, values=np.zeros(4))

    def test_single_element_rejected(self):
        with pytest.raises(InvalidArgumentError):
            GridFunction(m=1, values=np.zeros(2))

    def test_values_are_frozen_and_copied(self):
        src = np.ones(5)
        g = GridFunction(m=4, values=src)
        with pytest.raises(ValueError):
            g.values[0] = 2.0
        src[0] = 7.0  # caller's array stays writable and detached
        assert g.values[0] == 1.0


@pytest.mark.parametrize("ell", [1, 2, 5, 17])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.75, 1.0])
def test_first_family_formula(ell, t):
    f = builtin_field("ex1")
    assert f.eval(ell, t) == pytest.approx(
        PI**2 * np.cos(ell) * np.sin(PI * t), abs=1e-14)


def test_values_shape_and_edge_validation():
    f = builtin_field("ex1")
    out = f.values(np.array([1, 2, 3]), np.linspace(0, 1, 7))
    assert out.shape == (3, 7)
    with pytest.raises(InvalidArgumentError):
        f.values(np.array([0]), np.array([0.5]))


class TestNoisyFamily:
    def test_requires_edge_count(self):
        with pytest.raises(InvalidArgumentError):
            builtin_field("ex2")

    @pytest.mark.parametrize("noise", [-1.0, 1e308, float("nan")])
    def test_noise_must_be_nonnegative(self, noise):
        # the draw spans [-noise, noise]: 2 * 1e308 overflows its width
        with pytest.raises(InvalidArgumentError, match="noise"):
            builtin_field("ex2", {"n_edges": 5, "noise": noise})

    def test_offsets_are_constant_in_t_and_bounded(self):
        noise = 3.0
        f2 = builtin_field("ex2", {"n_edges": 40, "noise": noise}, seed=5)
        f1 = builtin_field("ex1")
        t = np.linspace(0, 1, 9)
        ells = np.arange(1, 41)
        diff = f2.values(ells, t) - f1.values(ells, t)
        assert np.allclose(diff, diff[:, :1])
        assert np.all(np.abs(diff) <= noise)

    def test_same_seed_same_draw(self):
        a = builtin_field("ex2", {"n_edges": 20}, seed=9)
        b = builtin_field("ex2", {"n_edges": 20}, seed=9)
        t = np.array([0.25])
        assert np.array_equal(a.values(np.arange(1, 21), t),
                              b.values(np.arange(1, 21), t))

    def test_different_seeds_differ(self):
        a = builtin_field("ex2", {"n_edges": 20}, seed=0)
        b = builtin_field("ex2", {"n_edges": 20}, seed=1)
        t = np.array([0.25])
        assert not np.array_equal(a.values(np.arange(1, 21), t),
                                  b.values(np.arange(1, 21), t))

    def test_draws_differ_between_stage_sizes(self):
        # each stage draws its own noise, unlike the coefficient stream
        a = builtin_field("ex2", {"n_edges": 10}, seed=0)
        b = builtin_field("ex2", {"n_edges": 20}, seed=0)
        t = np.array([0.5])
        assert not np.array_equal(a.values(np.arange(1, 11), t),
                                  b.values(np.arange(1, 11), t))

    def test_evaluation_beyond_drawn_range_rejected(self):
        f = builtin_field("ex2", {"n_edges": 10}, seed=0)
        with pytest.raises(InvalidArgumentError):
            f.values(np.array([11]), np.array([0.5]))


def test_two_frequency_family_formula():
    f = builtin_field("ex3")
    t = 0.37
    for ell in (3, 6, 9):
        radial = 4 * PI**2 * np.sin(2 * PI * t)
        angular = (-1.0) ** (ell // 6) * 10.0 * np.mod(ell, 2 * PI)
        assert f.eval(ell, t) == pytest.approx(radial + angular, rel=1e-13)
    for ell in (1, 2, 4):
        radial = PI**2 * np.sin(PI * t)
        angular = (-1.0) ** (ell // 6) * 10.0 * np.mod(ell, 2 * PI)
        assert f.eval(ell, t) == pytest.approx(radial + angular, rel=1e-13)


def test_alternating_root_family_formula():
    f = builtin_field("ex4")
    t = 0.62
    for ell in (1, 2, 3, 8):
        radial = (4 * PI**2 * np.sin(2 * PI * t) if ell % 3 == 0
                  else PI**2 * np.sin(PI * t))
        assert f.eval(ell, t) == pytest.approx(
            radial + (-1.0) ** ell * np.sqrt(ell), rel=1e-13)


def test_growing_frequency_family_formula():
    f = builtin_field("ex5")
    t = 0.41
    assert f.eval(6, t) == pytest.approx(4 * PI**2 * np.sin(2 * PI * 6 * t))
    assert f.eval(5, t) == pytest.approx(PI**2 * np.sin(PI * 5 * t))
    assert FAMILIES["ex5"].classes({}) is None


@pytest.mark.parametrize("example", FAMILY_IDS)
def test_declared_frequencies_are_the_edges_frequencies(example):
    # a sine family declares (A, q, c) per edge with an integer q; the load
    # assembly folds it, and its profile is A sin(pi q t) + c bitwise
    params = {"n_edges": 3000} if example == "ex2" else {}
    f = builtin_field(example, params, seed=1)
    if f.pi_sine_coeffs is None:
        assert example == "manufactured"
        return
    ells = np.arange(1, 3001)
    A, q, c = (np.broadcast_to(v, ells.shape) for v in f.pi_sine_coeffs(ells))
    assert q.dtype.kind == "i" and np.all(q >= 0)
    t = np.linspace(0, 1, 7)
    assert np.array_equal(f.values(ells, t), A[:, None] * np.sin(
        PI * q[:, None] * t) + c[:, None])


def test_pi_multiples_are_the_edges_frequencies():
    # q = 2l on every third edge, else l; the mask a sweep hands on gives
    # the same numbers
    field = builtin_field("ex5")
    ells = np.concatenate([np.arange(1, 3001), 10**7 + np.arange(3)])
    A, q, c = field.pi_sine_coeffs(ells)
    third = ells % 3 == 0
    assert np.array_equal(q, np.where(third, 2 * ells, ells))
    assert np.array_equal(A, np.where(third, 4 * PI**2, PI**2)) and c == 0.0
    assert all(np.array_equal(x, y) for x, y in
               zip(field.pi_sine_coeffs(ells, third), (A, q, c)))


def test_angular_parts_match_their_formulas_bitwise():
    # the signs come from parities, not float powers
    ells = np.arange(1, 5001)
    c3 = builtin_field("ex3").pi_sine_coeffs(ells)[2]
    assert np.array_equal(
        c3, (-1.0) ** (ells // 6) * 10.0 * np.mod(ells, 2 * PI))
    c4 = builtin_field("ex4").pi_sine_coeffs(ells)[2]
    assert np.array_equal(c4, (-1.0) ** ells * np.sqrt(ells.astype(float)))


def test_constant_family():
    f = builtin_field("constant", {"c": 2.5})
    t = np.linspace(0, 1, 5)
    assert np.array_equal(f.values(np.array([1, 4]), t), np.full((2, 5), 2.5))


def test_manufactured_profile_matches_its_exact_solution():
    # -(p)'' must reproduce the profile, checked by central differences
    t = np.linspace(0.05, 0.95, 19)
    d = 1e-5
    lap = (manufactured_exact(t - d) - 2 * manufactured_exact(t)
           + manufactured_exact(t + d)) / d**2
    assert np.allclose(-lap, manufactured_profile(t), atol=1e-5)


def test_manufactured_field_scales_with_coefficients():
    f = builtin_field("manufactured")
    t = np.array([0.3])
    assert f.eval(3, 0.3) == pytest.approx(manufactured_profile(t)[0])
    assert f.eval(1, 0.3) == pytest.approx(2 * manufactured_profile(t)[0])
    g = builtin_field("manufactured", {"coeffs": [5.0, 0.5]})
    assert g.eval(1, 0.3) == pytest.approx(5 * manufactured_profile(t)[0])
    assert FAMILIES["manufactured"].classes({"coeffs": [5.0, 0.5]}) is None
    with pytest.raises(InvalidArgumentError):
        g.values(np.array([3]), t)


def test_rim_orientation_reverses_the_profile():
    for family, params in [("ex1", {}), ("ex3", {}), ("ex5", {}),
                           ("manufactured", {})]:
        fc = builtin_field(family, dict(params))
        fr = builtin_field(family, dict(params, orientation="rim"))
        t = np.linspace(0, 1, 11)
        ells = np.arange(1, 7)
        assert np.allclose(fr.values(ells, t), fc.values(ells, 1.0 - t),
                           atol=1e-13)


def _edge_profile(field, ell):
    """t -> F_ell(t), the row of ``field.values`` for one edge."""
    return lambda t: field.values(np.array([ell]), t)[0]


class TestMoments:
    def test_against_adaptive_quadrature(self):
        f = builtin_field("ex3")
        for ell in (1, 3, 7):
            ref = quad_moment(lambda t: f.eval(ell, float(t)))
            assert profile_moment(_edge_profile(f, ell)) == pytest.approx(
                ref, abs=1e-11)

    def test_profile_moment_of_linear_ramp(self):
        # int (1-t)^2 = 1/3 exactly, a polynomial the rule must nail
        assert profile_moment(lambda t: 1.0 - t) == pytest.approx(1 / 3,
                                                                  abs=1e-15)

    def test_panel_refinement_converges_at_sixth_order(self):
        # edge 25 packs 12.5 periods into the interval, so the default
        # panel count is visibly inexact and quadrupling it buys ~4^6
        f = builtin_field("ex5")
        ref = quad_moment(lambda t: f.eval(25, float(t)))
        e64 = abs(profile_moment(_edge_profile(f, 25), panels=64) - ref)
        e256 = abs(profile_moment(_edge_profile(f, 25), panels=256) - ref)
        assert e64 < 1e-5
        assert e256 < e64 / 500
        assert profile_moment(_edge_profile(f, 25), panels=1024) == \
            pytest.approx(ref, abs=1e-11)

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(-50, 50), b=st.floats(-50, 50),
           ell=st.integers(min_value=1, max_value=40))
    def test_moment_is_linear_in_the_field(self, a, b, ell):
        f1 = _edge_profile(builtin_field("ex1"), ell)
        f3 = _edge_profile(builtin_field("ex3"), ell)
        combo = a * profile_moment(f1) + b * profile_moment(f3)
        direct = profile_moment(lambda t: a * f1(t) + b * f3(t))
        assert direct == pytest.approx(combo, abs=1e-12 * (1 + abs(a) + abs(b)))


class TestCesaroForcingAverage:
    """Group means of the forcing, from ``_reference.cesaro_forcing_average``."""

    def test_matches_direct_mean(self):
        stage = build_stage(9)
        f = builtin_field("ex3")
        avg = cesaro_forcing_average(f, stage, 2, 10)
        t = np.arange(11) / 10
        direct = f.values(np.array([1, 2, 4, 5, 7, 8]), t).mean(axis=0)
        assert np.allclose(avg, direct, atol=1e-14)

    @pytest.mark.parametrize("n,tol", [(60, 0.5), (600, 0.06), (6000, 0.02)])
    def test_first_family_average_decays(self, n, tol):
        # cos(l) is Cesaro-null, so group averages shrink with the stage
        stage = build_stage(n)
        avg = cesaro_forcing_average(builtin_field("ex1"), stage, 2, 16)
        assert np.max(np.abs(avg)) < PI**2 * tol

    def test_two_frequency_average_approaches_radial_limit(self):
        f = builtin_field("ex3")
        (lim1, _), (lim2, _) = FAMILIES["ex3"].classes({})
        m = 16
        t = np.arange(m + 1) / m
        dist = []
        for n in (30, 300, 3000):
            stage = build_stage(n)
            a1 = cesaro_forcing_average(f, stage, 1, m)
            dist.append(np.max(np.abs(a1 - lim1(t))))
        assert dist[2] < dist[0]
        assert dist[2] < 0.5


def test_forcing_average_distance_ladder_is_monotone_with_slack():
    # distances to the known limit along growing stages; each step either
    # shrinks (10% slack for equidistribution wobble) or has already
    # collapsed by an order of magnitude
    f = builtin_field("ex1")
    (lim, _), = FAMILIES["ex1"].classes({})
    m = 32
    t = np.arange(m + 1) / m
    d = [np.max(np.abs(cesaro_forcing_average(f, build_stage(n), 2, m)
                       - lim(t)))
         for n in (10, 100, 1000, 10000)]
    for k in range(len(d) - 1):
        assert d[k + 1] <= 1.1 * d[k] or d[k + 1] <= 0.1 * d[0]


class TestFamilyRecord:
    def test_every_family_has_a_record(self):
        assert set(FAMILIES) == set(FAMILY_IDS)

    @pytest.mark.parametrize("example,params", [
        ("ex1", {}), ("ex3", {}), ("constant", {"c": -1.5}),
        ("manufactured", {}),
    ])
    def test_particular_solves_its_class(self, example, params):
        # -p'' = forcing with p(0) = p(1) = 0, by central differences
        t = np.linspace(0.05, 0.95, 19)
        d = 1e-4
        for forcing, p in FAMILIES[example].classes(params):
            assert p(0.0) == pytest.approx(0.0, abs=1e-12)
            assert p(1.0) == pytest.approx(0.0, abs=1e-12)
            lap = (p(t - d) - 2 * p(t) + p(t + d)) / d**2
            scale = 1.0 + np.max(np.abs(forcing(t)))
            assert np.allclose(-lap, forcing(t), atol=1e-5 * scale)

    @pytest.mark.parametrize("example", ["ex3", "ex4", "manufactured"])
    def test_index_split_families_follow_every_third_edge(self, example):
        # the declaration's per-edge forcing is the limit forcing of the
        # edge's class (up to the angular offset, which is constant in t)
        f = builtin_field(example)
        t = np.linspace(0, 1, 9)
        ells = np.arange(1, 13)
        vals = f.values(ells, t)
        vals = vals - vals[:, :1]
        classes = FAMILIES[example].classes({})
        for k, ell in enumerate(ells):
            forcing = classes[0 if ell % 3 == 0 else 1][0]
            assert np.allclose(vals[k], forcing(t) - forcing(t[0]),
                               atol=1e-12)
