"""Limit problem: construction, closed-form anchors, flux consistency."""

import numpy as np
import pytest

from _reference import quad_moment, weighted_flux_defect
from starfem import (
    GridFunction,
    InvalidArgumentError,
    UpscaledProblem,
    analytic_oracle,
    build_upscaled,
    center_limit,
    grid_norms,
    predicted_edge_flux,
    sample_grid,
    solve_upscaled,
)
from starfem.forcing import FAMILIES
from starfem.upscale import datum_limit, printed_curves

PI = np.pi


def _two_group(fbar=None, hbar=0.0):
    f = fbar or (lambda t: np.sin(PI * t), lambda t: np.cos(PI * t))
    return UpscaledProblem(s=(1 / 3, 2 / 3), K=(1.0, 2.0), fbar=f, hbar=hbar)


class TestProblemValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidArgumentError):
            UpscaledProblem(s=(0.4, 0.4), K=(1.0, 2.0),
                            fbar=(lambda t: t, lambda t: t), hbar=0.0)

    def test_weights_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            UpscaledProblem(s=(1.2, -0.2), K=(1.0, 2.0),
                            fbar=(lambda t: t, lambda t: t), hbar=0.0)

    def test_coefficients_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            UpscaledProblem(s=(0.5, 0.5), K=(1.0, 0.0),
                            fbar=(lambda t: t, lambda t: t), hbar=0.0)

    def test_one_forcing_per_group(self):
        with pytest.raises(InvalidArgumentError):
            UpscaledProblem(s=(0.5, 0.5), K=(1.0, 2.0),
                            fbar=(lambda t: t,), hbar=0.0)

    def test_grid_forcings_are_accepted(self):
        g = GridFunction(m=8, values=np.linspace(1, 0, 9))
        p = UpscaledProblem(s=(1.0,), K=(2.0,), fbar=(g,), hbar=0.0)
        assert p.groups == 1
        assert p.fbar[0](np.array([0.5]))[0] == pytest.approx(0.5)


class TestRegistry:
    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_null_limit_families(self, example):
        p = build_upscaled(example)
        t = np.linspace(0, 1, 5)
        assert p.hbar == 0.0
        for f in p.fbar:
            assert np.all(f(t) == 0.0)

    @pytest.mark.parametrize("example", ["ex3", "ex4"])
    def test_two_frequency_families_share_a_limit(self, example):
        p = build_upscaled(example)
        t = np.linspace(0, 1, 9)
        assert np.allclose(p.fbar[0](t), 4 * PI**2 * np.sin(2 * PI * t))
        assert np.allclose(p.fbar[1](t), PI**2 * np.sin(PI * t))
        assert p.s == (1 / 3, 2 / 3)
        assert p.K == (1.0, 2.0)

    def test_growing_frequency_family_has_no_limit(self):
        with pytest.raises(InvalidArgumentError):
            build_upscaled("ex5")

    def test_manufactured_datum_balances_the_groups(self):
        # the datum that makes sin(pi t)(1 - t) exact is h = -pi sum K,
        # so its limit per edge is -pi sum s_i K_i
        balance = -PI * (1 / 3 * 1.0 + 2 / 3 * 2.0)
        p = build_upscaled("manufactured", h=lambda n: balance * n)
        assert p.hbar == pytest.approx(balance)
        assert build_upscaled("manufactured").hbar == 0.0


class TestCenterLimit:
    def test_two_frequency_value(self):
        # moments: int (1-t) 4 pi^2 sin(2 pi t) = 2 pi, int (1-t) pi^2
        # sin(pi t) = pi, so the balance gives 4 pi / 5
        assert center_limit(build_upscaled("ex3")) == pytest.approx(
            4 * PI / 5, abs=1e-12)

    def test_constant_value(self):
        p = build_upscaled("constant", {"c": 2.0})
        assert center_limit(p) == pytest.approx((2.0 / 2) / (5 / 3), abs=1e-13)

    def test_manufactured_center_vanishes(self):
        balance = -PI * (1 / 3 * 1.0 + 2 / 3 * 2.0)
        p = build_upscaled("manufactured", h=lambda n: balance * n)
        assert center_limit(p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_adaptive_quadrature(self):
        p = _two_group()
        mom = sum(p.s[i] * quad_moment(p.fbar[i]) for i in range(2))
        expect = mom / (1 / 3 + 4 / 3)
        assert center_limit(p) == pytest.approx(expect, abs=1e-10)


class TestPredictedFlux:
    def test_two_frequency_values(self):
        p = build_upscaled("ex3")
        assert predicted_edge_flux(p, 1) == pytest.approx(6 * PI / 5,
                                                          abs=1e-10)
        assert predicted_edge_flux(p, 2) == pytest.approx(-3 * PI / 5,
                                                          abs=1e-10)

    def test_weighted_fluxes_balance_the_datum(self):
        for example, params in [("ex3", None), ("constant", {"c": 3.0}),
                                ("manufactured", None)]:
            p = build_upscaled(example, params)
            total = sum(p.s[i] * predicted_edge_flux(p, i + 1)
                        for i in range(p.groups))
            assert total == pytest.approx(-p.hbar, abs=1e-10)

    def test_group_index_validated(self):
        p = build_upscaled("ex3")
        with pytest.raises(InvalidArgumentError):
            predicted_edge_flux(p, 0)
        with pytest.raises(InvalidArgumentError):
            predicted_edge_flux(p, 3)


class TestSolveUpscaled:
    def test_single_group_star_is_allowed(self):
        p = UpscaledProblem(s=(1.0,), K=(1.0,),
                            fbar=(lambda t: np.full_like(t, 2.0),), hbar=0.0)
        hom = solve_upscaled(p, 64)
        t = hom.grids[0].nodes
        # -u'' = 2, u(1) = 0, flux balance pins u(0) = 1: u = 1 - t^2
        assert np.allclose(hom.grids[0].values, 1.0 - t * t, atol=1e-12)
        assert hom.center == pytest.approx(1.0, abs=1e-12)

    def test_mesh_validated(self):
        with pytest.raises(InvalidArgumentError):
            solve_upscaled(build_upscaled("ex3"), 1)

    def test_center_approaches_the_limit(self):
        p = build_upscaled("ex3")
        cl = center_limit(p)
        gap = [abs(solve_upscaled(p, m).center - cl) for m in (8, 32, 128)]
        assert gap[2] <= 1e-6
        assert gap[2] < gap[0]

    def test_discrete_flux_approaches_prediction(self):
        p = build_upscaled("ex3")
        hom = solve_upscaled(p, 400)
        for i in (1, 2):
            # one-sided slope converges first order; at m=400 the two
            # figures agree to ~1e-3 relative
            assert hom.edge_flux(i) == pytest.approx(
                predicted_edge_flux(p, i), rel=5e-3)

    def test_solution_matches_derived_curves(self):
        p = build_upscaled("ex3")
        hom = solve_upscaled(p, 200)
        derived = analytic_oracle("ex3")
        for i in (0, 1):
            ref = sample_grid(derived[i], 200)
            l2, h1 = grid_norms(hom.grids[i], ref)
            assert l2 <= 5e-5
            assert h1 <= 5e-2

    def test_constant_family_closed_form(self):
        p = build_upscaled("constant", {"c": 2.0})
        hom = solve_upscaled(p, 100)
        derived = analytic_oracle("constant", {"c": 2.0})
        for i in (0, 1):
            ref = sample_grid(derived[i], 100)
            assert np.max(np.abs(hom.grids[i].values - ref.values)) <= 1e-11


class TestOracle:
    def test_example_without_a_limit_has_no_oracle(self):
        with pytest.raises(InvalidArgumentError):
            analytic_oracle("ex5")

    def test_null_families_are_consistent(self):
        p = build_upscaled("ex1")
        t = np.linspace(0, 1, 7)
        for curves in (analytic_oracle("ex1"), printed_curves("ex1")):
            assert all(np.all(f(t) == 0.0) for f in curves)
            assert weighted_flux_defect(p, curves) == 0.0

    def test_two_frequency_printed_pair_is_flagged(self):
        printed = FAMILIES["ex3"].printed
        p = build_upscaled("ex3")
        # the printed curves miss the affine part: defect 4 pi / 3
        assert weighted_flux_defect(p, printed) == pytest.approx(
            4 * PI / 3, rel=1e-4)
        assert weighted_flux_defect(p, analytic_oracle("ex3")) <= 1e-6

    def test_derived_pair_adds_the_affine_part(self):
        derived = analytic_oracle("ex3")
        t = np.linspace(0, 1, 11)
        v = 4 * PI / 5
        assert np.allclose(derived[0](t),
                           np.sin(2 * PI * t) + v * (1 - t), atol=1e-13)
        assert np.allclose(derived[1](t),
                           0.5 * np.sin(PI * t) + v * (1 - t), atol=1e-13)

    def test_alternating_root_family_has_no_printed_pair(self):
        assert FAMILIES["ex4"].printed is None
        with pytest.raises(InvalidArgumentError):
            printed_curves("ex4")
        assert len(analytic_oracle("ex4")) == 2

    @pytest.mark.parametrize("example,params", [
        ("ex1", None), ("ex3", None), ("constant", {"c": 2.0}),
    ])
    def test_derived_oracle_reproduces_the_closed_forms(self, example,
                                                        params):
        # the curves written out for each family before they were derived
        # from the record: zero, the corrected ex3 pair, and the constant
        # family's c (1 - t^2) / (2 K) + (v - c / (2 K)) (1 - t)
        t = np.linspace(0, 1, 13)
        v = center_limit(build_upscaled(example, params))
        c = (params or {}).get("c", 0.0)
        expect = {
            "ex1": [0 * t, 0 * t],
            "ex3": [np.sin(2 * PI * t) + v * (1 - t),
                    0.5 * np.sin(PI * t) + v * (1 - t)],
            "constant": [c * (1 - t * t) / (2 * k) + (v - c / (2 * k)) * (1 - t)
                         for k in (1.0, 2.0)],
        }[example]
        for f, e in zip(analytic_oracle(example, params), expect):
            assert np.allclose(f(t), e, atol=1e-13)

    def test_manufactured_oracle_is_the_exact_solution(self):
        balance = -PI * (1 / 3 * 1.0 + 2 / 3 * 2.0)
        t = np.linspace(0, 1, 13)
        # the center limit is zero up to the moment quadrature, ~1e-13
        for f in analytic_oracle("manufactured", h=lambda n: balance * n):
            assert np.allclose(f(t), np.sin(PI * t) * (1 - t), atol=1e-12)


class TestConfiguredLaw:
    """References follow the coefficient law, orientation and datum."""

    def test_rim_composes_forcing_particular_and_printed_with_one_minus_t(
            self):
        rim = {"orientation": "rim"}
        t = np.linspace(0, 1, 9)
        p = build_upscaled("ex3", rim)
        assert np.allclose(p.fbar[0](t), 4 * PI**2 * np.sin(2 * PI * (1 - t)))
        printed = printed_curves("ex3", rim)
        assert np.allclose(printed[1](t), 0.5 * np.sin(PI * (1 - t)))
        derived = analytic_oracle("ex3", rim)
        assert weighted_flux_defect(p, derived) <= 1e-6
        v = center_limit(p)
        assert np.allclose(derived[0](t), np.sin(2 * PI * (1 - t))
                           + v * (1 - t), atol=1e-13)

    def test_deterministic_shares_come_from_the_rule(self):
        p = build_upscaled("ex3", probs=(0.5, 0.5))
        assert p.s == (1 / 3, 2 / 3)
        q = build_upscaled("ex1", probs=(0.5, 0.5), coeff="random")
        assert q.s == (0.5, 0.5)

    def test_oracle_uses_the_configured_values(self):
        derived = analytic_oracle("ex3", values=(1.0, 3.0))
        v = center_limit(build_upscaled("ex3", values=(1.0, 3.0)))
        t = np.linspace(0, 1, 9)
        assert np.allclose(derived[1](t), np.sin(PI * t) / 3 + v * (1 - t),
                           atol=1e-13)

    def test_datum_limit(self):
        assert datum_limit(2.5) == 0.0
        assert datum_limit(lambda n: 2.5) == 0.0
        assert datum_limit(lambda n: 0.1 * n) == 0.1
        assert build_upscaled("ex3", h=lambda n: 0.5 * n).hbar == 0.5

    @pytest.mark.parametrize("example", ["ex3", "ex4", "manufactured"])
    def test_index_split_families_have_no_random_reference(self, example):
        for make in (build_upscaled, analytic_oracle):
            with pytest.raises(InvalidArgumentError, match="random"):
                make(example, coeff="random")

    def test_single_class_families_allow_random_coefficients(self):
        p = build_upscaled("constant", {"c": 1.0}, probs=(0.25, 0.75),
                           coeff="random")
        assert p.s == (0.25, 0.75)
