"""The homogenized I-edge problem and its analytic reference registry.

The limit of the per-group Cesaro averages solves a small star problem
with one edge per coefficient group, edge weight s_i K_i (share times
group value), forcing s_i Fbar_i, and center datum hbar. That problem is
solved by the same structured elimination as any stage, with the weights
folded into coefficients and loads; there is no separate small-problem
code path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .femsolve import StageSolution, solve_stage
from .forcing import (GridFunction, ForcingField, manufactured_exact,
                      manufactured_profile, profile_moment)
from .stargraph import GROUP_PROBS, GROUP_VALUES, group_star

PI = np.pi


def _as_callable(f):
    if isinstance(f, GridFunction):
        nodes, vals = f.nodes, f.values
        return lambda t: np.interp(t, nodes, vals)
    if callable(f):
        return f
    raise InvalidArgumentError("group forcing must be callable or a GridFunction")


@dataclass(frozen=True)
class UpscaledProblem:
    """Limit problem data: shares s, group values K, group forcings, datum.

    fbar entries may be callables t -> value or GridFunctions (interpolated
    linearly); they are normalized to callables on construction.
    """

    s: tuple
    K: tuple
    fbar: tuple
    hbar: float = 0.0

    def __post_init__(self):
        s = tuple(float(v) for v in self.s)
        K = tuple(float(v) for v in self.K)
        if not (len(s) == len(K) == len(self.fbar)) or not s:
            raise InvalidArgumentError("s, K, fbar must share a positive length")
        if any(v <= 0 for v in s) or abs(sum(s) - 1.0) > 1e-9:
            raise InvalidArgumentError("shares must be positive and sum to 1")
        if any(v <= 0 for v in K):
            raise InvalidArgumentError("group coefficient values must be positive")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "fbar", tuple(_as_callable(f) for f in self.fbar))
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def groups(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class HomogenizedSolution:
    problem: UpscaledProblem
    m: int
    center: float
    grids: tuple
    raw: StageSolution

    def edge_flux(self, i: int) -> float:
        """K_i times the discrete slope of pbar_i at the center."""
        if not 1 <= i <= self.problem.groups:
            raise InvalidArgumentError(f"group index {i} out of range")
        g = self.grids[i - 1]
        return self.problem.K[i - 1] * (g.values[1] - g.values[0]) * self.m


def _upscaled_field(problem: UpscaledProblem) -> ForcingField:
    s, fbar = problem.s, problem.fbar

    def profile(ells, t):
        out = np.empty(ells.shape + t.shape)
        for j, l in enumerate(ells):
            out[j] = s[l - 1] * np.asarray(fbar[l - 1](t), dtype=float)
        return out

    return ForcingField(family_id="upscaled", parameters={}, seed=None,
                        profile=profile, max_edge=problem.groups)


def solve_upscaled(problem: UpscaledProblem, m: int) -> HomogenizedSolution:
    """Solve the limit problem on m elements per group edge.

    The one-group case is allowed here: the upscaled problem is a flux
    boundary condition problem on a single interval, not a graph stage, so
    the n >= 2 rule for stages does not apply.
    """
    if m < 2:
        raise InvalidArgumentError("need m >= 2 elements per edge")
    I = problem.groups
    stage = group_star([problem.s[i] * problem.K[i] for i in range(I)])
    sol = solve_stage(stage, _upscaled_field(problem), problem.hbar, m)
    grids = tuple(GridFunction(m=m, values=sol.values[i]) for i in range(I))
    return HomogenizedSolution(problem=problem, m=m, center=sol.center,
                               grids=grids, raw=sol)


def center_limit(problem: UpscaledProblem) -> float:
    """Predicted limiting center value (hbar + sum s_i moments) / sum s_i K_i."""
    mom = sum(problem.s[i] * profile_moment(problem.fbar[i])
              for i in range(problem.groups))
    return (problem.hbar + mom) / sum(
        problem.s[i] * problem.K[i] for i in range(problem.groups))


def predicted_edge_flux(problem: UpscaledProblem, i: int) -> float:
    """Limiting K_i dpbar_i(0), from the per-group balance identity."""
    if not 1 <= i <= problem.groups:
        raise InvalidArgumentError(f"group index {i} out of range")
    return profile_moment(problem.fbar[i - 1]) - problem.K[i - 1] * center_limit(problem)


def build_upscaled(example_id: str, parameters: dict | None = None,
                   probs: Sequence[float] = GROUP_PROBS,
                   values: Sequence[float] = GROUP_VALUES) -> UpscaledProblem:
    """Limit problem for a built-in family under the two-group coefficient law.

    ex5 has no pointwise group limit (its frequencies grow with the edge
    index), so it has no upscaled problem here.
    """
    parameters = dict(parameters or {})
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    if example_id in ("ex1", "ex2"):
        fbar = (zero,) * len(tuple(probs))
        hbar = 0.0
    elif example_id in ("ex3", "ex4"):
        fbar = (lambda t: 4 * PI**2 * np.sin(2 * PI * t),
                lambda t: PI**2 * np.sin(PI * t))
        hbar = 0.0
    elif example_id == "constant":
        c = float(parameters.get("c", 0.0))
        fbar = tuple(lambda t, _c=c: np.full_like(np.asarray(t, dtype=float), _c)
                     for _ in tuple(probs))
        hbar = 0.0
    elif example_id == "manufactured":
        fbar = tuple(lambda t, _k=k: _k * manufactured_profile(t) for k in values)
        hbar = -PI * float(np.dot(probs, values))
    else:
        raise InvalidArgumentError(
            f"no known upscaled problem for example {example_id!r}")
    return UpscaledProblem(s=tuple(probs), K=tuple(values), fbar=fbar, hbar=hbar)


@dataclass(frozen=True)
class OracleEntry:
    """Registered exact limit solutions for one example.

    ``printed`` holds reference curves exactly as published when the source
    prints any; ``derived`` is the pair consistent with the weighted center
    flux balance under the t=0-at-center convention. ``consistent`` records
    whether the printed pair passes that balance check; when it does not,
    both are kept so a table harness can report against each.
    """

    example_id: str
    derived: tuple
    printed: Optional[tuple] = None
    consistent: bool = True
    note: str = ""

    def reference(self, which: str) -> tuple:
        if which == "derived":
            return self.derived
        if which == "printed":
            if self.printed is None:
                raise InvalidArgumentError(
                    f"{self.example_id} has no printed reference curves")
            return self.printed
        raise InvalidArgumentError("reference is 'derived' or 'printed'")


def weighted_flux_defect(problem: UpscaledProblem,
                         funcs: Sequence[Callable]) -> float:
    """|sum_i s_i K_i f_i'(0) + hbar| with a one-sided O(d^2) slope."""
    d = 1e-6
    total = problem.hbar
    for i, f in enumerate(funcs):
        slope = (-3 * float(f(0.0)) + 4 * float(f(d)) - float(f(2 * d))) / (2 * d)
        total += problem.s[i] * problem.K[i] * slope
    return abs(total)


def analytic_oracle(example_id: str,
                    parameters: dict | None = None) -> Optional[OracleEntry]:
    """Exact limit curves for the examples that have them, else None.

    For ex3 the published pair fails the weighted flux balance at the
    center under the fixed orientation (defect 4 pi / 3), so it is returned
    flagged, next to the corrected pair obtained by adding the affine part
    (4 pi / 5)(1 - t) that restores the balance.
    """
    parameters = dict(parameters or {})
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
    if example_id in ("ex1", "ex2"):
        return OracleEntry(example_id=example_id, derived=(zero, zero),
                           printed=(zero, zero), consistent=True,
                           note="group averages vanish in the limit")
    if example_id in ("ex3", "ex4"):
        printed = (lambda t: np.sin(2 * PI * t),
                   lambda t: 0.5 * np.sin(PI * t))
        v = 4 * PI / 5
        derived = (lambda t: np.sin(2 * PI * t) + v * (1.0 - t),
                   lambda t: 0.5 * np.sin(PI * t) + v * (1.0 - t))
        problem = build_upscaled("ex3")
        consistent = weighted_flux_defect(problem, printed) <= 1e-6
        if example_id == "ex4":
            return OracleEntry(example_id="ex4", derived=derived,
                               note="same limit problem as ex3")
        return OracleEntry(example_id="ex3", derived=derived, printed=printed,
                           consistent=consistent,
                           note="printed pair violates the weighted flux "
                                "balance; see the corrected pair")
    if example_id == "constant":
        c = float(parameters.get("c", 0.0))
        problem = build_upscaled("constant", {"c": c})
        v = center_limit(problem)

        def make(i):
            k = problem.K[i]
            return lambda t: c * (1.0 - t * t) / (2 * k) + (v - c / (2 * k)) * (1.0 - t)

        derived = tuple(make(i) for i in range(problem.groups))
        return OracleEntry(example_id="constant", derived=derived,
                           printed=derived, consistent=True)
    if example_id == "manufactured":
        derived = (manufactured_exact, manufactured_exact)
        return OracleEntry(example_id="manufactured", derived=derived,
                           printed=derived, consistent=True)
    return None
