"""The homogenized I-edge problem and the references derived from it.

The limit of the per-group Cesaro averages solves a small star problem
with one edge per coefficient group, edge weight s_i K_i (share times
group value), forcing s_i Fbar_i, and center datum hbar. That problem is
solved by the same structured elimination as any stage, with the weights
folded into coefficients and loads; there is no separate small-problem
code path.

The limit problem, the derived oracle (particular_i / K_i + center_limit
(1 - t)) and the printed curves all come from the family's record
(``forcing.FAMILIES``) under the configured law: the source's shares,
hbar = lim h/n, and 1 - t composed in under ``orientation`` "rim".
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ._record import Record
from .errors import InvalidArgumentError
from .femsolve import solve_stage
from .forcing import GridFunction, ForcingField, family, profile_moment
from .stargraph import GROUP_PROBS, GROUP_VALUES, group_shares, group_star

PI = np.pi


def _as_callable(f):
    if isinstance(f, GridFunction):
        nodes, vals = f.nodes, f.values
        return lambda t: np.interp(t, nodes, vals)
    if callable(f):
        return f
    raise InvalidArgumentError("group forcing must be callable or a GridFunction")


class UpscaledProblem(Record):
    """Limit problem data: shares s, group values K, group forcings, datum.

    fbar entries may be callables t -> value or GridFunctions (interpolated
    linearly); they are normalized to callables on construction.
    """

    def __init__(self, s: tuple, K: tuple, fbar: tuple, hbar: float = 0.0):
        s = tuple(float(v) for v in s)
        K = tuple(float(v) for v in K)
        if not (len(s) == len(K) == len(fbar)) or not s:
            raise InvalidArgumentError("s, K, fbar must share a positive length")
        if any(v <= 0 for v in s) or abs(sum(s) - 1.0) > 1e-9:
            raise InvalidArgumentError("shares must be positive and sum to 1")
        if any(v <= 0 for v in K):
            raise InvalidArgumentError("group coefficient values must be positive")
        self._set(s=s, K=K, fbar=tuple(_as_callable(f) for f in fbar),
                  hbar=float(hbar))

    @property
    def groups(self) -> int:
        return len(self.s)


class HomogenizedSolution(Record):
    def __init__(self, problem: UpscaledProblem, m: int, center: float,
                 grids: tuple):
        self._set(problem=problem, m=m, center=center, grids=grids)

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
                               grids=grids)


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


def datum_limit(h) -> float:
    """hbar = lim h(n)/n of a stage datum ``h``, a number or a function of n.

    A number gives 0; a function is taken as affine (``h = a`` or ``h =
    b*n`` in a config), so its limit is the slope h(2) - h(1), exact there.
    """
    if not callable(h):
        return 0.0
    return float(h(2)) - float(h(1))


def _rim(curves: Sequence[Callable], parameters: dict) -> tuple:
    """The curves composed with 1 - t under ``orientation`` "rim"."""
    if parameters.get("orientation", "center") != "rim":
        return tuple(curves)
    return tuple(lambda t, f=f: f(1.0 - np.asarray(t, dtype=float))
                 for f in curves)


def _limit(example_id: str, parameters: dict | None, probs, values,
           coeff: str, h):
    """The limit problem, each group's particular, and the printed curves.

    One forcing class serves every group; two are the groups of the
    deterministic rule, and random coefficients mix them in every group.
    """
    parameters = dict(parameters or {})
    record = family(example_id)
    classes = record.classes(parameters)
    if classes is None:
        raise InvalidArgumentError(
            f"{example_id} has no pointwise group limit")
    shares = group_shares(coeff, probs, values)
    if len(classes) == 1:
        classes = classes * len(shares)
    elif coeff != "deterministic":
        raise InvalidArgumentError(
            f"{example_id} splits its forcing by edge index, so under "
            f"{coeff} coefficients every group mixes its classes and has no "
            f"reference; use coeff = deterministic")
    problem = UpscaledProblem(s=shares, K=tuple(values),
                              fbar=_rim([f for f, _ in classes], parameters),
                              hbar=datum_limit(h))
    printed = record.printed and _rim(record.printed, parameters)
    return problem, _rim([p for _, p in classes], parameters), printed


def build_upscaled(example_id: str, parameters: dict | None = None,
                   probs: Sequence[float] = GROUP_PROBS,
                   values: Sequence[float] = GROUP_VALUES, *,
                   coeff: str = "deterministic", h=0.0) -> UpscaledProblem:
    """Limit problem of a built-in family under the configured law.

    Shares from ``group_shares``, forcings from the family's record, hbar
    from ``datum_limit``. ex5 has no pointwise group limit (its frequencies
    grow with the edge index), so it has no upscaled problem.
    """
    return _limit(example_id, parameters, probs, values, coeff, h)[0]


def analytic_oracle(example_id: str, parameters: dict | None = None,
                    probs: Sequence[float] = GROUP_PROBS,
                    values: Sequence[float] = GROUP_VALUES, *,
                    coeff: str = "deterministic", h=0.0) -> tuple:
    """Exact limit curve of each group, derived from the family's record.

    Group i solves -K_i p'' = Fbar_i with p(1) = 0 and the limiting center
    value v at t = 0, so p_i = particular_i / K_i + v (1 - t), with v from
    the weighted flux balance (``center_limit``). Raises for a family or a
    law with no limit, as ``build_upscaled`` does.
    """
    problem, particulars, _ = _limit(example_id, parameters, probs, values,
                                     coeff, h)
    v = center_limit(problem)
    return tuple(lambda t, p=p, k=k: p(t) / k + v * (1.0 - t)
                 for p, k in zip(particulars, problem.K))


def printed_curves(example_id: str, parameters: dict | None = None,
                   probs: Sequence[float] = GROUP_PROBS,
                   values: Sequence[float] = GROUP_VALUES, *,
                   coeff: str = "deterministic") -> tuple:
    """The group curves as the paper prints them, in the given orientation.

    The ex3 pair fails the weighted flux balance at the center (defect
    4 pi / 3, measured by ``weighted_flux_defect`` in the test suite's
    ``tests/_reference.py``); the derived oracle restores it.
    The law must admit a limit, as for ``build_upscaled``.
    """
    printed = _limit(example_id, parameters, probs, values, coeff, 0.0)[2]
    if printed is None:
        raise InvalidArgumentError(
            f"{example_id} has no printed reference curves")
    return printed
