"""Per-edge radial forcing fields and their Cesaro and angular averages.

A field assigns to edge l a profile F_l(t) on [0,1]. Every built-in family
except ``manufactured`` is A(l) sin(b(l) t) + c(l) and is declared once, by
a function returning its per-edge coefficient arrays (A, b, c): the
pointwise profile is derived from that declaration, and the load assembly
reads it directly to share one hat-load row between all edges with the same
frequency b. Group averaging is plain arithmetic over the edges of a
coefficient group. Random families pre-draw their per-edge randomness at
construction, so evaluation is pure and safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from ._rng import stage_rng
from .errors import EmptyGroupError, InvalidArgumentError
from .stargraph import StarStage, TWO_PI

PI = np.pi

# 3-point Gauss-Legendre rule on [0,1]; used for every load integral
GAUSS3_X = np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)])
GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])

FAMILY_IDS = ("ex1", "ex2", "ex3", "ex4", "ex5", "constant", "manufactured")


@dataclass(frozen=True)
class GridFunction:
    """Samples of a scalar function at the m+1 uniform nodes of [0,1].

    The orientation tag records which end is the star center (t = 0).
    """

    m: int
    values: np.ndarray
    orientation: str = "center"

    def __post_init__(self):
        if self.m < 2:
            raise InvalidArgumentError("grid needs m >= 2 elements")
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.m + 1,):
            raise InvalidArgumentError("grid carries m + 1 nodal values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m + 1) / self.m


@dataclass(frozen=True)
class ForcingField:
    """Radial forcing indexed by edge.

    ``bounded_l2`` is a uniform bound on the per-edge L2 norms when one
    exists. ``known_group_limit`` holds the closed-form Cesaro limit per
    group when the family has one. ``profile(ells, t)`` evaluates a whole
    block of edges at once. A sine family also carries its declaration
    ``sine_coeffs(ells) -> (A, b, c)`` (arrays or scalars per edge) of
    A sin(b s) + c, with s = t, or s = 1 - t under ``orientation`` "rim";
    its profile is built from it and the load assembly reads it in place of
    ``profile``. A field without one is assembled point by point.
    """

    family_id: str
    parameters: dict
    seed: Optional[int]
    profile: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bounded_l2: Optional[float] = None
    known_group_limit: Optional[tuple] = None
    max_edge: Optional[int] = None
    sine_coeffs: Optional[Callable[[np.ndarray], tuple]] = None

    def _edges(self, ells) -> np.ndarray:
        """Edge indices as an int array, checked against 1..max_edge."""
        ells = np.asarray(ells, dtype=int)
        if np.any(ells < 1):
            raise InvalidArgumentError("edge index starts at 1")
        if self.max_edge is not None and np.any(ells > self.max_edge):
            raise InvalidArgumentError(
                f"{self.family_id} pre-drew randomness for edges 1..{self.max_edge}")
        return ells

    def values(self, ells, t) -> np.ndarray:
        """Profile values for edges ``ells`` at radial points ``t``.

        Returns an array of shape (len(ells),) + t.shape."""
        return self.profile(self._edges(ells), np.asarray(t, dtype=float))

    def eval(self, ell: int, t: float) -> float:
        return float(self.values(np.array([ell]), np.array([t]))[0, 0])


def _sine_profile(coeffs):
    """Profile A(l) sin(b(l) t) + c(l) from ``coeffs(ells) -> (A, b, c)``."""

    def profile(ells, t):
        tt = t.reshape((1,) + t.shape)
        Ae, be, ce = (np.broadcast_to(v, ells.shape).reshape(
            ells.shape + (1,) * t.ndim) for v in coeffs(ells))
        return Ae * np.sin(be * tt) + ce

    return profile


def _angular_ex3(ells):
    # sign alternates in blocks of six; magnitude is the mod-2*pi remainder,
    # which is bounded and Cesaro-null, unlike a literal l - floor(l/(2*pi))
    return (-1.0) ** (ells // 6) * 10.0 * np.mod(ells, TWO_PI)


def _radial_groups(ells):
    """(A, b) of the two-frequency radial part shared by ex3 and ex4."""
    g1 = ells % 3 == 0
    return np.where(g1, 4 * PI**2, PI**2), np.where(g1, TWO_PI, PI)


_SQ2 = np.sqrt(2.0)


def manufactured_profile(t):
    """g with -(sin(pi t)(1 - t))'' = g, so F_e = K_e g manufactures p_e."""
    return PI**2 * np.sin(PI * t) * (1.0 - t) + 2.0 * PI * np.cos(PI * t)


def manufactured_exact(t):
    return np.sin(PI * t) * (1.0 - t)


def manufactured_exact_deriv(t):
    return PI * np.cos(PI * t) * (1.0 - t) - np.sin(PI * t)


def _validate_params(example_id: str, parameters: dict, allowed: set):
    unknown = set(parameters) - allowed - {"orientation"}
    if unknown:
        raise InvalidArgumentError(
            f"{example_id} does not take parameters {sorted(unknown)}")
    orientation = parameters.get("orientation", "center")
    if orientation not in ("center", "rim"):
        raise InvalidArgumentError("orientation is 'center' or 'rim'")
    return orientation


def builtin_field(example_id: str, parameters: dict | None = None,
                  seed: int | None = None) -> ForcingField:
    """Construct one of the built-in forcing families.

    ``parameters`` per family: ex2 takes ``noise`` (uniform amplitude,
    default 2.0) and a required ``n_edges`` (randomness is pre-drawn);
    constant takes ``c``; manufactured takes optional ``coeffs``. Every
    family accepts ``orientation`` ("center" or "rim"); "rim" evaluates the
    radial profile at 1 - t, which is how a table computed with t measured
    from the rim is reproduced.
    """
    parameters = dict(parameters or {})
    bounded = None
    limits = None
    max_edge = None
    sine = None

    if example_id == "ex1":
        _validate_params(example_id, parameters, set())

        def sine(l):
            return PI**2 * np.cos(l), PI, 0.0

        bounded = PI**2 / _SQ2
        zero = np.zeros_like
        limits = (lambda t: zero(t), lambda t: zero(t))
    elif example_id == "ex2":
        _validate_params(example_id, parameters, {"noise", "n_edges"})
        noise = float(parameters.get("noise", 2.0))
        if noise < 0:
            raise InvalidArgumentError("noise amplitude must be >= 0")
        if "n_edges" not in parameters:
            raise InvalidArgumentError("ex2 needs n_edges to pre-draw its noise")
        max_edge = int(parameters["n_edges"])
        if max_edge < 1:
            raise InvalidArgumentError("n_edges must be >= 1")
        z = stage_rng(0 if seed is None else seed, max_edge).uniform(
            -noise, noise, size=max_edge)
        z.flags.writeable = False

        def sine(l):
            return PI**2 * np.cos(l), PI, z[l - 1]

        bounded = PI**2 / _SQ2 + noise
        zero = np.zeros_like
        limits = (lambda t: zero(t), lambda t: zero(t))
    elif example_id in ("ex3", "ex4"):
        _validate_params(example_id, parameters, set())
        angular = _angular_ex3 if example_id == "ex3" else (
            lambda l: (-1.0) ** l * np.sqrt(l.astype(float)))

        def sine(l):
            return _radial_groups(l) + (angular(l),)

        if example_id == "ex3":
            bounded = 4 * PI**2 / _SQ2 + 20 * PI
        limits = (lambda t: 4 * PI**2 * np.sin(TWO_PI * t),
                  lambda t: PI**2 * np.sin(PI * t))
    elif example_id == "ex5":
        _validate_params(example_id, parameters, set())

        def sine(l):
            A, b = _radial_groups(l)
            return A, b * l, 0.0

        # b is an integer multiple of pi, so every edge norm is exactly A/sqrt(2)
        bounded = 4 * PI**2 / _SQ2
    elif example_id == "constant":
        _validate_params(example_id, parameters, {"c"})
        cval = float(parameters.get("c", 0.0))

        def sine(l):
            return 0.0, 0.0, cval

        bounded = abs(cval)
        limits = (lambda t: np.full_like(t, cval), lambda t: np.full_like(t, cval))
    elif example_id == "manufactured":
        _validate_params(example_id, parameters, {"coeffs"})
        coeffs = parameters.get("coeffs")
        if coeffs is None:
            def kfun(l):
                return np.where(l % 3 == 0, 1.0, 2.0)
            kmax = 2.0
        else:
            karr = np.asarray(coeffs, dtype=float)

            def kfun(l):
                return karr[l - 1]
            kmax = float(karr.max())
            max_edge = len(karr)

        def profile(ells, t, _k=kfun):
            g = manufactured_profile(t)
            return _k(ells).reshape(ells.shape + (1,) * t.ndim) * g[None, ...]

        tq = (np.arange(64)[:, None] + GAUSS3_X[None, :]).ravel() / 64
        wq = np.tile(GAUSS3_W / 64, 64)
        gnorm = float(np.sqrt(np.sum(wq * manufactured_profile(tq) ** 2)))
        bounded = kmax * gnorm
        if coeffs is None:
            # groups follow the deterministic rule, so the group averages
            # are exactly K_i g
            limits = (lambda t: 1.0 * manufactured_profile(t),
                      lambda t: 2.0 * manufactured_profile(t))
    else:
        raise InvalidArgumentError(f"unknown example id {example_id!r}")

    if sine is not None:
        profile = _sine_profile(sine)
    if parameters.get("orientation", "center") == "rim":
        inner = profile

        def profile(ells, t, _inner=inner):
            return _inner(ells, 1.0 - t)

    return ForcingField(family_id=example_id, parameters=parameters, seed=seed,
                        profile=profile, bounded_l2=bounded,
                        known_group_limit=limits, max_edge=max_edge,
                        sine_coeffs=sine)


def edge_load_moment(field: ForcingField, ell: int, panels: int = 64) -> float:
    """int_0^1 (1 - t) F_l(t) dt by composite 3-point Gauss.

    The rule's error scales like the sixth power of oscillations per
    panel: 64 panels hit machine precision for a handful of oscillations
    on [0, 1] but only ~1e-7 for a dozen, so pass more panels for fast
    fields.
    """
    if panels < 1:
        raise InvalidArgumentError("panels must be >= 1")
    t = ((np.arange(panels)[:, None] + GAUSS3_X[None, :]) / panels).ravel()
    w = np.tile(GAUSS3_W / panels, panels)
    vals = field.values(np.array([ell]), t)[0]
    return float(np.sum(w * (1.0 - t) * vals))


def profile_moment(f: Callable[[np.ndarray], np.ndarray], panels: int = 64) -> float:
    """Same weighted integral for a bare profile t -> f(t)."""
    t = ((np.arange(panels)[:, None] + GAUSS3_X[None, :]) / panels).ravel()
    w = np.tile(GAUSS3_W / panels, panels)
    return float(np.sum(w * (1.0 - t) * np.asarray(f(t), dtype=float)))


def cesaro_forcing_average(field: ForcingField, stage: StarStage, group: int,
                           m: int) -> GridFunction:
    """Nodewise mean of F_l over the edges of one group, on an m-element grid."""
    mask = stage.group_mask(group)
    if not mask.any():
        raise EmptyGroupError(f"group {group} has no edges at stage n={stage.n}")
    ells = np.flatnonzero(mask) + 1
    t = np.arange(m + 1) / m
    return GridFunction(m=m, values=field.values(ells, t).mean(axis=0))


def angular_average(f: Callable[[float, float], float], t: float,
                    count: int) -> float:
    """Mean of f over the circle of radius t.

    Trapezoid on the periodic circle, which is spectrally accurate for
    smooth integrands, so a modest count suffices.
    """
    if not 0.0 <= t < 1.0:
        raise InvalidArgumentError("radius t must lie in [0, 1)")
    if count < 4:
        raise InvalidArgumentError("quadrature count must be >= 4")
    theta = TWO_PI * np.arange(count) / count
    vals = [float(f(t * np.cos(a), t * np.sin(a))) for a in theta]
    return float(np.mean(vals))
