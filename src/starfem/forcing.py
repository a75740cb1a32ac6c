"""Per-edge radial forcing fields and their group limits.

A field assigns to edge l a profile F_l(t) on [0,1]. Each built-in family
is one record in ``FAMILIES``: its per-edge declaration, the limit forcing
and zero-ended particular solution of each forcing class, and the curves
the paper prints. ``builtin_field`` builds a field from the declaration;
``upscale`` builds the limit problem and the derived oracle from the rest.
Every family but ``manufactured`` is A(l) sin(pi q(l) t) + c(l) with an
integer q(l), declared by its per-edge triple (A, q, c): the profile is
built from it, and the load assembly reads it to fold every edge's loads
over q mod 2m. The radial classes of ex3, ex4 and ex5 are written once,
in ``RADIAL_CLASSES``, and split the edges by ``every_third``. Random
families pre-draw their per-edge randomness.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from ._record import Record
from ._rng import stage_rng
from .errors import InvalidArgumentError
from .stargraph import TWO_PI, every_third

PI = np.pi

# 3-point Gauss-Legendre rule on [0,1]; used for every load integral
GAUSS3_X = np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)])
GAUSS3_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


class GridFunction(Record):
    """Samples of a scalar function at the m+1 uniform nodes of [0,1]."""

    def __init__(self, m: int, values):
        if m < 2:
            raise InvalidArgumentError("grid needs m >= 2 elements")
        vals = np.array(values, dtype=float)
        if vals.shape != (m + 1,):
            raise InvalidArgumentError("grid carries m + 1 nodal values")
        vals.flags.writeable = False
        self._set(m=m, values=vals)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.m + 1) / self.m


class ForcingField(Record):
    """Radial forcing indexed by edge.

    ``profile(ells, t)`` evaluates a whole block of edges at once. A sine
    family also carries its declaration ``pi_sine_coeffs(ells) -> (A, q,
    c)`` (arrays or scalars per edge, q an integer) of A sin(pi q s) + c,
    with s = t, or s = 1 - t under ``orientation`` "rim"; its profile is
    built from it, and the load assembly reads it in place of ``profile``.
    A field without one is assembled from its values at the Gauss points.
    A built-in declaration also takes the ``every_third`` mask of ``ells``
    as a second argument, when its caller has it.
    """

    def __init__(self, family_id: str, parameters: dict, seed: Optional[int],
                 profile: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 max_edge: Optional[int] = None,
                 pi_sine_coeffs: Optional[Callable[[np.ndarray], tuple]] = None):
        self._set(family_id=family_id, parameters=parameters, seed=seed,
                  profile=profile, max_edge=max_edge,
                  pi_sine_coeffs=pi_sine_coeffs)

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
    """Profile A(l) sin(pi q(l) t) + c(l) from ``coeffs(ells) -> (A, q, c)``."""

    def profile(ells, t):
        tt = t.reshape((1,) + t.shape)
        Ae, qe, ce = (np.broadcast_to(v, ells.shape).reshape(
            ells.shape + (1,) * t.ndim) for v in coeffs(ells))
        return Ae * np.sin(PI * qe * tt) + ce

    return profile


#: (A, q) of the radial classes of ex3, ex4 and ex5: A sin(pi q t) with
#: the first pair on every third edge (l = 3, 6, ...), the second elsewhere
RADIAL_CLASSES = ((4 * PI**2, 2), (PI**2, 1))

#: factor k of the manufactured forcing k g, by the same every-third-edge rule
MANUFACTURED_K = (1.0, 2.0)


def _by_class(ells, *pairs, third=None):
    """Per pair, pair[0] on every third edge and pair[1] on the others.

    ``third`` is the ``every_third`` mask of ``ells`` if the caller has it.
    """
    first = every_third(ells) if third is None else third
    return tuple(np.where(first, a, b) for a, b in pairs)


def _radial_groups(ells, third=None):
    """(A, q) of the two-frequency radial part shared by ex3, ex4 and ex5."""
    return _by_class(ells, *zip(*RADIAL_CLASSES), third=third)


def _angular_ex3(ells):
    # sign alternates in blocks of six; magnitude is the mod-2*pi remainder,
    # which is bounded and Cesaro-null, unlike a literal l - floor(l/(2*pi))
    # (ells // 6) & 1 is the parity: the sign without a float power
    return (1 - 2 * ((ells // 6) & 1)) * (10.0 * np.mod(ells, TWO_PI))


def manufactured_profile(t):
    """g with -(sin(pi t)(1 - t))'' = g, so F_e = K_e g manufactures p_e."""
    return PI**2 * np.sin(PI * t) * (1.0 - t) + 2.0 * PI * np.cos(PI * t)


def manufactured_exact(t):
    return np.sin(PI * t) * (1.0 - t)


def manufactured_exact_deriv(t):
    return PI * np.cos(PI * t) * (1.0 - t) - np.sin(PI * t)


# Per-family declarations: (parameters, seed) -> ForcingField keywords,
# either ``pi_sine_coeffs`` or ``profile``, plus ``max_edge``.


def _fixed(sine):
    """Declaration of a sine family without parameters."""
    return lambda parameters, seed: dict(pi_sine_coeffs=sine)


def _ex1_sine(l, third=None):
    return PI**2 * np.cos(l), 1, 0.0


def _ex5_sine(l, third=None):
    """(A, q, c) of ex5: q = 2 l on every third edge, else l."""
    A, k = _radial_groups(l, third)
    return A, k * l, 0.0


def _ex2(parameters, seed):
    noise = float(parameters.get("noise", 2.0))
    if not 0 <= 2 * noise < np.inf:  # the width of [-noise, noise]
        raise InvalidArgumentError(
            f"noise must be >= 0 with 2 * noise finite, not {noise!r}")
    if "n_edges" not in parameters:
        raise InvalidArgumentError("ex2 needs n_edges to pre-draw its noise")
    max_edge = int(parameters["n_edges"])
    if max_edge < 1:
        raise InvalidArgumentError("n_edges must be >= 1")
    z = stage_rng(0 if seed is None else seed, max_edge).uniform(
        -noise, noise, size=max_edge)
    z.flags.writeable = False

    def sine(l, third=None):
        return _ex1_sine(l)[:2] + (z[l - 1],)

    return dict(pi_sine_coeffs=sine, max_edge=max_edge)


def _constant(parameters, seed):
    c = float(parameters.get("c", 0.0))
    return dict(pi_sine_coeffs=lambda l, third=None: (0.0, 0, c))


def _manufactured(parameters, seed):
    coeffs = parameters.get("coeffs")
    max_edge = None
    if coeffs is None:
        def kfun(l):
            return _by_class(l, MANUFACTURED_K)[0]
    else:
        karr = np.asarray(coeffs, dtype=float)

        def kfun(l):
            return karr[l - 1]
        max_edge = len(karr)

    def profile(ells, t):
        g = manufactured_profile(t)
        return kfun(ells).reshape(ells.shape + (1,) * t.ndim) * g[None, ...]

    return dict(profile=profile, max_edge=max_edge)


# Per-family limits: parameters -> one (forcing, particular) pair per
# forcing class, the particular p solving -p'' = forcing, p(0) = p(1) = 0.
# One class covers every edge; two split the edges by the every-third-edge
# rule, so they are the groups of the deterministic coefficient rule.

def _zero(t):
    return np.zeros_like(np.asarray(t, dtype=float))


def _sine_class(A, b):
    """Forcing A sin(b t) and its zero-ended particular (A / b^2) sin(b t)."""
    return (lambda t: A * np.sin(b * t), lambda t: A / b**2 * np.sin(b * t))


_NULL_LIMIT = ((_zero, _zero),)
_RADIAL_LIMIT = tuple(_sine_class(A, PI * q) for A, q in RADIAL_CLASSES)


def _constant_limit(parameters):
    c = float(parameters.get("c", 0.0))
    return ((lambda t: np.full_like(np.asarray(t, dtype=float), c),
             lambda t: c * t * (1.0 - t) / 2),)


def _manufactured_limit(parameters):
    if parameters.get("coeffs") is not None:
        return None  # explicit per-edge factors follow no class rule
    return tuple((lambda t, k=k: k * manufactured_profile(t),
                  lambda t, k=k: k * manufactured_exact(t))
                 for k in MANUFACTURED_K)


class Family(NamedTuple):
    """One forcing family: its per-edge declaration and its group limit.

    ``declare(parameters, seed)`` gives ForcingField keywords, ``params``
    the parameters it takes besides ``orientation``. ``classes`` maps the
    parameters to the forcing classes, or to None when the group averages
    have no pointwise limit. ``printed``: published curves, t = 0 at center.
    """

    params: frozenset
    declare: Callable
    classes: Callable
    printed: Optional[tuple] = None


FAMILIES = {
    "ex1": Family(frozenset(), _fixed(_ex1_sine),
                  lambda p: _NULL_LIMIT, (_zero, _zero)),
    "ex2": Family(frozenset({"noise", "n_edges"}), _ex2,
                  lambda p: _NULL_LIMIT, (_zero, _zero)),
    "ex3": Family(frozenset(), _fixed(
                      lambda l, third=None: _radial_groups(l, third)
                      + (_angular_ex3(l),)),
                  lambda p: _RADIAL_LIMIT,
                  (lambda t: np.sin(TWO_PI * t),
                   lambda t: 0.5 * np.sin(PI * t))),
    "ex4": Family(frozenset(), _fixed(
                      lambda l, third=None: _radial_groups(l, third)
                      + ((1 - 2 * (l & 1)) * np.sqrt(l.astype(float)),)),
                  lambda p: _RADIAL_LIMIT),
    "ex5": Family(frozenset(), _fixed(_ex5_sine), lambda p: None),
    "constant": Family(frozenset({"c"}), _constant, _constant_limit),
    "manufactured": Family(frozenset({"coeffs"}), _manufactured,
                           _manufactured_limit),
}

FAMILY_IDS = tuple(FAMILIES)


def family(example_id: str) -> Family:
    """The record of a built-in family."""
    if example_id not in FAMILIES:
        raise InvalidArgumentError(f"unknown example id {example_id!r}")
    return FAMILIES[example_id]


def builtin_field(example_id: str, parameters: dict | None = None,
                  seed: int | None = None) -> ForcingField:
    """Construct one of the built-in forcing families from its record.

    ``parameters`` per family: ex2 takes ``noise`` (uniform amplitude,
    default 2.0) and a required ``n_edges`` (randomness is pre-drawn);
    constant takes ``c``; manufactured takes optional ``coeffs``. Every
    family accepts ``orientation`` ("center" or "rim"); "rim" evaluates the
    radial profile at 1 - t, which is how a table computed with t measured
    from the rim is reproduced.
    """
    parameters = dict(parameters or {})
    record = family(example_id)
    unknown = set(parameters) - record.params - {"orientation"}
    if unknown:
        raise InvalidArgumentError(
            f"{example_id} does not take parameters {sorted(unknown)}")
    orientation = parameters.get("orientation", "center")
    if orientation not in ("center", "rim"):
        raise InvalidArgumentError("orientation is 'center' or 'rim'")
    decl = record.declare(parameters, seed)
    profile = decl.pop("profile", None) or _sine_profile(decl["pi_sine_coeffs"])
    if orientation == "rim":
        inner = profile

        def profile(ells, t, _inner=inner):
            return _inner(ells, 1.0 - t)

    return ForcingField(family_id=example_id, parameters=parameters,
                        seed=seed, profile=profile, **decl)


def profile_moment(f: Callable[[np.ndarray], np.ndarray], panels: int = 64) -> float:
    """int_0^1 (1 - t) f(t) dt by composite 3-point Gauss.

    The error falls like panels^-6: 64 panels are exact to roundoff for a
    few oscillations on [0, 1], not for a dozen.
    """
    t = ((np.arange(panels)[:, None] + GAUSS3_X[None, :]) / panels).ravel()
    w = np.tile(GAUSS3_W / panels, panels)
    return float(np.sum(w * (1.0 - t) * np.asarray(f(t), dtype=float)))

