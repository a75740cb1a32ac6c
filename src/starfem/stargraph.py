"""Star metric graphs with per-edge diffusion coefficients.

Stage n is the star with rim vertices v_l = (cos l, sin l) for l = 1..n and
unit-length edges oriented away from the shared center: t = 0 at the center,
t = 1 at the rim, and the rim carries the homogeneous Dirichlet condition.
Edges are partitioned into groups by coefficient value; the group fractions
are the finite-n estimates of the limiting shares s_i.
"""
from __future__ import annotations

import numpy as np

from ._record import Record
from ._rng import coefficient_rng
from .errors import InvalidArgumentError

TWO_PI = 2.0 * np.pi

#: default two-group coefficient law: P(K=1) = 1/3, P(K=2) = 2/3
GROUP_VALUES = (1.0, 2.0)
GROUP_PROBS = (1.0 / 3.0, 2.0 / 3.0)


class StarStage(Record):
    """Coefficients of one n-edge star.

    ``group_of`` holds 1-based group indices; ``coeffs[l] ==
    group_values[group_of[l] - 1]`` for every edge. The edge directions
    l mod 2 pi are not stored: no solve reads them.
    """

    def __init__(self, n: int, coeffs: np.ndarray, group_of: np.ndarray,
                 group_values: tuple):
        coeffs.flags.writeable = False
        group_of.flags.writeable = False
        self._set(n=n, coeffs=coeffs, group_of=group_of,
                  group_values=group_values)

    def group_mask(self, i: int) -> np.ndarray:
        """Boolean mask of the edges in 1-based group i."""
        if not 1 <= i <= len(self.group_values):
            raise InvalidArgumentError(f"group index {i} out of range")
        return self.group_of == i


def coefficient_random(
    n: int,
    seed: int,
    probs: tuple[float, ...] = GROUP_PROBS,
    values: tuple[float, ...] = GROUP_VALUES,
) -> np.ndarray:
    """One coefficient per edge, K = values[i] with probability probs[i].

    The draw is a single sequential uniform stream, so the first n entries
    agree for every n (a fixed realization shared by all stages of a run).
    """
    groups = edge_groups("random", seed=seed, probs=probs, values=values)
    return np.asarray(values, dtype=float)[groups(np.arange(1, n + 1))]


def _checked_probs(probs, values) -> tuple:
    probs = tuple(float(p) for p in probs)
    if len(probs) != len(values):
        raise InvalidArgumentError("one probability per group value required")
    if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
        raise InvalidArgumentError("group probabilities must be >= 0 and sum to 1")
    return probs


def _draw(rng, count: int, bounds: np.ndarray) -> np.ndarray:
    """0-based index of the value drawn for each of the next ``count`` edges."""
    idx = np.searchsorted(bounds, rng.random(count), side="right")
    return np.minimum(idx, len(bounds) - 1, out=idx)


def _last_group(values) -> np.ndarray:
    """1-based group of each value: the last group carrying that value."""
    last = {v: i + 1 for i, v in enumerate(values)}
    return np.array([last[v] for v in values])


def every_third(ells) -> np.ndarray:
    """Mask of the edges l = 3, 6, 9, ... among ``ells``.

    The deterministic coefficient rule and the forcing classes of ex3, ex4
    and ex5 all split the edges by it, so a sweep evaluates it once per
    block and hands it to both.
    """
    return ells % 3 == 0


def edge_groups(source: str, *, seed: int = 0, probs=GROUP_PROBS,
                values=GROUP_VALUES):
    """The 0-based group of each edge under ``source``, block by block.

    Returns ``groups(ells, third=None)``, to be called on consecutive
    blocks of edge indices from edge 1 on (1..a, then a+1..b, ...); a
    value's group is the last group carrying it. The deterministic rule
    gives edge l = 3, 6, 9, ... the first value and every other edge the
    second, and keeps no state; it reads ``third``, the block's
    ``every_third`` mask, when the caller has it. Random draws ignore
    ``third`` and continue one ``coefficient_rng(seed)`` stream, so any
    split into blocks draws exactly what ``coefficient_random`` does.
    """
    values = tuple(float(v) for v in values)
    group = _last_group(values) - 1
    if source == "deterministic":
        if len(values) < 2:
            raise InvalidArgumentError(
                "the deterministic rule needs two group values")
        first, other = group[0], group[1]

        def by_third(ells, third=None):
            return np.where(every_third(ells) if third is None else third,
                            first, other)

        return by_third
    if source != "random":
        raise InvalidArgumentError(f"unknown coefficient source {source!r}")
    bounds = np.cumsum(_checked_probs(probs, values))
    rng = coefficient_rng(seed)
    drawn = 0

    def groups(ells, third=None):
        nonlocal drawn
        if len(ells) and ells[0] != drawn + 1:
            raise InvalidArgumentError(
                f"random groups continue at edge {drawn + 1}, not {ells[0]}")
        drawn += len(ells)
        return group[_draw(rng, len(ells), bounds)]

    return groups


def _group_of(coeffs: np.ndarray, group_values) -> np.ndarray:
    """1-based group of each coefficient: the last group with its value."""
    values = np.asarray(group_values, dtype=float)
    # a stable sort keeps equal values in index order, so the rightmost
    # match is the last group carrying that value
    order = np.argsort(values, kind="stable")
    pos = np.searchsorted(values[order], coeffs, side="right") - 1
    if np.any(pos < 0) or not np.array_equal(values[order][pos], coeffs):
        raise InvalidArgumentError("a coefficient matches no group value")
    return order[pos] + 1


def group_star(coeffs) -> StarStage:
    """A star with one edge per group, edge i carrying coeffs[i].

    The limit problem and a stage's group-reduced system both live on such
    a star: every edge is its own group and its coefficient is a group
    weight (s_i K_i, or n_i K_i), so it may have a single edge.
    """
    coeffs = np.array(coeffs, dtype=float)
    g = coeffs.size
    return StarStage(n=g, coeffs=coeffs,
                     group_of=np.arange(1, g + 1),
                     group_values=tuple(coeffs.tolist()))


def group_shares(source: str, probs=GROUP_PROBS, values=GROUP_VALUES) -> tuple:
    """Limiting fraction of the edges in each group under ``source``.

    The deterministic rule gives every third edge the first value, so its
    shares are GROUP_PROBS whatever ``probs`` says.
    """
    if source == "deterministic" and len(values) == 2:
        return GROUP_PROBS
    if source == "random":
        return tuple(float(p) for p in probs)
    raise InvalidArgumentError(
        f"{source} coefficients have no shares for {len(values)} groups")


def build_stage(
    n: int,
    source: str = "deterministic",
    *,
    seed: int = 0,
    probs: tuple[float, ...] = GROUP_PROBS,
    values: tuple[float, ...] = GROUP_VALUES,
    coeffs=None,
) -> StarStage:
    """Construct stage n with coefficients from the named source.

    ``source`` is "deterministic", "random", or "explicit" (then ``coeffs``
    supplies one positive value per edge and the group values are its sorted
    distinct entries). n = 1 is rejected: a single edge would make the center
    a degree-one boundary vertex and force p(0) = 0, a different problem.
    """
    if n < 2:
        raise InvalidArgumentError("build_stage requires n >= 2")
    if source in ("deterministic", "random"):
        group_values = tuple(float(v) for v in values)
        group_of = edge_groups(source, seed=seed, probs=probs,
                               values=group_values)(np.arange(1, n + 1)) + 1
        coeff_arr = np.asarray(group_values)[group_of - 1]
    elif source == "explicit":
        if coeffs is None:
            raise InvalidArgumentError("explicit source requires coeffs")
        coeff_arr = np.asarray(coeffs, dtype=float).copy()
        if coeff_arr.shape != (n,):
            raise InvalidArgumentError("coeffs must supply one value per edge")
        group_values = tuple(sorted(set(coeff_arr.tolist())))
        group_of = None
    else:
        raise InvalidArgumentError(f"unknown coefficient source {source!r}")
    if not np.all(coeff_arr > 0):
        raise InvalidArgumentError("diffusion coefficients must be positive")
    if group_of is None:
        group_of = _group_of(coeff_arr, group_values)
    return StarStage(n=n, coeffs=coeff_arr, group_of=group_of,
                     group_values=group_values)
