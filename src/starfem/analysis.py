"""Averages, norms, convergence tables, and window diagnostics.

Everything here consumes stage solutions and produces plain numbers or
rows, so the experiment runner can stay a thin formatting layer. Tables
and Cauchy windows read only group averages and the center value, which
the group-reduced system of a stage gives exactly (``assemble_reduced``).
``group_average_sweep`` feeds every requested stage from one walk over the
edges, in blocks that draw their own coefficient groups, so it holds no
array of n values other than ex2's noise, which that field draws for
every edge of a stage. A sine family's loads fold over q mod 2m, a few
scalars per edge, and only a profile field's come from Gauss points. It
solves the reduced systems as stacks and yields the arrays it holds per
chunk of stages: sizes, group counts, centers, group averages and load
sums, with no per-stage object. Tables and Cauchy windows read those
arrays and take the norms of every (stage, group) in one call.
References (``reference_grids``) follow the configured law and come from
the family's record through ``upscale``. The full n-edge solve
(``solve_example_stage``) serves the single-stage emits and is the
reference the sweep is tested against.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (EmptyGroupError, InvalidArgumentError,
                     NumericalBreakdownError, UndefinedRateError)
from .femsolve import (StageSolution, assemble_reduced, group_load_terms,
                       solve, solve_stage)
from .forcing import GridFunction, builtin_field
from .stargraph import (GROUP_PROBS, GROUP_VALUES, TWO_PI, build_stage,
                        edge_groups, every_third)
from .upscale import (analytic_oracle, build_upscaled, printed_curves,
                      solve_upscaled)


class ConvergenceRow(NamedTuple):
    n: int
    group: int
    l2_error: float
    h1_error: float
    center_value: float
    reference_id: str
    m: int
    seed: int


class CauchyRow(NamedTuple):
    n: int
    group: int
    epsilon: float
    delta: float
    window: int


def sample_grid(f: Callable, m: int) -> GridFunction:
    """Sample a callable at the m+1 uniform nodes."""
    t = np.arange(m + 1) / m
    return GridFunction(m=m, values=np.asarray(f(t), dtype=float))


def cesaro_solution_average(solution: StageSolution, group: int) -> GridFunction:
    """Nodewise mean of the solution over the edges of one group."""
    mask = solution.stage.group_mask(group)
    if not mask.any():
        raise EmptyGroupError(
            f"group {group} has no edges at stage n={solution.stage.n}")
    return GridFunction(m=solution.m, values=solution.values[mask].mean(axis=0))


def _simpson_weights(m: int) -> np.ndarray:
    """Weights integrating m+1 uniform nodal values over [0,1].

    Composite Simpson; an odd element count closes with the 3/8 rule on
    the last three elements. Exact for cubics either way.
    """
    w = np.zeros(m + 1)
    if m % 2 == 0:
        w[0:m + 1:2] = 2.0
        w[1:m:2] = 4.0
        w[0] = w[m] = 1.0
        w /= 3.0 * m
    else:
        ms = m - 3
        if ms > 0:
            w[0:ms + 1:2] += 2.0 / (3.0 * m)
            w[1:ms:2] += 4.0 / (3.0 * m)
            w[0] += -1.0 / (3.0 * m)
            w[ms] += -1.0 / (3.0 * m)
        w[ms:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 / (8.0 * m))
    return w


def grid_norms(f, g, full: bool = False):
    """(L2, H1) size of f - g on the shared grid.

    ``f`` and ``g`` are GridFunctions, or nodal values (..., m+1) whose
    leading axes broadcast; the sizes are then arrays of the broadcast
    leading shape, one per pair of grids, each as a single pair would give
    it. L2 integrates the squared nodal difference by composite Simpson.
    The H1 figure is the seminorm (exact for the piecewise slopes); with
    ``full`` it is the full norm sqrt(L2^2 + seminorm^2).
    """
    f, g = (np.asarray(x.values if isinstance(x, GridFunction) else x,
                       dtype=float) for x in (f, g))
    m = f.shape[-1] - 1
    if g.shape[-1] != m + 1:
        raise InvalidArgumentError(
            f"grids disagree: m={m} vs m={g.shape[-1] - 1}")
    if m < 2:
        raise InvalidArgumentError("grid needs m >= 2 elements")
    d = f - g
    # a size beyond the float range reads inf, which the CSV writer refuses
    with np.errstate(over="ignore"):
        # vecdot takes the same dot product per grid as a single pair would
        l2 = np.sqrt(np.maximum(np.vecdot(d * d, _simpson_weights(m)), 0.0))
        slopes = (d[..., 1:] - d[..., :-1]) * m
        h1 = np.sqrt(np.sum(slopes * slopes, axis=-1) / m)
    if full:
        h1 = np.hypot(l2, h1)
    if d.ndim == 1:
        return float(l2), float(h1)
    return l2, h1


def continuum_error_norms(f: GridFunction, exact: Callable,
                          exact_deriv: Callable):
    """(L2, H1 seminorm) distance of the P1 interpolant of f to a smooth exact.

    5-point Gauss per element, so the quadrature error is negligible next
    to the interpolation error being measured. This is the right gauge for
    mesh-convergence orders; nodal norms superconverge and hide them.
    """
    x, w = np.polynomial.legendre.leggauss(5)
    s = 0.5 * (x + 1.0)
    w = 0.5 * w
    m = f.m
    t = (np.arange(m)[:, None] + s[None, :]) / m
    vals = f.values[:-1, None] * (1.0 - s) + f.values[1:, None] * s
    slopes = ((f.values[1:] - f.values[:-1]) * m)[:, None]
    e2 = np.sum(w * (vals - exact(t)) ** 2) / m
    d2 = np.sum(w * (slopes - exact_deriv(t)) ** 2) / m
    return float(np.sqrt(e2)), float(np.sqrt(d2))


def _stage_parameters(example: str, n: int, parameters: dict | None) -> dict:
    parameters = dict(parameters or {})
    if example == "ex2":
        parameters.setdefault("n_edges", n)
    return parameters


def solve_example_stage(example: str, n: int, m: int, *,
                        coeff: str = "deterministic", seed: int = 0,
                        probs=GROUP_PROBS, values=GROUP_VALUES,
                        parameters: dict | None = None,
                        h: float = 0.0) -> StageSolution:
    """Build and solve the full n-edge stage of a built-in example."""
    stage = build_stage(n, source=coeff, seed=seed, probs=probs, values=values)
    field = builtin_field(example, _stage_parameters(example, n, parameters),
                          seed=seed)
    try:
        return solve_stage(stage, field, h, m)
    except NumericalBreakdownError as exc:
        raise NumericalBreakdownError(f"stage n={n}: {exc}") from exc


def largest_bh(example: str, n: int, m: int, *, seed: int = 0,
               parameters: dict | None = None):
    """The largest b h over edges 1..n at h = 1/m, or None.

    b = pi q is the frequency of a sine family (None for any other field).
    Every built-in q depends on l only through its every-third-edge class
    and grows with l within a class, so edges n-2..n hold the largest.
    Past b h = pi the 3-point Gauss loads alias.
    """
    field = builtin_field(example, _stage_parameters(example, n, parameters),
                          seed=seed)
    if field.pi_sine_coeffs is None:
        return None
    ells = np.arange(max(1, n - 2), n + 1)
    b = np.pi * np.broadcast_to(field.pi_sine_coeffs(ells)[1], ells.shape)
    return float(np.max(np.abs(b))) / m


#: float64 values a sweep holds per block of edges: its per-edge scalars,
#: the Gauss-point rows of a profile field, and a sine family's folded
#: weights W and load sums of the block's segments (g (3m + 4) per
#: segment, which the chunk's 2^14 / (m + 1) segments keep below 2^16)
SWEEP_BLOCK_VALUES = 1 << 20

#: float64 scalars a block holds per edge (index, group, key, A, q, c, the
#: fold's G and H and their temporaries), which caps a block at 2^14 edges
_EDGE_SCALARS = 64

#: float64 values of each (S, g, m+1) array of a chunk of S stages (load
#: sums, averages, and the stacked solve's and gate's temporaries)
SWEEP_CHUNK_VALUES = 1 << 14


def group_average_sweep(example: str, stages: Sequence[int], m: int, *,
                        coeff: str = "deterministic", seed: int = 0,
                        probs=GROUP_PROBS, values=GROUP_VALUES,
                        parameters: dict | None = None, h=0.0):
    """Group averages of the strictly increasing stages, chunk by chunk.

    Yields per chunk of S stages the arrays ``(stages, counts, centers,
    averages, sums)``: sizes (S,), group sizes (S, g), center values (S,),
    group averages and group load sums (S, g, m+1). An empty group has
    count 0 and an average of zeros.

    No array of the walk has a length in n (ex2's field holds one: the
    noise of its stage). The stages are taken in chunks of S, with
    S g (m+1) <= SWEEP_CHUNK_VALUES for g groups. Within a chunk the edges
    are walked once, in increasing index and in blocks, and each block
    draws its own groups (``edge_groups``: the ``every_third`` mask for the
    deterministic rule, evaluated once per block and handed on to the
    forcing declaration too; the next stretch of one seeded stream for
    random coefficients). Edge l is keyed by segment g + group, where its
    segment (``searchsorted(stages, l)``) is the first stage of the chunk
    that contains it, counted from the block's first segment, and one
    ``group_load_terms`` call per block sums its loads per key. A sine
    family's loads are folded over q mod 2m (``folded_weights``): a few
    scalars per edge and one real FFT per key, so its block is capped only
    by its per-edge scalars, SWEEP_BLOCK_VALUES // _EDGE_SCALARS edges. A
    profile field sums load vectors from at most SWEEP_BLOCK_VALUES
    Gauss-point values a block. Blocks add into the chunk's per-segment
    sums (the keyed ``bincount`` already sums in short runs, which keeps
    a 10^7-edge table within 1e-9 of ``math.fsum``). One cumsum over the
    segments then gives every stage's group sums, on top of those carried
    from the chunk before. The chunk's stages that share their set of
    non-empty groups are assembled into one stack of g-edge reduced
    systems and solved by one ``solve`` call, whose backward-error gate
    certifies each stage of the stack; a breakdown names the stage.
    ``ex2`` redraws its noise for each stage size, so its walk
    (coefficients included) restarts from edge 1 per stage. ``h`` is a
    number or a function of n.
    """
    stages = [int(n) for n in stages]
    if any(b <= a for a, b in zip(stages, stages[1:])):
        raise InvalidArgumentError("stages must be strictly increasing")
    if not stages:
        return
    if stages[0] < 2:
        raise InvalidArgumentError("stages need n >= 2")
    if m < 2:
        raise InvalidArgumentError("need m >= 2 elements per edge")
    h_of = h if callable(h) else (lambda n: float(h))
    group_values = np.array(values, dtype=float)
    g = len(group_values)
    chunk = max(1, SWEEP_CHUNK_VALUES // (g * (m + 1)))
    restart = example == "ex2" and "n_edges" not in (parameters or {})
    for walk in ([[n] for n in stages] if restart else [stages]):
        groups_of = edge_groups(coeff, seed=seed, probs=probs, values=values)
        field = builtin_field(
            example, _stage_parameters(example, walk[0], parameters),
            seed=seed)
        block = SWEEP_BLOCK_VALUES // _EDGE_SCALARS
        if field.pi_sine_coeffs is None:
            block = min(block, SWEEP_BLOCK_VALUES // (3 * m))
        for ends, counts, sums in _group_terms(
                field, groups_of, coeff == "deterministic", walk, g, m,
                max(1, block), chunk):
            if np.any((counts[-1] > 0) & ~(group_values > 0)):
                raise InvalidArgumentError(
                    "diffusion coefficients must be positive")
            centers, averages = _stacked_solve(
                ends, counts, group_values, sums,
                [h_of(n) for n in ends], m)
            yield ends, counts, centers, averages, sums


def _group_terms(field, groups_of, by_third: bool, walk, g: int, m: int,
                 block: int, chunk: int):
    """Per chunk of the stages ``walk``: (stages, counts, sums).

    ``sums`` (S, g, m+1) are the group load sums of each stage
    (``group_load_terms``), ``counts`` (S, g) the group sizes; edges are
    walked in blocks of ``block``, grouped by ``groups_of``, and added
    into each chunk's per-segment sums. With ``by_third`` the groups
    follow the every-third-edge rule, whose mask each block evaluates
    once for its groups and its loads.
    """
    total = counts = None
    done = 0
    for lo in range(0, len(walk), chunk):
        part = walk[lo:lo + chunk]
        ends = np.array(part)
        nkeys = len(part) * g
        seg_counts = np.zeros(nkeys, dtype=np.int64)
        seg = np.zeros((nkeys, m + 1))
        for start in range(done, part[-1], block):
            ells = np.arange(start + 1, min(start + block, part[-1]) + 1)
            # keys relative to the block's own segments [first, last]
            first, last = np.searchsorted(ends, ells[[0, -1]])
            third = every_third(ells) if by_third else None
            key = groups_of(ells, third)
            if last > first:
                key += (np.searchsorted(ends, ells) - first) * g
            width = (last - first + 1) * g
            at = first * g
            seg[at:at + width] += group_load_terms(field, ells, key, width,
                                                   m, third=third)
            seg_counts[at:at + width] += np.bincount(key, minlength=width)
        done = part[-1]
        seg = seg.reshape(len(part), g, m + 1)
        total = np.cumsum(seg, axis=0) + (0.0 if total is None else total[-1])
        counts = np.cumsum(seg_counts.reshape(-1, g), axis=0) + (
            0 if counts is None else counts[-1])
        yield ends, counts, total


def _stacked_solve(stages: np.ndarray, counts: np.ndarray, group_values,
                   sums: np.ndarray, h, m: int):
    """Centers (S,) and group averages (S, g, m+1) of a chunk of stages.

    ``counts`` (S, g) and ``sums`` (S, g, m+1) are the group sizes and load
    sums of the S stages, ``h`` their data. Stages that share their set of
    non-empty groups form one stack, solved as one system with leading
    axis, which the gate certifies stage by stage. A breakdown names the
    failing stages, or the stack's range when none fails on its own.
    """
    group_values = np.asarray(group_values, dtype=float)
    h = np.asarray(h, dtype=float)
    centers = np.zeros(len(stages))
    averages = np.zeros(sums.shape)
    patterns, which = np.unique(counts > 0, axis=0, return_inverse=True)
    for p, keep in enumerate(patterns):
        members = np.flatnonzero(which.ravel() == p)
        weights = counts[members][:, keep] * group_values[keep]
        try:
            stack = solve(assemble_reduced(
                weights, sums[np.ix_(members, keep)], h[members], m))
        except NumericalBreakdownError as exc:
            ns = [int(stages[members[i]]) for i in exc.stages]
            where = (f"stage n={', '.join(map(str, ns))}" if ns else
                     f"stages n={stages[members[0]]}..{stages[members[-1]]}")
            raise NumericalBreakdownError(f"{where}: {exc}") from exc
        centers[members] = stack.center
        averages[np.ix_(members, keep)] = stack.values
    return centers, averages


def _sweep_arrays(example: str, stages, m: int, **kwargs):
    """The sweep's sizes, counts, centers and averages over all stages.

    Joined from its chunks, or None; the load sums are let go chunk by
    chunk, since tables and windows read only the averages.
    """
    chunks = [chunk[:4] for chunk in
              group_average_sweep(example, stages, m, **kwargs)]
    return tuple(map(np.concatenate, zip(*chunks))) if chunks else None


def reference_grids(example: str, reference, m: int, *,
                    parameters: dict | None = None,
                    probs=GROUP_PROBS, values=GROUP_VALUES,
                    coeff: str = "deterministic", h=0.0):
    """Per-group reference curves as grids, plus an identifying label.

    ``reference`` is "oracle" (the derived closed form), "printed" (the
    curves as published, even when flagged inconsistent), "upscaled" (the
    limit problem solved on this mesh), or explicit callables or grids.
    The first three follow the configured law (``upscale``).
    """
    law = dict(parameters=parameters, probs=probs, values=values,
               coeff=coeff)
    if isinstance(reference, str):
        if reference == "upscaled":
            hom = solve_upscaled(build_upscaled(example, h=h, **law), m)
            return hom.grids, "upscaled"
        if reference == "oracle":
            curves = analytic_oracle(example, h=h, **law)
        elif reference == "printed":
            curves = printed_curves(example, **law)
        else:
            raise InvalidArgumentError(
                "reference is 'oracle', 'printed', 'upscaled', or explicit "
                "curves")
        return tuple(sample_grid(f, m) for f in curves), reference
    grids = tuple(g if isinstance(g, GridFunction) else sample_grid(g, m)
                  for g in reference)
    return grids, "custom"


def convergence_table(example: str, stages: Sequence[int], m: int, reference,
                      *, coeff: str = "deterministic", seed: int = 0,
                      probs=GROUP_PROBS, values=GROUP_VALUES,
                      parameters: dict | None = None, h=0.0,
                      full_h1: bool = False) -> list:
    """One ConvergenceRow per (stage, group), errors against the reference."""
    refs, ref_id = reference_grids(example, reference, m,
                                   parameters=parameters, probs=probs,
                                   values=values, coeff=coeff, h=h)
    for ref in refs:
        if ref.m != m:
            raise InvalidArgumentError(f"grids disagree: m={m} vs m={ref.m}")
    if len(refs) > len(values):
        raise InvalidArgumentError(
            f"reference {ref_id} has {len(refs)} curves but the law has "
            f"{len(values)} group{'s' * (len(values) != 1)} (values = "
            f"{', '.join(map(str, values))}); give one group value per "
            f"reference curve")
    sweep = _sweep_arrays(example, stages, m, coeff=coeff, seed=seed,
                          probs=probs, values=values, parameters=parameters,
                          h=h)
    if sweep is None or not refs:
        return []
    ns, counts, centers, averages = sweep
    g = len(refs)
    empty = np.argwhere(counts[:, :g] == 0)
    if empty.size:
        k, i = empty[0]
        raise EmptyGroupError(f"group {i + 1} has no edges at stage n={ns[k]}")
    # every (stage, group) distance in one pass
    l2, h1 = grid_norms(averages[:, :g], np.array([r.values for r in refs]),
                        full=full_h1)
    return [ConvergenceRow(n=int(n), group=i + 1, l2_error=float(l2[k, i]),
                           h1_error=float(h1[k, i]),
                           center_value=float(centers[k]),
                           reference_id=ref_id, m=m, seed=seed)
            for k, n in enumerate(ns) for i in range(g)]


def cauchy_diagnostics(example: str, centers: Sequence[int], window: int = 10,
                       m: int = 100, *, coeff: str = "deterministic",
                       seed: int = 0, probs=GROUP_PROBS, values=GROUP_VALUES,
                       parameters: dict | None = None, h=0.0,
                       full_h1: bool = False) -> list:
    """Windowed mean distance between successive-stage group averages.

    At window center n the stages j in [n - window//2 + 1, n + window -
    window//2] contribute ||avg_j - avg_{j-1}|| in L2 (epsilon) and H1
    (delta), averaged over the window. A group with no edges at any stage
    in a window is skipped for that center; a group present at some stages
    but not others is a data error. Every stage of every window comes from
    one sweep over the edges, and every distance from one ``grid_norms``
    call over the successive pairs of stages.
    """
    if window < 2:
        raise InvalidArgumentError("window must cover at least 2 stages")
    centers = [int(n) for n in centers]
    spans = []
    for n in centers:
        lo = n - window // 2 + 1
        hi = n + window - window // 2
        if lo - 1 < 2:
            raise InvalidArgumentError(
                f"window [{lo - 1}, {hi}] leaves stage {lo - 1} < 2; "
                f"center n={n} is too small for window={window}")
        spans.append((n, lo, hi))
    needed = sorted({j for _, lo, hi in spans for j in range(lo - 1, hi + 1)})
    sweep = _sweep_arrays(example, needed, m, coeff=coeff, seed=seed,
                          probs=probs, values=values, parameters=parameters,
                          h=h)
    if sweep is None:
        return []
    _, counts, _, averages = sweep
    # the distance between each needed stage and the one before it, every
    # group in one pass; a window's stages are consecutive in ``needed``,
    # so window c covers pairs first[c] .. first[c] + window - 1
    l2, h1 = grid_norms(averages[1:], averages[:-1], full=full_h1)
    pos = {n: k for k, n in enumerate(needed)}
    first = np.array([pos[lo - 1] for _, lo, _ in spans])
    pairs = first[:, None] + np.arange(window)
    # cumsum adds each window's terms in order, as a running sum would
    eps = np.cumsum(l2[pairs], axis=1)[:, -1] / window
    delta = np.cumsum(h1[pairs], axis=1)[:, -1] / window
    seen = counts[first[:, None] + np.arange(window + 1)] > 0
    rows = []
    for c, (n, _, _) in enumerate(spans):
        for i in range(counts.shape[1]):
            if not seen[c, :, i].any():
                continue
            if not seen[c, :, i].all():
                raise EmptyGroupError(
                    f"group {i + 1} is empty at some but not all stages of "
                    f"the window around n={n}")
            rows.append(CauchyRow(n=n, group=i + 1,
                                  epsilon=float(eps[c, i]),
                                  delta=float(delta[c, i]), window=window))
    return rows


def rate_estimate(d_minus: float, d_zero: float, d_plus: float) -> float:
    """Order estimate from three successive error gaps.

    alpha = [log d_plus - log d_zero] / [log d_zero - log d_minus]; the
    gaps must be positive and the denominator nonzero.
    """
    if min(d_minus, d_zero, d_plus) <= 0:
        raise UndefinedRateError("rate needs three positive gaps")
    den = np.log(d_zero) - np.log(d_minus)
    if den == 0.0:
        raise UndefinedRateError("equal successive gaps leave the rate undefined")
    return float((np.log(d_plus) - np.log(d_zero)) / den)


def rate_from_errors(errors: Sequence[float]) -> list:
    """Sliding rate estimates from a sequence of at least four errors."""
    e = np.asarray(list(errors), dtype=float)
    if e.size < 4:
        raise UndefinedRateError("need at least four errors for one estimate")
    gaps = np.abs(np.diff(e))
    return [rate_estimate(gaps[k], gaps[k + 1], gaps[k + 2])
            for k in range(gaps.size - 2)]


def weyl_fraction(n: int, interval=(0.0, TWO_PI)) -> float:
    """Share of l = 1..n with (l mod 2 pi) inside [c, d]."""
    c, d = float(interval[0]), float(interval[1])
    if not (0.0 <= c < d <= TWO_PI):
        raise InvalidArgumentError("interval must satisfy 0 <= c < d <= 2 pi")
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    r = np.mod(np.arange(1, n + 1, dtype=float), TWO_PI)
    return float(np.mean((r >= c) & (r <= d)))


def weyl_cos_mean(n: int) -> float:
    """|(1/n) sum cos l|, the Weyl sum controlling group-average decay."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    return float(abs(np.mean(np.cos(np.arange(1, n + 1, dtype=float)))))
