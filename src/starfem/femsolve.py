"""P1 finite elements on a star graph, solved in closed form.

Each edge carries m uniform elements on [0,1] with the rim value fixed at
zero, so its unknowns are the m-1 interior nodes; all edges share the one
center unknown. The stiffness matrix is an arrowhead: per-edge tridiagonal
blocks bordered by a single row and column for the center. Every block is
the uniform P1 block K m (2, -1), so it is stored as one scalar per edge
(``block_diag`` is a read-only broadcast view of 2 K m), and elimination
has a closed form. The center value comes first, from the Schur scalar
sum(K) and the rim-weighted load sums, so the discrete center identity is
exact; with the center fixed every edge is a Dirichlet problem solved by
two cumsums along the edge. Cost is O(n m), no Python loop over nodes or
edges, no tolerance knobs; a componentwise backward-error gate certifies
each solve, and one refinement step of the interior runs only when the
gate fails.

Edges of one coefficient group share K, so by linearity their average is
the solution of a smaller arrowhead system with one edge per group,
coefficient n_i K_i and the group's load sum (``assemble_reduced``).
Every sine family A sin(pi q s) + c, q an integer, takes its loads from
one fold, in the sweep and in the full solve alike: the 3-point rule is
symmetric, so its load at interior node k is A G(q) sin(pi q k / m), and
that sine depends only on q mod 2m; the half hats at the ends are A H(q)
and -(-1)^q A H(q) (``_fold_scalars``), and c adds c times the hat loads
of 1. The full solve gathers one row of node sines per residue that
occurs (``_fold_loads``). The sweep sums per group (``group_load_terms``,
``folded_weights``): the weights W_r of the residues r, from keyed
``bincount`` runs with no sort, become node sums through one real FFT of
length 2m, so the work per edge is O(1) however large q or m. The one
choice is the order of accumulation: a block whose every q lies below 2m
(ex1-ex4, ``constant``) sums A and c per (group, q) and applies G(q) and
H(q) once per q; any other (ex5) sums A G per edge. Gauss points serve
only fields without a sine declaration (``manufactured``, the upscaled
field, hand-built profiles), whose loads are evaluated edge by edge. The
reduced system goes through the same ``solve`` and gate; tables and
Cauchy windows use it, the full system the other emits.
A system may carry leading axes that stack independent systems of one
shape: ``solve``, ``apply`` and the gate work on the trailing axes, so
many stages' reduced systems are assembled and solved in one pass, and
the gate passes the stack only if every system in it passes.
"""
from __future__ import annotations

import functools
from typing import Optional

import numpy as np
# numpy loads its fft module on first use; every sine-family sweep uses it
from numpy.fft import rfft

from ._record import Record
from .errors import InvalidArgumentError, NumericalBreakdownError
from .forcing import GAUSS3_W, GAUSS3_X, ForcingField, GridFunction, builtin_field
from .stargraph import StarStage, build_stage, group_star


class ArrowheadSystem(Record):
    """Assembled stage system in structured form.

    ``block_diag[e, k]`` is the diagonal entry of interior node k+1 on edge
    e; the off-diagonal inside a block is the constant ``block_off[e]``,
    which also couples the first interior node to the center. Cross-edge
    coupling exists only through the center row. As assembled,
    ``block_diag`` is a read-only broadcast view of -2 ``block_off``.
    ``solve`` works from ``block_off`` alone (closed form, Schur scalar
    sum(K)); its backward-error gate, which reads ``block_diag``, rejects
    a system whose blocks are not of that form.

    Leading axes stack independent systems of one shape: the edge arrays
    are then (..., n, ·), ``h``, ``center_diag`` and ``rhs_center`` arrays
    of the leading shape, and ``stage`` is None (each system has its own
    coefficients). Every method works on the trailing axes.
    """

    def __init__(self, stage: Optional[StarStage], m: int,
                 h: float | np.ndarray, block_diag: np.ndarray,
                 block_off: np.ndarray, center_diag: float | np.ndarray,
                 rhs_interior: np.ndarray, rhs_center: float | np.ndarray,
                 node_loads: np.ndarray):
        self._set(stage=stage, m=m, h=h, block_diag=block_diag,
                  block_off=block_off, center_diag=center_diag,
                  rhs_interior=rhs_interior, rhs_center=rhs_center,
                  node_loads=node_loads)

    @property
    def unknowns(self) -> int:
        """Unknowns of one system of the stack."""
        return self.rhs_interior.shape[-2] * (self.m - 1) + 1

    def apply(self, center, interior: np.ndarray):
        """Matrix-vector product, returned as (center row, interior rows)."""
        off = self.block_off[..., None]
        out = self.block_diag * interior
        out[..., 1:] += off * interior[..., :-1]
        out[..., :-1] += off * interior[..., 1:]
        out[..., 0] += self.block_off * np.expand_dims(center, -1)
        c = self.center_diag * center + np.sum(self.block_off * interior[..., 0],
                                               axis=-1)
        return c, out

    def residual(self, center, interior: np.ndarray) -> float:
        """Max-norm residual of a candidate solution, relative to the rhs.

        The largest over a stack.
        """
        c, out = self.apply(center, interior)
        num = np.maximum(np.abs(c - self.rhs_center),
                         np.max(np.abs(out - self.rhs_interior), axis=(-2, -1)))
        den = np.maximum(np.abs(self.rhs_center),
                         np.max(np.abs(self.rhs_interior), axis=(-2, -1)))
        return float(np.max(num / np.maximum(den, 1.0)))

    def backward_error(self, center, interior: np.ndarray) -> float:
        """Componentwise backward error max_i |Ax - b|_i / (|A||x| + |b|)_i.

        Scale-free: a correct elimination lands near machine epsilon no
        matter how the data or the mesh scale the rows. A stack's is the
        largest of its systems' (``stage_backward_errors``).
        """
        return float(np.max(self.stage_backward_errors(center, interior)))

    def stage_backward_errors(self, center, interior: np.ndarray) -> np.ndarray:
        """The componentwise backward error of each system, leading shape."""
        c, out = self.apply(center, interior)
        absoff = np.abs(self.block_off)
        absint = np.abs(interior)
        scale = np.abs(self.block_diag) * absint
        scale[..., 1:] += absoff[..., None] * absint[..., :-1]
        scale[..., :-1] += absoff[..., None] * absint[..., 1:]
        scale[..., 0] += absoff * np.expand_dims(np.abs(center), -1)
        scale += np.abs(self.rhs_interior)
        cscale = (np.abs(self.center_diag * center)
                  + np.sum(absoff * absint[..., 0], axis=-1)
                  + np.abs(self.rhs_center))
        tiny = np.finfo(float).tiny
        err = np.max(np.abs(out - self.rhs_interior) / np.maximum(scale, tiny),
                     axis=(-2, -1))
        return np.maximum(err, np.abs(c - self.rhs_center)
                          / np.maximum(cscale, tiny))


class StageSolution(Record):
    """Nodal values of the discrete stage solution.

    ``values[e, j]`` is the value at t = j/m on edge e+1; column 0 is the
    shared center value and column m is the rim zero. ``node_loads`` keeps
    the assembled load vector so the balance identities below can be
    evaluated with exactly the assembly quadrature. The solution of a
    stacked system carries the same leading axes (``center`` and ``h``
    arrays, ``stage`` None).
    """

    def __init__(self, stage: Optional[StarStage], m: int,
                 h: float | np.ndarray, center: float | np.ndarray,
                 values: np.ndarray, node_loads: np.ndarray):
        values.flags.writeable = False
        node_loads.flags.writeable = False
        self._set(stage=stage, m=m, h=h, center=center, values=values,
                  node_loads=node_loads)

    def edge_grid(self, ell: int) -> GridFunction:
        if not 1 <= ell <= self.stage.n:
            raise InvalidArgumentError(f"edge {ell} not in stage n={self.stage.n}")
        return GridFunction(m=self.m, values=self.values[ell - 1])


def _hat_loads(F: np.ndarray, m: int) -> np.ndarray:
    """Hat loads (k, m+1) from profile values F (k, m, 3) at the Gauss points."""
    loads = np.zeros((F.shape[0], m + 1))
    loads[:, :m] += F @ (GAUSS3_W * (1.0 - GAUSS3_X)) / m
    loads[:, 1:] += F @ (GAUSS3_W * GAUSS3_X) / m
    return loads


@functools.lru_cache(maxsize=4)
def _unit_row(m: int) -> np.ndarray:
    """Hat loads of the constant 1, built once per m and read-only."""
    row = _hat_loads(np.ones((1, m, 3)), m)[0]
    row.flags.writeable = False
    return row


def _profile_loads(field: ForcingField, ells: np.ndarray, m: int) -> np.ndarray:
    """Hat loads (len(ells), m+1) of a field without a sine declaration.

    Evaluated at the 3m Gauss points of every edge; the profile applies
    the orientation itself.
    """
    tq = ((np.arange(m)[:, None] + GAUSS3_X[None, :]) / m).ravel()
    return _hat_loads(field.values(ells, tq).reshape(len(ells), m, 3), m)


#: d = x_3 - 1/2 = 1/2 - x_1 of the 3-point rule; both differences are
#: exact in float64, so the rule held in floats is symmetric
_GAUSS3_D = GAUSS3_X[2] - 0.5

#: d = D 2^-28 + lo with an integer D < 2^27: q D is an exact int64 for
#: q < 2^_D_SPAN, so q d is reduced mod 2m with no rounding but that of
#: q lo (a sweep within MAX_SWEEP_WORK has q < 2^34)
_D_BITS = 28
_D_SPAN = 36
_D_INT = round(_GAUSS3_D * 2**_D_BITS)
_D_LO = _GAUSS3_D - _D_INT * 2.0**-_D_BITS


@functools.lru_cache(maxsize=4)
def _half_sines(m: int) -> np.ndarray:
    """sin(pi j / 2m) for j < 5m, built once per m and read-only.

    The node sines sin(pi r k / m) at even j = 2 (r k mod 2m), and the
    half angles of ``_fold_scalars``. Only the quarter wave j <= m is
    evaluated, where the rounded argument is at most pi / 2; the rest
    follows by symmetry, so every entry is correctly rounded to within an
    ulp or so and the zeros at j = 2m and 4m are exact.
    """
    quarter = np.sin(np.arange(m + 1) * (np.pi / (2 * m)))
    wave = np.concatenate([quarter, quarter[-2::-1]])  # j = 0..2m
    sines = np.concatenate([wave, -wave[1:-1], wave[:m]])
    sines.flags.writeable = False
    return sines


def _fold_scalars(q: np.ndarray, m: int) -> tuple:
    """(G, H) of the 3-point Gauss hat loads of sin(pi q s), per edge.

    With theta = pi q / m and the points 1/2 -+ d, 1/2, the load at
    interior node k is sin(pi q k / m) G with G = 2h sum_j w_j (1 - x_j)
    cos(theta x_j), the center half hat is H = h sum_j w_j (1 - x_j)
    sin(theta x_j), and the rim half hat is -(-1)^q H. Both are written
    through cos and sin of theta / 2 and of theta d, each reduced mod 2 pi
    before it is rounded, so the phase error does not grow with q: theta
    / 2 is a multiple of pi / 2m, read from one table of node sines at
    q mod 4m (``_half_sines``); q d is reduced into [-m, m) exactly
    through ``_D_INT``, and only its cos and sin are evaluated per edge.
    """
    h = 1.0 / m
    # sines at q mod 4m, cosines a quarter on
    sines = _half_sines(m)
    half = q % (4 * m)
    s1, c1 = sines[half], sines[half + m]
    # q d mod 2m, taken in [-m, m) so the rounded phase is at most pi
    period = (2 * m) << _D_BITS
    turns = (q * _D_INT + (m << _D_BITS)) % period - (m << _D_BITS)
    turns = turns * 2.0**-_D_BITS + q * _D_LO
    turns *= np.pi / m
    u, v = np.cos(turns), np.sin(turns)
    # u = h (w_1 cos(theta d) + w_2 / 2), v = 2 d h w_1 sin(theta d)
    u *= h * GAUSS3_W[0]
    u += h * GAUSS3_W[1] / 2
    v *= 2 * _GAUSS3_D * h * GAUSS3_W[0]
    G = c1 * u
    G += s1 * v
    G *= 2.0
    H = s1 * u
    H -= c1 * v
    return G, H


def _sine_triple(field: ForcingField, ells: np.ndarray, m: int,
                 third=None) -> tuple:
    """(A, q, c, top) of a sine family at edges ``ells``.

    One array per scalar; ``third`` is the ``every_third`` mask of
    ``ells`` when the caller has it, and the declaration then does not
    evaluate it again. ``top`` is the largest q plus one when every q lies
    in 0..2m-1, so that q is its own residue mod 2m, else None. Refuses a
    q past the exact phase reduction of ``_fold_scalars``.
    """
    ells = field._edges(ells)
    coeffs = field.pi_sine_coeffs
    values = coeffs(ells) if third is None else coeffs(ells, third)
    A, q, c = (np.broadcast_to(v, ells.shape) for v in values)
    lo, hi = (int(q.min()), int(q.max())) if q.size else (0, 0)
    if max(-lo, hi) >= 2**_D_SPAN:
        raise InvalidArgumentError(
            f"{field.family_id}: b / pi reaches 2^{_D_SPAN}, past the exact "
            f"phase reduction of the folded loads")
    return A, q, c, hi + 1 if 0 <= lo and hi < 2 * m else None


def _fold_loads(field: ForcingField, ells: np.ndarray, m: int) -> np.ndarray:
    """Hat loads (len(ells), m+1) of a sine family, from the fold.

    Edge l's load at node k is A G(q) sin(pi q k / m), with the half hats
    A H(q) and -(-1)^q A H(q) at s = 0 and s = 1 (``_fold_scalars``), plus
    c times the hat loads of 1. The node sines depend on q only through
    its residue r = q mod 2m, so each residue that occurs gets one row,
    read from ``_half_sines`` at 2 (r k mod 2m) with no rounded phase, and
    edges gather their residue's row.
    """
    A, q, c, _ = _sine_triple(field, ells, m)
    period = 2 * m
    residue = q % period
    present = np.zeros(period, dtype=bool)
    present[residue] = True
    k = np.arange(m + 1)
    s0, s1 = 0, m  # the columns of s = 0 and s = 1
    if field.parameters.get("orientation") == "rim":
        k, s0, s1 = m - k, m, 0  # s = 1 - t: node k sits at s = (m - k) / m
    rows = _half_sines(m)[2 * (np.flatnonzero(present)[:, None] * k % period)]
    G, H = _fold_scalars(q, m)
    G *= A
    H *= A
    loads = rows[(np.cumsum(present) - 1)[residue]]
    loads *= G[:, None]
    loads[:, s0] = H
    loads[:, s1] = (2 * (q & 1) - 1) * H
    # c times the hat loads of 1, which are equal at every interior node:
    # added in place, with no (len(ells), m+1) temporary
    unit = _unit_row(m)
    loads[:, 0] += c * unit[0]
    loads[:, m] += c * unit[m]
    loads[:, 1:m] += (c * unit[1])[:, None]
    return loads


def assemble_loads(field: ForcingField, stage: StarStage, m: int) -> np.ndarray:
    """Nodal load vector per edge, 3-point Gauss per element, shape (n, m+1).

    Includes the center (column 0) and rim (column m) rows even though the
    rim is not an unknown; the identity checks integrate against them.
    A sine family's loads come from the fold (``_fold_loads``), any other
    field's from its values at the Gauss points, edge by edge.
    """
    ells = np.arange(1, stage.n + 1)
    if field.pi_sine_coeffs is None:
        return _profile_loads(field, ells, m)
    return _fold_loads(field, ells, m)


def _sums_per_q(group_index, groups: int, q: np.ndarray, top: int,
                *weights) -> list:
    """Sums of each of ``weights`` per (group, q), (groups, top) each."""
    key = group_index * top
    key += q
    return [v.reshape(groups, top) for v in
            _keyed_sums(key, groups * top, *weights)]


@functools.lru_cache(maxsize=4)
def _small_q_scalars(m: int) -> tuple:
    """G (2m,) and the half hats (2m, 2) of q = 0..2m-1, once per m.

    The half hats of each q are its center H and its rim -(-1)^q H
    (``_fold_scalars``); both tables are read-only.
    """
    q = np.arange(2 * m)
    G, H = _fold_scalars(q, m)
    ends = np.column_stack([H, (2 * (q & 1) - 1) * H])
    G.flags.writeable = ends.flags.writeable = False
    return G, ends


def _weights_per_q(group_index, groups: int, A, q, c, m: int,
                   top: int) -> tuple:
    """``folded_weights`` with A and c summed per (group, q) first.

    For q in 0..top-1 with top <= 2m: q is its own residue, so G(q) and
    H(q) scale the sums once per q.
    """
    a_sums, c_sums = _sums_per_q(group_index, groups, q, top, A, c)
    G, ends = _small_q_scalars(m)
    weights = np.zeros((groups, 2 * m))
    np.multiply(a_sums, G[:top], out=weights[:, :top])
    center, rim = (a_sums @ ends[:top]).T
    return weights, center, rim, c_sums.sum(axis=1)


def _weights_per_edge(group_index, groups: int, A, q, c, m: int) -> tuple:
    """``folded_weights`` with A G and A H summed per edge."""
    G, H = _fold_scalars(q, m)
    G *= A
    H *= A
    period = 2 * m
    weights, = _keyed_sums(group_index * period + q % period,
                           groups * period, G)
    ends = _keyed_sums(group_index, groups, H, (2 * (q & 1) - 1) * H,
                       c.astype(float, copy=False))
    return (weights.reshape(groups, period), *ends)


def folded_weights(field: ForcingField, ells: np.ndarray, group_index,
                   groups: int, m: int, third=None) -> tuple:
    """The folded load weights of a sine family's edges ``ells`` per group.

    Per group the sums of A G over its edges with q mod 2m = r, (groups,
    2m), and the sums of A H, of the rim half hats -(-1)^q A H and of c,
    (groups,) each (``_fold_scalars``), all from keyed ``bincount`` runs
    with no sort. The one choice is the order of accumulation: when every
    q of the block lies below 2m (ex1-ex4, ``constant``), A and c are
    summed per (group, q) and G(q) and H(q) applied once per q; otherwise
    (ex5) A G and A H are summed edge by edge.
    """
    A, q, c, top = _sine_triple(field, ells, m, third)
    group_index = np.asarray(group_index)
    if top is not None:
        return _weights_per_q(group_index, groups, A, q, c, m, top)
    return _weights_per_edge(group_index, groups, A, q, c, m)


def _folded_load_sums(field: ForcingField, ells: np.ndarray, group_index,
                      groups: int, m: int, third=None) -> np.ndarray:
    """Group load sums (groups, m+1) of a sine family (``folded_weights``)."""
    weights, center, rim, c_sums = folded_weights(field, ells, group_index,
                                                  groups, m, third)
    # sum_r W_r sin(pi r k / m) at the nodes k = 0..m is minus the imaginary
    # part of the length-2m real FFT, whose m+1 outputs are those nodes
    sums = -rfft(weights, axis=-1).imag
    sums[:, 0] = center
    sums[:, m] = rim
    if field.parameters.get("orientation", "center") == "rim":
        sums = sums[:, ::-1]
    sums += c_sums[:, None] * _unit_row(m)
    return sums


#: most consecutive entries of one key that ``_keyed_sums`` adds in sequence
_RUN = 128


def _keyed_sums(key: np.ndarray, size: int, *weights) -> list:
    """Sums of each of ``weights`` per key in 0..size-1, with no sort.

    One ``bincount`` per weight array over (key, run) bins, where a run is
    a stretch of at most max(_RUN, size) consecutive entries, then one
    contiguous sum over the runs of each key. No sum in sequence is longer
    than a run, so a block of 2^14 equal terms is summed to ~1e-15 rather
    than ~1e-13; the bins number at most len(key) + size.
    """
    span = max(_RUN, size)
    runs = -(-len(key) // span)
    if runs > 1:
        run = np.arange(len(key))
        run //= span
        run += key * runs
        key = run
    return [np.bincount(key, weights=w, minlength=size * runs).reshape(
                size, runs).sum(axis=1) for w in weights]


def group_load_terms(field: ForcingField, ells: np.ndarray, group_index,
                     groups: int, m: int, third=None) -> np.ndarray:
    """Loads of edges ``ells`` summed per group, (groups, m+1).

    ``group_index[j]`` is the 0-based group of edge ells[j]; ``third`` is
    the ``every_third`` mask of ``ells`` when the caller has it. A sine
    family's are folded over q mod 2m (``folded_weights``), so no load
    vector is formed per edge and the work per edge does not grow with m.
    Any other field's loads are evaluated edge by edge at the Gauss points
    and summed per group in edge order.
    """
    group_index = np.asarray(group_index)
    if field.pi_sine_coeffs is not None:
        return _folded_load_sums(field, ells, group_index, groups, m, third)
    loads = _profile_loads(field, ells, m)
    order = np.argsort(group_index, kind="stable")
    group = group_index[order]
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    sums = np.zeros((groups, m + 1))
    sums[group[starts]] = np.add.reduceat(loads[order], starts, axis=0)
    return sums


def _arrowhead(stage: Optional[StarStage], coeffs: np.ndarray,
               loads: np.ndarray, h, m: int) -> ArrowheadSystem:
    """The system of edge coefficients (..., n) and loads (..., n, m+1)."""
    km = coeffs * m
    h = np.asarray(h, dtype=float)
    return ArrowheadSystem(
        stage=stage,
        m=m,
        h=h if h.ndim else float(h),
        block_diag=np.broadcast_to(2.0 * km[..., None], (*km.shape, m - 1)),
        block_off=-km,
        center_diag=km.sum(axis=-1),
        rhs_interior=loads[..., 1:m].copy(),
        rhs_center=loads[..., 0].sum(axis=-1) + h,
        node_loads=loads,
    )


def assemble(stage: StarStage, field: ForcingField, h: float,
             m: int) -> ArrowheadSystem:
    """Assemble the stage system for center datum h on m elements per edge."""
    if m < 2:
        raise InvalidArgumentError("need m >= 2 elements per edge")
    return _arrowhead(stage, stage.coeffs, assemble_loads(field, stage, m),
                      h, m)


def assemble_reduced(weights, load_sums: np.ndarray, h,
                     m: int) -> ArrowheadSystem:
    """The group-reduced system of a stage: one edge per non-empty group.

    All edges of group i share K_i, so the sum of their edge equations is
    the equation of one edge with coefficient n_i K_i and the group's load
    sum, coupled to the same center row; its Schur scalar is still sum(K).
    The solution on that edge is therefore exactly the group average, and
    the center value is the stage's. ``weights`` are the n_i K_i of the
    non-empty groups and ``load_sums`` their (groups, m+1) load sums
    (from ``group_load_terms``), so row r of the solution is the r-th weight's
    group. With leading axes, weights (S, k), load sums (S, k, m+1) and
    h (S,) stack S stages that share their non-empty groups, assembled and
    solved as one.
    """
    if m < 2:
        raise InvalidArgumentError("need m >= 2 elements per edge")
    weights = np.asarray(weights, dtype=float)
    stage = group_star(weights) if weights.ndim == 1 else None
    return _arrowhead(stage, weights, load_sums, h, m)


def _tail_sums(r: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """out[..., k] = sum_{i >= k} w_i r[..., i], the rim-to-center elimination."""
    np.multiply(r, w, out=out)
    rev = out[..., ::-1]
    np.cumsum(rev, axis=-1, out=rev)


def _edge_values(z: np.ndarray, km: np.ndarray, w: np.ndarray,
                 center: float) -> None:
    """Interior values of every edge with the center value fixed, in place.

    ``z`` holds the tail sums; it becomes u_k = w_k (center/m +
    sum_{i <= k} z_i / (K m w_i (w_i + 1))).
    """
    z *= 1.0 / (w * (w + 1.0))
    z /= km[..., None]
    z[..., 0] += np.expand_dims(np.divide(center, w.size + 1), -1)
    np.cumsum(z, axis=-1, out=z)
    z *= w


def solve(system: ArrowheadSystem) -> StageSolution:
    """Closed-form solve of an arrowhead system, or of a stack of them.

    Every block is the uniform P1 block K m (2, -1) on q = m-1 interior
    nodes, so elimination has a closed form with weights w_k = q - k (the
    distance of node k+1 from the rim). The center comes first:
    center = (rhs_center + sum_e sum_k w_k r_{e,k} / m) / schur, with the
    Schur scalar sum(K), which keeps the discrete center identity exact.
    With the center fixed every edge is a Dirichlet problem solved by two
    cumsums along the edge (``_tail_sums``, ``_edge_values``). Only if the
    componentwise backward error then exceeds 1e-12 is one interior-only
    refinement step taken: the residual from ``apply``, the same Dirichlet
    cumsums with center 0, the correction added; the center is never
    refined, so its identity stays exact. The gate then decides.
    Every step works on the trailing axes, so a stack of systems is solved
    in the same few array operations, and the gate takes its worst system.
    Raises numerical-breakdown if some K m or the center Schur scalar fails
    to be positive and finite; the backward-error gate rejects a system
    whose blocks are not of that form. For a stack the error's ``stages``
    are the flat indices of the failing systems, when they can be told.
    """
    *lead, n, q = system.rhs_interior.shape
    m = q + 1
    km = -system.block_off
    ok = np.all(np.isfinite(km) & (km > 0), axis=-1)
    if not np.all(ok):
        raise _breakdown("non-positive elimination pivot", ok)
    # center_diag - sum(km) q/m, i.e. sum(K) for the assembled center row,
    # in a form with no cancellation when center_diag == sum(km)
    km_sum = km.sum(axis=-1)
    schur = system.center_diag - km_sum + km_sum / m
    ok = np.isfinite(schur) & (schur > 0)
    if not np.all(ok):
        raise _breakdown("center Schur scalar not positive", ok)
    w = q - np.arange(q, dtype=float)
    # edge-major and in place in the solution: each cumsum runs along one
    # edge's row, with no transposed copy in or out
    values = np.zeros((*lead, n, m + 1))
    interior = values[..., 1:m]
    _tail_sums(system.rhs_interior, w, interior)
    center = (system.rhs_center + interior[..., 0].sum(axis=-1) / m) / schur
    center = center if lead else float(center)
    values[..., 0] = np.expand_dims(center, -1)
    _edge_values(interior, km, w, center)
    res = system.backward_error(center, interior)
    if not res <= 1e-12:
        # one step of iterative refinement on the interior (Higham 2002,
        # ch. 12): re-solve for the residual with the center held fixed
        _, out = system.apply(center, interior)
        np.subtract(system.rhs_interior, out, out=out)
        _tail_sums(out, w, out)
        _edge_values(out, km, w, 0.0)
        interior += out
        res = system.backward_error(center, interior)
    if not res <= 1e-12:
        raise _breakdown(f"solve backward error {res:.3e} exceeds 1e-12",
                         system.stage_backward_errors(center, interior)
                         <= 1e-12)
    return StageSolution(stage=system.stage, m=system.m, h=system.h,
                         center=center, values=values,
                         node_loads=system.node_loads)


def _breakdown(message: str, ok) -> NumericalBreakdownError:
    """The breakdown error naming the stacked systems where ``ok`` is False.

    ``ok`` has the leading shape of the system (none for a single one), so
    a stack's error lists the flat indices of its failing systems; it lists
    none if they all pass on their own (a gate that failed as a whole).
    """
    stages = (tuple(np.flatnonzero(~np.asarray(ok)).tolist())
              if np.ndim(ok) else ())
    if stages:
        message = f"{message} (stacked system {', '.join(map(str, stages))})"
    return NumericalBreakdownError(message, stages=stages)


def solve_stage(stage: StarStage, field: ForcingField, h: float,
                m: int) -> StageSolution:
    return solve(assemble(stage, field, h, m))


def _load_moments(solution: StageSolution) -> np.ndarray:
    # sum_j b_j (1 - t_j) is the assembly-quadrature value of
    # int (1-t) F_e: the linear weight is interpolated exactly by P1 hats
    w = 1.0 - np.arange(solution.m + 1) / solution.m
    return solution.node_loads @ w


def center_identity_residual(solution: StageSolution) -> float:
    """Defect in the center balance p(0) sum(K) = h + sum_e int (1-t) F_e.

    Moments use the assembly quadrature, making the identity exact for the
    discrete solution; the returned value is the defect normalized by
    1 + |h| + sum |moments| and is roundoff-sized for a consistent solve.
    """
    h = solution.h
    moments = _load_moments(solution)
    lhs = solution.center * float(solution.stage.coeffs.sum())
    rhs = h + float(moments.sum())
    return abs(lhs - rhs) / (1.0 + abs(h) + float(np.abs(moments).sum()))


def edge_identity_defects(solution: StageSolution) -> np.ndarray:
    """|K p(0) + K p'(0) - int (1-t) F_e| for every edge, in one pass.

    Unlike the center identity the per-edge balance holds only in the
    limit: the one-sided slope is first-order accurate, so each defect
    decays like 1/m.
    """
    K = solution.stage.coeffs
    slopes = (solution.values[:, 1] - solution.values[:, 0]) * solution.m
    return np.abs(K * solution.center + K * slopes - _load_moments(solution))


def center_flux_sum(solution: StageSolution) -> float:
    """sum_e K(e) p'(0), the discrete total flux leaving the center."""
    slopes = (solution.values[:, 1] - solution.values[:, 0]) * solution.m
    return float(np.dot(solution.stage.coeffs, slopes))


def manufactured_case(n: int, m: int, coeffs=None) -> StageSolution:
    """Solve the stage whose exact solution is sin(pi t)(1 - t) on every edge.

    The forcing is K_e g with g = -(sin(pi t)(1 - t))''. Every edge then
    carries the same profile with slope pi at the center, so flux balance
    forces the center datum h = -pi sum(K); with any other datum the exact
    solution would differ. Used by the mesh-convergence harness.
    """
    if coeffs is None:
        stage = build_stage(n)
        field = builtin_field("manufactured")
    else:
        stage = build_stage(n, source="explicit", coeffs=coeffs)
        field = builtin_field("manufactured", {"coeffs": list(coeffs)})
    h = -np.pi * float(stage.coeffs.sum())
    return solve_stage(stage, field, h, m)
