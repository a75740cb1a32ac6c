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
coefficient n_i K_i and the group's load sum (``assemble_reduced``). A
sine family with at most two frequencies has a ``load_basis``: every edge
load combines its k+1 rows, so a group's load sum needs only the k+1 sums
of its edges' scalars, which ``group_load_terms`` takes with one keyed
``bincount`` and no sort. A family whose frequencies are integer multiples
pi q of pi (ex5) is folded: the rule is symmetric, so the 3-point Gauss
load of A sin(pi q s) at interior node k is A G sin(pi q k / m), and that
sine depends only on q mod 2m. A group's load sum is then the sum over r
= q mod 2m of W_r sin(pi r k / m), with W_r the keyed ``bincount`` of A G,
taken as one real FFT of length 2m, plus the two half hats at the ends:
O(1) work per edge and O(m log m) per group, however large q. Other
fields sum load vectors from their Gauss points. The reduced system goes
through the same ``solve`` and gate; tables and Cauchy windows use it,
the full system the other emits.
A system may carry leading axes that stack independent systems of one
shape: ``solve``, ``apply`` and the gate work on the trailing axes, so
many stages' reduced systems are assembled and solved in one pass, and
the gate passes the stack only if every system in it passes.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

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


def _gauss_points(field: ForcingField, m: int) -> np.ndarray:
    """The 3m Gauss points of the loads, in the field's orientation."""
    tq = ((np.arange(m)[:, None] + GAUSS3_X[None, :]) / m).ravel()
    if field.parameters.get("orientation", "center") == "rim":
        return 1.0 - tq
    return tq


def _sine_rows(field: ForcingField, freqs: np.ndarray, m: int) -> np.ndarray:
    """Hat-load rows (len(freqs), m+1) of sin(b s), one per frequency b."""
    rows = freqs[:, None] * _gauss_points(field, m)[None, :]
    np.sin(rows, out=rows)
    return _hat_loads(rows.reshape(-1, m, 3), m)


def _unit_row(m: int) -> np.ndarray:
    """Hat loads of the constant 1."""
    return _hat_loads(np.ones((1, m, 3)), m)[0]


def _declared(declaration, field: ForcingField, ells: np.ndarray,
              third=None, dtype=None) -> tuple:
    """A declaration's per-edge scalars at edges ``ells``, one array each.

    ``third`` is the ``every_third`` mask of ``ells`` when the caller has
    it; the declaration then does not evaluate it again.
    """
    ells = field._edges(ells)
    values = declaration(ells) if third is None else declaration(ells, third)
    return tuple(np.broadcast_to(np.asarray(v, dtype=dtype), ells.shape)
                 for v in values)


def _sine_scalars(field: ForcingField, ells: np.ndarray, third=None) -> tuple:
    """(A, b, c) of a sine family at edges ``ells``, each a float array."""
    return _declared(field.sine_coeffs, field, ells, third, float)


def _frequency_class(field: ForcingField, b: np.ndarray):
    """Each edge's index into the declared ``frequencies``, with no sort."""
    if len(field.frequencies) == 1:
        return np.zeros(b.shape, dtype=np.intp)
    return (b != field.frequencies[0]).astype(np.intp)


def _load_terms(field: ForcingField, ells: np.ndarray, m: int):
    """Loads of edges ``ells`` as (rows, which, A, c, unit).

    Edge ells[j] carries A[j] rows[which[j]] + c[j] unit. A sine family
    A sin(b t) + c is linear in its per-edge scalars, so ``rows`` holds one
    hat-load row per distinct frequency b and ``unit`` the hat loads of 1;
    any other field is evaluated edge by edge (one row each, A = 1, c = 0,
    ``unit`` None).
    """
    if field.sine_coeffs is None:
        # the profile applies the orientation itself
        tq = ((np.arange(m)[:, None] + GAUSS3_X[None, :]) / m).ravel()
        F = field.values(ells, tq).reshape(len(ells), m, 3)
        return (_hat_loads(F, m), np.arange(len(ells)), np.ones(len(ells)),
                None, None)
    A, b, c = _sine_scalars(field, ells)
    freqs, which = np.unique(b, return_inverse=True)
    return _sine_rows(field, freqs, m), which.ravel(), A, c, _unit_row(m)


def assemble_loads(field: ForcingField, stage: StarStage, m: int) -> np.ndarray:
    """Nodal load vector per edge, 3-point Gauss per element, shape (n, m+1).

    Includes the center (column 0) and rim (column m) rows even though the
    rim is not an unknown; the identity checks integrate against them.
    A sine family's loads are A H(b) + c H(1) from one hat-load row per
    frequency b; any other field is evaluated edge by edge.
    """
    rows, which, A, c, unit = _load_terms(field, np.arange(1, stage.n + 1), m)
    if unit is None:
        return rows
    loads = rows[which]
    loads *= A[:, None]
    loads += c[:, None] * unit
    return loads


def load_basis(field: ForcingField, m: int):
    """The rows every edge load of the field combines, or None.

    For a sine family that declares its ``frequencies`` b_0, ..., b_{k-1},
    the (k+1, m+1) hat-load rows of sin(b_j s) and, last, of 1: edge l's
    load is A_l times the row of its frequency class plus c_l times the
    last. Other fields have no such basis (None).
    """
    if field.sine_coeffs is None or field.frequencies is None:
        return None
    freqs = np.asarray(field.frequencies, dtype=float)
    return np.vstack([_sine_rows(field, freqs, m), _unit_row(m)])


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


def _fold_scalars(q: np.ndarray, m: int) -> tuple:
    """(G, H) of the 3-point Gauss hat loads of sin(pi q s), per edge.

    With theta = pi q / m and the points 1/2 -+ d, 1/2, the load at
    interior node k is sin(pi q k / m) G with G = 2h sum_j w_j (1 - x_j)
    cos(theta x_j), the center half hat is H = h sum_j w_j (1 - x_j)
    sin(theta x_j), and the rim half hat is -(-1)^q H. Both are written
    through cos and sin of theta / 2 and of theta d, each reduced mod 2 pi
    before it is rounded, so the phase error does not grow with q: theta
    / 2 is a multiple of pi / 2m, read from one table of node sines at
    q mod 4m; q d is reduced mod 2m exactly through ``_D_INT``, and only
    its cos and sin are evaluated per edge.
    """
    h = 1.0 / m
    # sin(pi j / 2m) for j < 5m: sines at q mod 4m, cosines a quarter on
    sines = np.sin(np.arange(5 * m) * (np.pi / (2 * m)))
    half = q % (4 * m)
    s1, c1 = sines[half], sines[half + m]
    turns = (q * _D_INT) % ((2 * m) << _D_BITS) * 2.0**-_D_BITS + q * _D_LO
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


def folded_weights(field: ForcingField, ells: np.ndarray, group_index,
                   groups: int, m: int, third=None) -> tuple:
    """The folded load weights of edges ``ells`` per group.

    For a field that declares ``pi_sine_coeffs`` (A, q, c): per group the
    sums of A G over its edges with q mod 2m = r, (groups, 2m), and the
    sums of A H, of the rim half hats -(-1)^q A H and of c, (groups,) each
    (``_fold_scalars``), all from keyed ``bincount`` runs with no sort.
    """
    A, q, c = _declared(field.pi_sine_coeffs, field, ells, third)
    if q.size and np.max(np.abs(q)) >= 2**_D_SPAN:
        raise InvalidArgumentError(
            f"{field.family_id}: b / pi reaches 2^{_D_SPAN}, past the exact "
            f"phase reduction of the folded loads")
    G, H = _fold_scalars(q, m)
    G *= A
    H *= A
    group_index = np.asarray(group_index)
    period = 2 * m
    weights, = _keyed_sums(group_index * period + q % period,
                           groups * period, G)
    ends = _keyed_sums(group_index, groups, H, (2 * (q & 1) - 1) * H,
                       c.astype(float, copy=False))
    return (weights.reshape(groups, period), *ends)


def _folded_load_sums(field: ForcingField, ells: np.ndarray, group_index,
                      groups: int, m: int, third=None) -> np.ndarray:
    """Group load sums (groups, m+1) of a folded field (``folded_weights``)."""
    weights, center, rim, c_sums = folded_weights(field, ells, group_index,
                                                  groups, m, third)
    # sum_r W_r sin(pi r k / m) at the nodes k = 0..m is minus the imaginary
    # part of the length-2m real FFT, whose m+1 outputs are those nodes
    sums = -np.fft.rfft(weights, axis=-1).imag
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
        key = key * runs + np.arange(len(key)) // span
    return [np.bincount(key, weights=w, minlength=size * runs).reshape(
                size, runs).sum(axis=1) for w in weights]


def group_load_terms(field: ForcingField, ells: np.ndarray, group_index,
                     groups: int, m: int, third=None) -> np.ndarray:
    """Loads of edges ``ells`` summed per group, over ``load_basis``.

    ``group_index[j]`` is the 0-based group of edge ells[j]; ``third`` is
    the ``every_third`` mask of ``ells`` when the caller has it. With a
    basis of k frequency rows and the unit row, the result is (groups,
    k+1): per group the sum of A over its edges of each frequency class,
    then the sum of c, from one keyed ``bincount`` each and no sort.
    Without a basis it is the (groups, m+1) load sums themselves: folded
    over q mod 2m for a field that declares ``pi_sine_coeffs``
    (``folded_weights``), so no load vector is formed per edge and the
    work per edge does not grow with m; otherwise the per-edge scalars
    are summed per (group, hat-load row) pair that occurs, and the work
    stays O(len(ells) m) however many groups there are. Either way the
    group load sums are the result, times the basis when there is one.
    """
    group_index = np.asarray(group_index)
    if field.sine_coeffs is not None and field.frequencies is not None:
        A, b, c = _sine_scalars(field, ells, third)
        k = len(field.frequencies)
        key = group_index * k + _frequency_class(field, b)
        a_sums, c_sums = (v.reshape(groups, k)
                          for v in _keyed_sums(key, groups * k, A, c))
        return np.column_stack([a_sums, c_sums.sum(axis=1)])
    if field.pi_sine_coeffs is not None:
        return _folded_load_sums(field, ells, group_index, groups, m, third)
    rows, which, A, c, unit = _load_terms(field, ells, m)
    k = rows.shape[0]
    pairs, slot = np.unique(group_index * k + which, return_inverse=True)
    weights = np.bincount(slot.ravel(), weights=A, minlength=pairs.size)
    # pairs are sorted, so the rows of one group are contiguous
    group = pairs // k
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    sums = np.zeros((groups, m + 1))
    sums[group[starts]] = np.add.reduceat(rows[pairs % k] * weights[:, None],
                                          starts, axis=0)
    if unit is not None:
        c_sums = np.bincount(group_index, weights=c, minlength=groups)
        sums += c_sums[:, None] * unit
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


def center_identity_residual(solution: StageSolution,
                             stage: StarStage | None = None,
                             field: ForcingField | None = None,
                             h: float | None = None) -> float:
    """Defect in the center balance p(0) sum(K) = h + sum_e int (1-t) F_e.

    Moments use the assembly quadrature, making the identity exact for the
    discrete solution; the returned value is the defect normalized by
    1 + |h| + sum |moments| and is roundoff-sized for a consistent solve.
    """
    stage = solution.stage if stage is None else stage
    h = solution.h if h is None else float(h)
    if field is None:
        moments = _load_moments(solution)
    else:
        w = 1.0 - np.arange(solution.m + 1) / solution.m
        moments = assemble_loads(field, stage, solution.m) @ w
    lhs = solution.center * float(stage.coeffs.sum())
    rhs = h + float(moments.sum())
    return abs(lhs - rhs) / (1.0 + abs(h) + float(np.abs(moments).sum()))


def edge_flux_at_center(solution: StageSolution, ell: int) -> float:
    """K(e) times the first-element slope at the center on edge ell."""
    if not 1 <= ell <= solution.stage.n:
        raise InvalidArgumentError(f"edge {ell} not in stage n={solution.stage.n}")
    e = ell - 1
    slope = (solution.values[e, 1] - solution.values[e, 0]) * solution.m
    return float(solution.stage.coeffs[e] * slope)


def _edge_identity_defects(solution: StageSolution) -> np.ndarray:
    """|K p(0) + K p'(0) - int (1-t) F_e| for every edge, in one pass."""
    K = solution.stage.coeffs
    slopes = (solution.values[:, 1] - solution.values[:, 0]) * solution.m
    return np.abs(K * solution.center + K * slopes - _load_moments(solution))


def edge_identity_residual(solution: StageSolution, ell: int) -> float:
    """Defect in the per-edge balance K p(0) + K p'(0) = int (1-t) F_e.

    Unlike the center identity this one holds only in the limit: the
    one-sided slope is first-order accurate, so the defect decays like 1/m.
    """
    if not 1 <= ell <= solution.stage.n:
        raise InvalidArgumentError(f"edge {ell} not in stage n={solution.stage.n}")
    return float(_edge_identity_defects(solution)[ell - 1])


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
