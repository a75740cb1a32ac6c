"""Independent reference computations for the test suite.

Everything here is deliberately written the slow way: dense matrices,
scalar assembly loops, adaptive quadrature. None of it shares code with
the package beyond numpy itself, so agreement between the two is
evidence, not tautology.
"""

import numpy as np
from scipy.integrate import quad


def hat_loads(f, m):
    """Load vector of f against the P1 hat basis on m uniform elements.

    Returns all m + 1 rows including the center (j = 0) and rim (j = m)
    hats; adaptive quadrature per hat support.
    """
    loads = np.zeros(m + 1)
    for j in range(m + 1):
        lo = max((j - 1) / m, 0.0)
        hi = min((j + 1) / m, 1.0)

        def integrand(t, _j=j):
            return f(t) * max(0.0, 1.0 - abs(t * m - _j))

        # split at the hat peak so quad never straddles the kink
        if lo < j / m < hi:
            a, _ = quad(integrand, lo, j / m, limit=200)
            b, _ = quad(integrand, j / m, hi, limit=200)
            loads[j] = a + b
        else:
            loads[j], _ = quad(integrand, lo, hi, limit=200)
    return loads


def dense_gid(e, j, m):
    """Global unknown index of node j on edge e; node 0 is the center."""
    if j == 0:
        return 0
    return 1 + e * (m - 1) + (j - 1)


def dense_system(coeffs, loads, h):
    """Full stage matrix and right side, assembled entry by entry.

    coeffs is (n,), loads is (n, m + 1) including center and rim rows.
    Unknown order: center first, then the interior nodes edge by edge.
    The rim node is eliminated by the zero boundary value.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    loads = np.asarray(loads, dtype=float)
    n, mp1 = loads.shape
    m = mp1 - 1
    size = 1 + n * (m - 1)
    A = np.zeros((size, size))
    b = np.zeros(size)
    local = np.array([[1.0, -1.0], [-1.0, 1.0]])
    for e in range(n):
        k = coeffs[e] * m
        for el in range(m):
            nodes = (el, el + 1)
            for a in range(2):
                if nodes[a] == m:
                    continue
                ia = dense_gid(e, nodes[a], m)
                for c in range(2):
                    if nodes[c] == m:
                        continue
                    A[ia, dense_gid(e, nodes[c], m)] += k * local[a, c]
        for j in range(m):
            b[dense_gid(e, j, m)] += loads[e, j]
    b[0] += h
    return A, b


def dense_solve(coeffs, loads, h):
    """Solve the dense stage system; returns (center, values (n, m+1))."""
    A, b = dense_system(coeffs, loads, h)
    x = np.linalg.solve(A, b)
    n = len(coeffs)
    m = loads.shape[1] - 1
    values = np.zeros((n, m + 1))
    values[:, 0] = x[0]
    for e in range(n):
        values[e, 1:m] = x[1 + e * (m - 1):1 + (e + 1) * (m - 1)]
    return float(x[0]), values


def quad_moment(f):
    """int_0^1 (1 - t) f(t) dt by adaptive quadrature."""
    val, _ = quad(lambda t: (1.0 - t) * f(t), 0.0, 1.0, limit=200,
                  epsabs=1e-13, epsrel=1e-13)
    return val


def continuum_center(coeffs, edge_profiles, h):
    """Exact center value (h + sum of weighted forcing moments) / sum K."""
    mom = sum(quad_moment(f) for f in edge_profiles)
    return (h + mom) / float(np.sum(coeffs))


def sin_edge_solution(A, b, K, p0):
    """Exact solution of -K u'' = A sin(b t), u(0) = p0, u(1) = 0."""
    s = A / (K * b * b)

    def u(t):
        t = np.asarray(t, dtype=float)
        return s * np.sin(b * t) + p0 - (p0 + s * np.sin(b)) * t

    return u


def l2_of(f):
    """L2 norm of a callable on (0, 1) by adaptive quadrature."""
    val, _ = quad(lambda t: f(t) ** 2, 0.0, 1.0, limit=200,
                  epsabs=1e-13, epsrel=1e-13)
    return np.sqrt(val)


def gauss_hat_loads(A, q, m, orientation="center", dps=40):
    """3-point Gauss hat loads (m + 1,) of A sin(pi q s), q an integer.

    Evaluated in extended precision (mpmath at ``dps`` digits) with b = pi q
    exact, for the rule as float64 holds it: points 1/2 -+ sqrt(0.6)/2 and
    1/2, weights 5/18, 8/18, 5/18, each rounded to float64 and then taken
    exactly. s = t, or 1 - t under the "rim" orientation. Rounded to
    float64 only at the end.
    """
    import mpmath

    points = (0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6))
    weights = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in points]
        w = [mpmath.mpf(float(v)) for v in weights]
        b = mpmath.pi * int(q)
        loads = [mpmath.mpf(0)] * (m + 1)
        for i in range(m):
            for xj, wj in zip(x, w):
                t = (i + xj) / m
                s = 1 - t if orientation == "rim" else t
                f = mpmath.mpf(float(A)) * mpmath.sin(b * s) * wj / m
                loads[i] += (1 - xj) * f
                loads[i + 1] += xj * f
        return np.array([float(v) for v in loads])


def cesaro_forcing_average(field, stage, group, m):
    """Nodewise mean of F_l over the edges of 1-based ``group``, (m + 1,).

    The edges are those with ``stage.group_of == group``; the field under
    test is sampled through ``field.values`` at the m + 1 uniform nodes.
    """
    ells = np.flatnonzero(np.asarray(stage.group_of) == group) + 1
    if not ells.size:
        raise ValueError(f"group {group} has no edges at stage n={stage.n}")
    return field.values(ells, np.arange(m + 1) / m).mean(axis=0)


def weighted_flux_defect(problem, funcs):
    """|sum_i s_i K_i f_i'(0) + hbar| of group curves ``funcs``.

    The slope at the center is the one-sided O(d^2) difference with
    d = 1e-6; ``problem`` supplies the shares s, values K and datum hbar.
    """
    d = 1e-6
    total = problem.hbar
    for s, K, f in zip(problem.s, problem.K, funcs):
        slope = (-3 * float(f(0.0)) + 4 * float(f(d)) - float(f(2 * d))) / (2 * d)
        total += s * K * slope
    return abs(total)


def center_edge_flux(K, values, m):
    """K times the first-element slope (u_1 - u_0) m of one edge's values."""
    return K * (values[1] - values[0]) * m
