"""Real roots of the t-quartic p(t) = v t^4 + 2(R - c) t^3 + 2(R + c) t - v, many at once.

With g = |R|^(2/3) + v^(2/3) - c^(2/3), p has four simple real roots inside the
astroid g = 0, two outside it, a double root on it, and the triple root t = 1 at
its cusp R = 0, c = v (Stoner & Wohlfarth 1948): _expected_count.  At v = 0 the
roots are 0, sqrt(-(R + c)/(R - c)) and math.inf.  For v > 0 a real root with no
root over twice as far is divided out, 3x3 companion matrices root the cubic
left, and in the astroid's band the roots nearest the double root are that root.
"""

from __future__ import annotations

import math

import numpy as np

# The one stationarity tolerance: a root is real when |Im| <= TOL |Re|, and a
# state when |H(psi) psi - E psi| < TOL max(1, |R|, c, v), the scale of its rounding.
TOL = 1e-9

# The astroid's band is |g| <= KAPPA v^(2/3).  Outside it the eigenvalues resolve
# every root, near the cusp too, where they scatter like eps^(1/3).  At small v
# near R = +-c, the roots keep their relative spacing where g / v^(2/3) does.
KAPPA = 1e-9


def _expected_count(R, c, v):
    """The astroid's count of real roots at points with v > 0, and which lie in its band.

    4 inside, 2 outside; in the band 3, or 2 at the cusp, where |R|^(2/3) is in
    the band too.  A count of either side is as good in the band.
    """
    a, b, coupling = np.cbrt(np.abs(R)), np.cbrt(c), np.cbrt(v) ** 2
    # a^2 - b^2 = (a + b)(a - b), with a - b = (|R| - c) / (a^2 + ab + b^2) exact near R = +-c.
    g = (np.abs(R) - c) * ((a + b) / (a * a + a * b + b * b + (a + b == 0.0))) + coupling
    band = np.abs(g) <= KAPPA * coupling
    return np.where(band, np.where(a * a <= KAPPA * coupling, 2, 3), np.where(g < 0.0, 4, 2)), band


def _polish(p, z):
    """Newton on the quartics p (m, 5) from z (m,), each until its step stops shrinking."""
    p0, p1, *rest = p.T
    last, active = np.full(z.shape, math.inf), np.ones(z.shape, dtype=bool)
    for _ in range(60):
        value, slope = p0 * z + p1, p0  # Horner's scheme for p, and with it for p'.
        for a in rest:
            value, slope = value * z + a, slope * z + value
        # A zero slope makes the step inf or nan, which stops that element too.
        size = np.abs(step := value / slope)
        active &= size < last
        if not active.any():
            break
        z, last = np.where(active, z - step, z), np.where(active, size, last)
    return z


def _far_root(A, B, cusp):
    """A real root of t^4 + A t^3 + B t - 1 (-1 at t = 0) with no root over twice as far.

    p'' = 6t(2t + A): p is convex where t has the sign of A, so Newton from
    beyond the roots falls to the outer one there.  On the other side it does
    when a root lies past -A/2, and else stops at a nearer root or none.  That
    root is taken if more than twice as far, so near a cluster the convex
    side's simple root is divided out; at the cusp only that side is searched.
    """
    # Each side's roots lie within |t| <= X, where |t|^4 -+ |A| |t|^3 - |B| |t| - 1 > 0.  big =
    # 2^ceil(e/3) >= cbrt(|B| + 1), as |B| + 1 < 2^e; numpy's cbrt would round by CPU path.
    big, side = np.ldexp(1.0, -(-np.frexp(np.abs(B) + 1.0)[1] // 3)), np.where(A >= 0.0, 1.0, -1.0)
    near = np.minimum(big, np.maximum(1.0, np.sqrt((np.abs(B) + 1.0) / np.abs(A))))
    X = np.stack([side * near, np.where(cusp, side * near, -side * (np.abs(A) + big))])
    # Newton in s = t / X, on p(X s) / X^4, where no power of a far root overflows.
    p = np.stack([np.ones_like(X), A / X, 0.0 * X, B / X / X / X, -1.0 / ((X * X) * (X * X))], 2)
    s = _polish(p.reshape(-1, 5), np.ones(X.size)).reshape(X.shape)
    # Powers as products, as X^4 above: np.power rounds by the CPU path.
    terms = p * np.stack([(s * s) * (s * s), (s * s) * s, s * s, s, np.ones_like(s)], axis=2)
    is_root = np.abs(terms.sum(axis=2)) <= 16.0 * np.finfo(float).eps * np.abs(terms).sum(axis=2)
    convex, other = X * s
    return np.where(is_root[1] & (np.abs(other) > 2.0 * np.abs(convex)), other, convex)


def real_roots(R, c, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real roots of the t-quartics at the points (R, c, v), 1-D arrays, and their multiplicities.

    Returns roots and mult (k, 4): each row's distinct real roots ascending,
    then NaN with mult 0.  At v = 0 of the roots -t and t, one state, only t
    is given.  Also returns which rows could be solved: one where 2 (R -+ c)
    or its ratio to v > 0 overflows gets no roots.
    """
    roots, mult = np.full((len(R), 4), np.nan), np.ones((len(R), 4), dtype=int)
    with np.errstate(all="ignore"):
        a2, b2 = 2.0 * (R - c), 2.0 * (R + c)
        A, B = a2 / v, b2 / v
        solvable = np.isfinite(np.where(v == 0.0, a2, A)) & np.isfinite(np.where(v == 0.0, b2, B))
        flat = np.flatnonzero((v == 0.0) & solvable)
        if flat.size:
            pair = np.sqrt(-b2[flat] / a2[flat])
            roots[flat, 0], roots[flat, 1] = 0.0, np.where(pair > 0.0, pair, np.nan)
            roots[flat, 3], mult[flat, 0] = math.inf, 1 + 2 * (b2[flat] == 0.0)
            mult[flat, 3] = 1 + 2 * (a2[flat] == 0.0)

        rows = np.flatnonzero((v > 0.0) & solvable)
        A, B, ones = A[rows], B[rows], np.ones(len(rows))
        expected, band = _expected_count(R[rows], c[rows], v[rows])
        far = _far_root(A, B, band & (expected == 2))
        w = 1.0 / far
        # Divide u^4 p(1/u) by u - w from its leading coefficient down; reverse the cubic.
        e1 = w * (B - w)
        companion = np.zeros((len(rows), 3, 3))
        companion[:, 0, :] = np.stack([-e1, w - B, ones], axis=1) / (A + w * e1)[:, None]
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        z = np.concatenate([far[:, None], np.linalg.eigvals(companion)], axis=1)

        # In the band, the fold roots nearest the double root, at cos beta = -(R/c)^(1/3)
        # and sin beta = (v/c)^(1/3), are that root: mu = fold for one, 0 for the others.
        b, mu = np.flatnonzero(band), np.ones(z.shape, dtype=int)
        if b.size:
            R_, c_, v_ = R[rows[b]], c[rows[b]], v[rows[b]]
            double = np.tan(0.5 * np.arctan2(np.cbrt(v_ / c_), -np.cbrt(R_ / c_)))[:, None]
            rank = np.argsort(np.argsort(np.abs(z[b] - double), axis=1), axis=1)
            fold = np.where(expected[b] == 2, 3, 2)[:, None]
            z[b], mu[b] = np.where(rank == 0, double, z[b]), np.where(rank == 0, fold, rank >= fold)
        r, g = np.nonzero((mu > 0) & (np.abs(z.imag) <= TOL * np.abs(z.real)))
        t, inverted = z.real[r, g], np.abs(z.real[r, g]) > 1.0
        p = np.stack([v, a2, 0.0 * v, b2, -v], axis=1)[rows[r]]
        p[inverted] = p[inverted, ::-1]
        for deeper in (mu[r, g] > 1, mu[r, g] > 2):
            p[deeper, 1:], p[deeper, 0] = p[deeper, :-1] * np.arange(4.0, 0.0, -1.0), 0.0
        t = _polish(p, np.where(inverted, 1.0 / t, t))
        roots[rows[r], g], mult[rows[r], g] = np.where(inverted, 1.0 / t, t), mu[r, g]

    mult[np.isnan(roots)] = 0
    order = np.argsort(roots, axis=1, kind="stable")
    return np.take_along_axis(roots, order, 1), np.take_along_axis(mult, order, 1), solvable
