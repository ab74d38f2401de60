"""Real roots of the t-quartic p(t) = v t^4 + 2(R - c) t^3 + 2(R + c) t - v, many at once.

With g = |R|^(2/3) + v^(2/3) - c^(2/3), p has four simple real roots inside the
astroid g = 0, two outside it, a double root on it, and the triple root t = 1 at
its cusp R = 0, c = v (Stoner & Wohlfarth 1948): _expected_count.  At v = 0 the
roots are 0, sqrt(-(R + c)/(R - c)) and math.inf.  For v > 0 Newton finds a root
on each side of 0, and inside the astroid a third; as the roots multiply to -1,
that gives the fourth, and in the astroid's band the double root.  The roots take only +, -,
*, /, sqrt and powers of two, which round alike on every CPU path; np.cbrt sets the count.
"""

from __future__ import annotations

import math

import numpy as np

# The astroid's band is |g| <= KAPPA v^(2/3), where the two roots nearest the double
# root are taken as that root.  Outside it Newton resolves every root, near the cusp
# too.  At small v near R = +-c, the roots keep their relative spacing where g / v^(2/3) does.
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
    p0, p1, *rest = np.ascontiguousarray(p.T)  # Horner runs 1.5x faster on contiguous columns
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
        z, last = np.where(active, z - step, z), size  # a stopped element stays stopped
    return z


def _side_roots(A, B, outer, inner):
    """Roots of t^4 + A t^3 + B t - 1 (-1 at t = 0): the one where p is convex, and on the other
    side of 0 the outermost in rows outer and the innermost in rows inner, else NaN.

    p'' = 6t(2t + A): p is convex where t has the sign of A, so that side holds one root, and
    Newton from beyond it falls to it.  The other side holds one root or three.  Newton from
    beyond them falls to the outermost when it lies past -A/2, where p is convex too, and Newton
    from t = 0, whose first step is 1/B, climbs to the innermost short of -A/2, where p is concave.
    """
    # Each side's roots lie within |t| <= X, where |t|^4 -+ |A| |t|^3 - |B| |t| - 1 > 0: past big
    # = 2^ceil(e/3) >= cbrt(|B| + 1), as |B| + 1 < 2^e (numpy's cbrt rounds by CPU path), on the
    # convex side past max(low, sqrt(2|B|/|A|)), low >= cbrt(2/|A|) likewise, and past 1/|B| where
    # B t > 0 there; so Newton starts near its root.  fmax skips A = B = 0's 0/0 (p = t^4 - 1).
    big, side = np.ldexp(1.0, -(-np.frexp(np.abs(B) + 1.0)[1] // 3)), np.where(A >= 0.0, 1.0, -1.0)
    low = np.ldexp(1.0, -((np.frexp(np.abs(A))[1] - 2) // 3))
    near = np.minimum(big, np.fmax(low, np.sqrt(2.0 * (np.abs(B) / np.abs(A)))))
    near = np.fmin(near, np.where(B * side > 0.0, 1.0 / np.abs(B), np.nan))
    X = np.stack([side * near, -side * (np.abs(A) + big), 1.0 / B])
    X[1:] = np.where([outer, inner], X[1:], np.nan)
    # Newton in s = t / X from s = 1, on p(X s) / X^4 where |X| >= 1 and on p(X s) where not: no
    # coefficient exceeds max(1, |A|, |B|), which a power of two then brings below 1.
    ones, zero, X4 = np.ones_like(X), 0.0 * X, (X * X) * (X * X)
    small = np.array([X4, A * X * X * X, zero, B * X, -ones])
    p = np.where(np.abs(X) < 1.0, small, [ones, A / X, zero, B / X / X / X, -ones / X4])
    p = np.ldexp(p, -np.frexp(np.fmax(np.fmax(np.abs(A), np.abs(B)), 1.0))[1])
    return X * _polish(p.reshape(5, -1).T, ones.ravel()).reshape(X.shape)


def real_roots(R, c, v) -> tuple[np.ndarray, ...]:
    """Real roots of the t-quartics at the points (R, c, v), 1-D arrays, and their multiplicities.

    Returns roots and mult (k, 4): each row's distinct real roots in no set
    order, and NaN with mult 0 where a root is absent (solve_quartic_real_roots
    sorts its own).  At v = 0 of the roots -t and t, one state, only t is
    given.  A row whose largest |R|, c or v is at or above 2^1020 is first
    scaled below it by a power of two, which is exact and keeps its roots.
    Also returns which rows could be solved: one where 2 (R -+ c) or its
    ratio to v > 0 overflows gets no roots; and the astroid's count and band,
    _expected_count of the unscaled point, which hold where v > 0.
    """
    roots, mult = np.full((len(R), 4), np.nan), np.ones((len(R), 4), dtype=int)
    with np.errstate(all="ignore"):
        expected, band = _expected_count(R, c, v)
        # Below 2^1020, 2 (R -+ c) and the polish's Horner sums on [v, a2, 0, b2, -v] stay finite.
        k = np.minimum(0, 1020 - np.frexp(np.maximum(np.maximum(np.abs(R), c), v))[1])
        R, c, v = np.ldexp(R, k), np.ldexp(c, k), np.ldexp(v, k)
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
        A, B, count, in_band, R_ = A[rows], B[rows], expected[rows], band[rows], R[rows]
        # The side of 0 away from A holds three roots inside the astroid, one outside it: past -A/2
        # where p(-A/2) = -A^2 (A^2/16 + B/(2A) + 1/A^2) <= 0 (NaN at A = B = 0), else short of
        # it.  In the band, where A < 0, it holds the double root d and a simple root, which lies
        # past -A/2 where d does not: on the astroid p''(d) has the sign of R.  At the cusp only d.
        past = ~(A * A / 16.0 + B / (2.0 * A) + 1.0 / (A * A) < 0.0)
        outer = np.where(in_band, (R_ < 0.0) & (count == 3), (count == 4) | past)
        inner = np.where(in_band, (R_ > 0.0) & (count == 3), (count == 4) | ~past)
        lone, far, near = _side_roots(A, B, outer, inner)
        # The roots multiply to -1: inside the astroid that gives the fourth, and in the band the
        # double root (fmax takes the simple root searched), or at the cusp the sum, -A, does.
        double = np.where(count == 2, (-A - lone) / 3.0, np.sqrt(-1.0 / lone / np.fmax(far, near)))
        z = np.stack([lone, far, near, np.where(in_band, double, -1.0 / lone / far / near)], 1)
        mu = np.ones(z.shape, dtype=int)
        mu[:, 3] = np.where(in_band, np.where(count == 2, 3, 2), 1)
        r, g = np.nonzero(np.isfinite(z))
        t, inverted = z[r, g], np.abs(z[r, g]) > 1.0
        p = np.stack([v, a2, 0.0 * v, b2, -v], axis=1)[rows[r]]
        p[inverted] = p[inverted, ::-1]
        for deeper in (mu[r, g] > 1, mu[r, g] > 2):
            p[deeper, 1:], p[deeper, 0] = p[deeper, :-1] * np.arange(4.0, 0.0, -1.0), 0.0
        t = _polish(p, np.where(inverted, 1.0 / t, t))
        roots[rows[r], g], mult[rows[r], g] = np.where(inverted, 1.0 / t, t), mu[r, g]

    mult[np.isnan(roots)] = 0
    return roots, mult, solvable, expected, band
