"""Simple real roots of many quartics at once, rounded as the scalar solver rounds them.

model.solve_quartic_real_roots finds one quartic's roots: np.roots, grouping
of close companion eigenvalues into multiple roots, then Newton polish in
Python complex arithmetic.  simple_real_roots does the same for a stack of
quartics whose roots are all simple, with one eigvals call and one masked
Newton iteration.  It repeats, on arrays of real and imaginary parts, the
complex arithmetic that Python does, rounding step for step as CPython does.
NumPy's own complex product and quotient round differently, and with them
a root can land one unit in the last place away: -0.7957539890297957 for
-0.7957539890297955 at (R, c, v) = (-2.4795559846832345, 7.866182352955087,
3.093996481405873).  A printed state would then depend on which path
solved its point.
"""

from __future__ import annotations

import math

import numpy as np

# Companion eigenvalues of a mu-fold root scatter like eps**(1/mu) around it,
# about 3e-6 relative for a triple root, so estimates this close are one root.
GROUP_RADIUS = 1e-5


def _cmul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _horner(coeffs, zr, zi):
    """Python's `value = value * z + ck` loop over the last axis of coeffs."""
    vr, vi = 0.0, 0.0
    for k in range(coeffs.shape[-1]):
        vr, vi = _cmul(vr, vi, zr, zi)
        vr, vi = vr + coeffs[..., k], vi + 0.0
    return vr, vi


def _modulus(z):
    """|z| rounded as Python's abs of a complex number."""
    return np.hypot(z.real, z.imag)


# The six pairs (i, j), i < j, of a quartic's four roots.
_PAIRS = np.triu_indices(4, 1)


def _close_pair(z):
    """Rows of eigenvalues z (k, 4) with two of them within GROUP_RADIUS (relative)."""
    i, j = _PAIRS
    size = _modulus(z)
    gap = _modulus(z[:, i] - z[:, j])
    return (gap <= GROUP_RADIUS * np.maximum(size[:, i], size[:, j])).any(axis=1)


def _polish(coeffs, z):
    """model._polish on every root at once: rows of coeffs (k, 5), roots z (k, 4).

    Newton in t where |t| <= 1 and in 1/t (reversed coefficients) otherwise,
    stepping until the step stops shrinking.
    """
    zr, zi = z.real, z.imag
    inverted = np.hypot(zr, zi) > 1.0
    target = np.where(inverted[..., None], coeffs[:, None, ::-1], coeffs[:, None, :])
    slope_coeffs = target[..., :-1] * np.arange(4, 0, -1)
    # Python's complex arithmetic neither warns nor raises on overflow or nan.
    with np.errstate(all="ignore"):
        ir, ii = _cdiv(1.0, 0.0, zr, zi)
        zr, zi = np.where(inverted, ir, zr), np.where(inverted, ii, zi)
        last = np.full(zr.shape, math.inf)
        active = np.ones(zr.shape, dtype=bool)
        for _ in range(60):
            vr, vi = _horner(target, zr, zi)
            sr, si = _horner(slope_coeffs, zr, zi)
            stepr, stepi = _cdiv(vr, vi, sr, si)
            size = np.hypot(stepr, stepi)
            active &= ((sr != 0.0) | (si != 0.0)) & (size < last)
            if not active.any():
                break
            zr = np.where(active, zr - stepr, zr)
            zi = np.where(active, zi - stepi, zi)
            last = np.where(active, size, last)
        ir, ii = _cdiv(1.0, 0.0, zr, zi)
    return np.where(inverted, ir, zr), np.where(inverted, ii, zi)


def simple_real_roots(coeffs: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of the quartics coeffs (k, 5), highest power first, leading one nonzero.

    Returns a mask of the rows whose roots are all simple, and their real
    roots, ascending and NaN-padded to four.  A row with two companion
    eigenvalues within GROUP_RADIUS of each other has a multiple root, and
    a row whose companion matrix overflows has no eigenvalues here; both
    are left out.  A root counts as real when |Im| <= tol * (1 + |Re|), as
    in model.solve_quartic_real_roots.
    """
    # Companion matrices built as np.roots builds them.
    companion = np.zeros((len(coeffs), 4, 4))
    with np.errstate(over="ignore"):
        companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    finite = np.isfinite(companion).all(axis=(1, 2))
    z = np.full((len(coeffs), 4), np.nan, dtype=complex)
    z[finite] = np.linalg.eigvals(companion[finite])
    simple = finite & ~_close_pair(z)
    zr, zi = _polish(coeffs[simple], z[simple])
    real = np.where(np.abs(zi) <= tol * (1.0 + np.abs(zr)), zr, np.nan)
    order = np.argsort(real, axis=1, kind="stable")
    return simple, np.take_along_axis(real, order, axis=1)
