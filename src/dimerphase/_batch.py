"""Real roots of many quartics at once, with their multiplicities.

real_roots is the package's one root finder.  A row's leading zero
coefficients are a root at infinity, its trailing ones an exact root at
zero, and the rest is a companion matrix.  The matrices of each degree go
through one stacked eigvals call.  Companion eigenvalues of a row that lie
within GROUP_RADIUS of each other are one root, and the group's size is
its multiplicity.  One masked Newton iteration then polishes every group's
centroid on the (mu-1)-th derivative, where a mu-fold root is simple.
"""

from __future__ import annotations

import math

import numpy as np

# Companion eigenvalues of a mu-fold root scatter like eps**(1/mu) around it,
# so estimates this close (relative) are one root.  The t-quartic's only
# non-trivial triple root, t = 1 at R = 0 and c = v, scatters 4.5e-6.  Other
# triple roots scatter up to 2.5e-5, and most of them are not grouped.
GROUP_RADIUS = 1e-5

# The one stationarity tolerance: a root is real when |Im| <= TOL (1 + |Re|), and
# a state when |H(psi) psi - E psi| < TOL max(1, |R|, c, v), the scale of its rounding.
TOL = 1e-9


def _derivative(p):
    """Derivatives of the quartics p (..., 5), highest power first, kept five wide."""
    out = np.zeros_like(p)
    out[..., 1:] = p[..., :-1] * np.arange(4.0, 0.0, -1.0)
    return out


def _horner(p, z):
    value = p[..., 0] + 0j
    for k in range(1, p.shape[-1]):
        value = value * z + p[..., k]
    return value


def _polish(p, z):
    """Newton on the quartics p (m, 5) from z (m,), each until its step stops shrinking."""
    slope_p = _derivative(p)
    last = np.full(z.shape, math.inf)
    active = np.ones(z.shape, dtype=bool)
    for _ in range(60):
        slope = _horner(slope_p, z)
        step = _horner(p, z) / slope
        size = np.abs(step)
        active &= (slope != 0.0) & (size < last)
        if not active.any():
            break
        z = np.where(active, z - step, z)
        last = np.where(active, size, last)
    return z


def _eigenvalues(coeffs, lead, trail):
    """Companion eigenvalues of each row, then its trailing zeros, NaN-padded to four.

    Also returns which rows have finite coefficients and companion matrices.
    """
    z = np.full((len(coeffs), 4), np.nan, dtype=complex)
    solvable = np.isfinite(coeffs).all(axis=1)
    degree = 4 - lead - trail
    for d in set(degree[degree > 0].tolist()):
        rows = np.flatnonzero(degree == d)
        p = np.take_along_axis(coeffs[rows], lead[rows, None] + np.arange(d + 1), axis=1)
        companion = np.zeros((len(rows), d, d))
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        finite = np.isfinite(companion).all(axis=(1, 2))
        z[rows[finite], :d] = np.linalg.eigvals(companion[finite])
        solvable[rows[~finite]] = False
    z[(np.arange(4) >= degree[:, None]) & (np.arange(4) < 4 - lead[:, None])] = 0.0
    return z, solvable


def real_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real roots of the quartics coeffs (k, 5), highest power first, and their multiplicities.

    Returns roots and mult, both (k, 4): each row's distinct real roots
    ascending, NaN after them, and mult 0 there.  L leading zero
    coefficients are the root math.inf with multiplicity L.  A root counts
    as real when |Im| <= TOL * (1 + |Re|).  Also returns which rows could
    be solved: a row whose coefficients or companion matrix overflow gets
    no roots.
    """
    k = len(coeffs)
    rows = np.arange(k)[:, None]
    nonzero = coeffs != 0.0
    some = nonzero.any(axis=1)
    lead = np.where(some, nonzero.argmax(axis=1), 5)
    trail = np.where(some, nonzero[:, ::-1].argmax(axis=1), 0)
    with np.errstate(all="ignore"):
        z, solvable = _eigenvalues(coeffs, lead, trail)
        z = z[rows, np.lexsort((z.imag, z.real), axis=-1)]

        # Single linkage in sorted order: each eigenvalue joins the first
        # group, by position of its first member, that holds a close one.
        size = np.abs(z)
        close = np.abs(z[:, :, None] - z[:, None, :]) <= GROUP_RADIUS * np.maximum(
            size[:, :, None], size[:, None, :]
        )
        label = np.tile(np.arange(4), (k, 1))
        for i in range(1, 4):
            label[:, i] = np.where(close[:, :i, i], label[:, :i], i).min(axis=1)
        member = label[:, None, :] == np.arange(4)[:, None]
        mult = member.sum(axis=2)
        total = np.where(member, z[:, None, :], 0.0).sum(axis=2)

        r, g = np.nonzero((mult > 0) & ~np.isnan(z))
        centroid = total[r, g] / mult[r, g]
        inverted = np.abs(centroid) > 1.0
        p = np.where(inverted[:, None], coeffs[r, ::-1], coeffs[r])
        for q in range(1, 4):
            deeper = mult[r, g] > q
            p[deeper] = _derivative(p[deeper])
        w = _polish(p, np.where(inverted, 1.0 / centroid, centroid))
        w = np.where(inverted, 1.0 / w, w)

    roots = np.full((k, 4), np.nan)
    real = np.abs(w.imag) <= TOL * (1.0 + np.abs(w.real))
    roots[r[real], g[real]] = w.real[real]
    roots[lead > 0, 3] = math.inf
    mult[lead > 0, 3] = lead[lead > 0]
    roots[~solvable] = np.nan
    mult[np.isnan(roots)] = 0
    order = np.argsort(roots, axis=1, kind="stable")
    return roots[rows, order], mult[rows, order], solvable
