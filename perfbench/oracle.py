"""Reference answers for the benchmark's outputs, computed without the package.

The package finds stationary energies as roots of a quartic in E, polished by
a Newton multiplicity ladder, and rebuilds states around them.  The reference
here takes another route: every stationary state is an eigenvector of the
linear matrix H(m) whose own imbalance is m, which gives a quartic in m,

    (m^2 - 1) (R + c m)^2 + v^2 m^2 = 0,

whose real roots all lie in (-1, 1) when v > 0.  Roots come from batched
companion eigenvalues polished in extended precision; points whose roots sit
close together or close to the real axis are solved again with mpmath at 40
digits.  The energy of a root is -r when m and a = (R + c m)/2 share a sign
and +r otherwise, r = sqrt(a^2 + v^2/4).

Loop phases use the signed closed form pi (1 + m) (mod 2 pi) of the tracked
state, the frame-loop quadratures their constant-theta closed forms, and echo
traces a DOP853 integration of the same equations of motion.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * math.pi

# An energy passes when it is within ENERGY_TOL * (1 + |E|) of the reference;
# the CSV carries 12 significant digits, so 1e-8 leaves room for rounding and
# for roots next to a near-double root, and still rejects a 1e-6 error.
ENERGY_TOL = 1e-8
# Discrete loop phases converge as 1/N^2; at 1024 samples the worst case is
# near 2e-6 (criterion_03 allows 1e-5 at 4096).
LOOP_PHASE_TOL = 1e-5
# Constant-theta quadratures are exact up to rounding.
QUADRATURE_TOL = 1e-9
# RK4 at dt = 0.002 matches DOP853 to ~1e-11; the CSV rounds to 12 digits.
TRACE_TOL = 1e-9

# Roots of the m-quartic closer than this to each other, or with an imaginary
# part between the two bounds, are re-solved with mpmath.
_CLOSE = 1e-3
_REAL_IMAG = 1e-12


def _energy(R, c, v, m):
    a = 0.5 * (R + c * m)
    r = np.sqrt(a * a + 0.25 * v * v)
    return np.where(m * a > 0, -r, r)


def _mp_roots(R: float, c: float, v: float) -> list[float]:
    """Real roots of the m-quartic at 40 digits; near-coincident ones merged."""
    with mpmath.workdps(40):
        coeffs = [c * c, 2 * R * c, R * R - c * c + v * v, -2 * R * c, -R * R]
        roots = mpmath.polyroots([mpmath.mpf(x) for x in coeffs], maxsteps=200, extraprec=80)
        real = sorted(float(mpmath.re(z)) for z in roots if abs(mpmath.im(z)) < 1e-15)
    merged: list[float] = []
    for m in real:
        if not merged or m - merged[-1] > 1e-15:
            merged.append(m)
    return merged


def _generic_roots(R: np.ndarray, c: float, v: np.ndarray) -> list[list[float]]:
    """Real m-roots for points with R != 0, v > 0, c > 0."""
    n = len(R)
    if n == 0:
        return []
    c2 = c * c
    coeffs = np.stack(
        [2 * R * c / c2, (R * R - c2 + v * v) / c2, -2 * R * c / c2, -R * R / c2], axis=1
    )
    comp = np.zeros((n, 4, 4))
    comp[:, 0, :] = -coeffs
    comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
    z = np.linalg.eigvals(comp).astype(np.clongdouble)

    cl = coeffs.astype(np.longdouble)[:, :, None]
    for _ in range(8):
        p = z + cl[:, 0]
        dp = np.ones_like(z)
        for k in (1, 2, 3):
            dp = dp * z + p
            p = p * z + cl[:, k]
        safe = dp != 0
        z = np.where(safe, z - p / np.where(safe, dp, 1), z)

    gaps = np.where(np.eye(4, dtype=bool), np.inf, np.abs(z[:, :, None] - z[:, None, :]))
    imag = np.abs(z.imag)
    suspect = (gaps.min(axis=(1, 2)) < _CLOSE) | np.any(
        (imag > _REAL_IMAG) & (imag < _CLOSE), axis=1
    )
    out = []
    for i in range(n):
        if suspect[i]:
            out.append(_mp_roots(float(R[i]), c, float(v[i])))
        else:
            out.append(sorted(float(x) for x in z[i].real[imag[i] <= _REAL_IMAG]))
    return out


def stationary_states(R, v, c: float) -> list[list[tuple[float, float]]]:
    """(energy, imbalance) of every stationary state, per point, sorted.

    R and v are equal-length sequences; the origin R = v = 0 has no states.
    At v = 0 the polarized states m = -1, +1 exist everywhere and the state
    with m = -R/c (E = 0) exists for |R| < c.  At R = 0 the m = 0 pair sits at
    E = +-v/2 and the self-trapped pair m = +-sqrt(1 - v^2/c^2) at E = -c/2.
    """
    R = np.asarray(R, dtype=float)
    v = np.asarray(v, dtype=float)
    result: list[list[tuple[float, float]] | None] = [None] * len(R)
    generic = []
    for i, (r, w) in enumerate(zip(R.tolist(), v.tolist())):
        if w == 0.0 and r == 0.0:
            result[i] = []
        elif w == 0.0:
            result[i] = [(0.5 * (r - c), -1.0), (-0.5 * (r + c), 1.0)]
            if abs(r) < c:
                result[i].append((0.0, -r / c))
        elif c == 0.0:
            half = 0.5 * math.hypot(r, w)
            result[i] = [(-half, r / (2 * half)), (half, -r / (2 * half))]
        elif r == 0.0:
            result[i] = [(-0.5 * w, 0.0), (0.5 * w, 0.0)]
            if w < c:
                m0 = math.sqrt(1.0 - (w / c) ** 2)
                result[i] += [(-0.5 * c, -m0), (-0.5 * c, m0)]
        else:
            generic.append(i)
    idx = np.array(generic, dtype=int)
    for i, roots in zip(generic, _generic_roots(R[idx], c, v[idx])):
        m = np.array(roots)
        energies = _energy(R[i], c, v[i], m)
        result[i] = [(float(e), float(x)) for e, x in zip(energies, m)]
    return [sorted(states) for states in result]


def energies_match(got: list[float], expected: list[float]) -> bool:
    """Same state count and every sorted energy within ENERGY_TOL."""
    if len(got) != len(expected):
        return False
    return all(
        abs(a - b) <= ENERGY_TOL * (1.0 + abs(b)) for a, b in zip(sorted(got), expected)
    )


def loop_phase(m: float) -> float:
    """Coupling-phase loop phase of a state with imbalance m, in [0, 2 pi).

    The state winds as (sqrt(p1), sqrt(p2) e^{-i phi}); its geometric phase
    is 2 pi p2 = pi (1 + m).  For m <= 0 this is the package's closed form
    pi (1 - sqrt(1 - v^2/(4 E^2))).
    """
    return math.fmod(math.pi * (1.0 + m), TWO_PI)


def phase_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, TWO_PI))


def quadrature_phases(kind: str, theta: float, s: float) -> tuple[float, float]:
    """Closed forms of the frame-loop quadratures at constant theta, mod 2 pi."""
    st, ct = math.sin(theta), math.cos(theta)
    if kind in ("perturbative", "unit_overlap"):
        g_n = math.pi * ((1.0 - ct) + s * st) / (1.0 + s * st)
        g_n1 = math.pi * ((1.0 + ct) - s * st) / (1.0 - s * st)
    elif kind == "small_overlap":
        corr = 0.5 * math.pi * s * math.sin(2.0 * theta)
        g_n = math.pi * (1.0 - ct) + corr
        g_n1 = -math.pi * (1.0 - ct) + corr
    else:
        raise ValueError(f"unknown quadrature {kind!r}")
    return (g_n % TWO_PI, g_n1 % TWO_PI)


TRANSPORT_SIGNS = {"phi": [1, 1, 1], "theta": [-1, 1, -1]}


def ground_state(R: float, c: float, v: float) -> tuple[complex, complex]:
    """Amplitudes of the lowest (energy, imbalance) state, amp1 real.

    The fully degenerate point R = v = 0 takes the first basis state, as the
    echo command documents.
    """
    if R == 0.0 and v == 0.0:
        return (1.0 + 0.0j, 0.0j)
    E, m = stationary_states([R], [v], c)[0][0]
    a1 = math.sqrt(max(0.0, 0.5 * (1.0 - m)))
    if v == 0.0:
        return (complex(a1), complex(math.sqrt(max(0.0, 0.5 * (1.0 + m)))))
    a = 0.5 * (R + c * m)
    a2 = (E - a) * a1 / (0.5 * v)
    norm = math.hypot(a1, abs(a2))
    return (complex(a1 / norm), complex(a2 / norm))


def echo_trace(
    R: float, c: float, v: float, theta: float, amp: float, T: float, times: np.ndarray
) -> np.ndarray:
    """L(t) = |<psi_driven|psi_base>|^2 from two DOP853 integrations (phi = 0).

    The drive offsets the base by (A cos theta, A sin theta) in (R, v) and
    winds the coupling phase as 2 pi u - sin(2 pi u), u = t/T.
    """
    psi0 = np.array(ground_state(R, c, v))

    def rhs(dR: float, dv: float, winds: bool):
        def f(t, y):
            a1, a2 = y
            m = abs(a2) ** 2 - abs(a1) ** 2
            d = 0.5 * (R + dR) + 0.5 * c * m
            u = t / T
            phi = TWO_PI * u - math.sin(TWO_PI * u) if winds else 0.0
            g = 0.5 * (v + dv) * cmath.exp(1j * phi)
            return [-1j * (d * a1 + g * a2), -1j * (g.conjugate() * a1 - d * a2)]

        return f

    def flow(f):
        sol = solve_ivp(f, (0.0, T), psi0, method="DOP853", rtol=1e-13, atol=1e-13,
                        dense_output=True)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        return sol.sol(times)

    base = flow(rhs(0.0, 0.0, False))
    driven = flow(rhs(amp * math.cos(theta), amp * math.sin(theta), True))
    return np.abs(np.sum(np.conj(driven) * base, axis=0)) ** 2
