"""Nonlinear two-mode (dimer) model: stationary states and branch tracking.

The Hamiltonian is a 2x2 matrix whose diagonal depends on the population
imbalance m = |psi2|^2 - |psi1|^2 of the state it acts on:

    H(psi) = [[ R/2 + c*m/2,      (v/2) e^{+i phi} ],
              [ (v/2) e^{-i phi}, -R/2 - c*m/2     ]]

Stationary states solve the self-consistency condition H(psi) psi = E psi, so
there can be more of them than the dimension of the matrix.  Each is
psi(beta) = (sin beta/2, -cos beta/2 e^{-i phi}) for a real root
t = tan(beta/2) of one quartic, with imbalance m = cos beta and a closed-form
energy; a root is kept when the rebuilt state's stationarity residual is small.

stationary_arrays is the one solver: it takes arrays of parameter points and
returns their states as arrays.  The quartic ignores phi, so each distinct
(R, c, v) is solved once, and all of them go through one batch root finder,
_batch.real_roots, whether their roots are simple or multiple and whether v
is zero or not.  solve_quartic_real_roots is that root finder for one
quartic, and stationary_states the solver for one point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._batch import real_roots
from .errors import BranchLostError, InvalidStateError

TWO_PI = 2.0 * math.pi


def _check_finite(**values: float) -> None:
    """Raise ValueError naming the first of the values that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_theta(theta) -> None:
    """Polar angles, a scalar or an array, must lie in [0, pi]."""
    if not np.all((0.0 <= theta) & (theta <= math.pi)):
        raise ValueError("theta must lie in [0, pi]")


@dataclass(frozen=True)
class ModelParams:
    """Dimer parameters.

    R    level bias (detuning between the two modes)
    c    nonlinearity strength, >= 0
    v    coupling magnitude, >= 0
    phi  coupling phase, stored reduced to [0, 2*pi)

    All four must be finite.
    """

    R: float
    c: float
    v: float
    phi: float = 0.0

    def __post_init__(self):
        for name in ("R", "c", "v", "phi"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _check_finite(R=self.R, c=self.c, v=self.v, phi=self.phi)
        if self.v < 0.0:
            raise ValueError("coupling magnitude v must be >= 0 (move signs into phi)")
        if self.c < 0.0:
            raise ValueError("nonlinearity c must be >= 0")
        phi = self.phi % TWO_PI
        # A tiny negative phi reduces to 2*pi - tiny, which rounds to 2*pi itself.
        object.__setattr__(self, "phi", 0.0 if phi == TWO_PI else phi)


@dataclass(frozen=True)
class Eigenstate:
    """One stationary state: amplitudes, energy, imbalance, and how stationary it is.

    The gauge is fixed: amp1 is real and >= 0, and if amp1 vanishes then amp2
    is real and >= 0.  imbalance is recomputed from the stored amplitudes, so
    it always equals |amp2|^2 - |amp1|^2 to rounding.
    """

    amp1: complex
    amp2: complex
    energy: float
    imbalance: float
    residual: float

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([self.amp1, self.amp2])


@dataclass(frozen=True)
class StationaryFamily:
    """All stationary states at one parameter point, sorted by (energy, imbalance)."""

    params: ModelParams
    states: tuple[Eigenstate, ...]

    @property
    def energies(self) -> tuple[float, ...]:
        return tuple(s.energy for s in self.states)

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class StationaryArrays:
    """Stationary states at n parameter points, one row per point.

    energy, amp1, amp2, imbalance and residual have shape (n, 4): row k holds
    the count[k] states of point k, sorted by (energy, imbalance) as in a
    StationaryFamily, and NaN after them.  failed[k] marks a point whose
    states cannot be trusted: v > 0 with a state count outside 2..4, or a
    quartic whose coefficients or companion matrix overflow.  The fully degenerate origin
    v = R = 0 has count 0 and is not failed.
    """

    energy: np.ndarray
    amp1: np.ndarray
    amp2: np.ndarray
    imbalance: np.ndarray
    residual: np.ndarray
    count: np.ndarray
    failed: np.ndarray

    def take(self, k, j) -> list[Eigenstate]:
        """The states in rows k, columns j (index arrays of one length), as records."""
        fields = (self.amp1, self.amp2, self.energy, self.imbalance, self.residual)
        return [Eigenstate(*state) for state in zip(*(f[k, j].tolist() for f in fields))]


@dataclass(frozen=True, eq=False)
class ParamPath:
    """Ordered parameter samples along a curve: four 1-D arrays of one length >= 2."""

    R: np.ndarray
    c: np.ndarray
    v: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("R", "c", "v", "phi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.R.ndim != 1 or not self.R.shape == self.c.shape == self.v.shape == self.phi.shape:
            raise ValueError("R, c, v and phi must be 1-D arrays of one length")
        if len(self.R) < 2:
            raise ValueError("a path needs at least two points")


def _apply_half(hR, hc, coup, a1, a2):
    """H(psi) psi for the amplitude pair (a1, a2); the one copy of the model's formula.

    Takes hR = R/2, hc = c/2 and coup = (v/2) e^{i phi}, so a caller that steps
    one point many times halves them once.  Elementwise on arrays too.
    """
    # The imbalance m = |a2|^2 - |a1|^2.
    m = (a2.real * a2.real + a2.imag * a2.imag) - (a1.real * a1.real + a1.imag * a1.imag)
    diag = hR + hc * m
    return diag * a1 + coup * a2, coup.conjugate() * a1 - diag * a2


def _apply(R, c, v, phase, a1, a2):
    """H(psi) psi from the model's coefficients; phase is e^{i phi}."""
    return _apply_half(0.5 * R, 0.5 * c, 0.5 * v * phase, a1, a2)


def _residual(R, c, v, phase, a1, a2, energy):
    """Stationarity residual |H(psi) psi - E psi| of amplitude pairs; elementwise.

    phase is e^{i phi}.
    """
    h1, h2 = _apply(R, c, v, phase, a1, a2)
    d1, d2 = h1 - energy * a1, h2 - energy * a2
    return np.hypot(np.hypot(d1.real, d1.imag), np.hypot(d2.real, d2.imag))


def _check_overlap(overlap: float) -> None:
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap modulus must lie in [0, 1]")


def _has_states(R, v):
    """False only at the fully degenerate origin v = R = 0, which has no preferred states."""
    return (v > 0.0) | (R != 0.0)


def _quartic(R, c, v):
    """Quartic in t = tan(beta/2) whose real roots are the stationary states.

    The state psi(beta) = (sin beta/2, -cos beta/2 e^{-i phi}) has imbalance
    m = cos beta and is stationary when (R + c m) sin beta = v cos beta, that
    is when v t^4 + 2(R - c) t^3 + 2(R + c) t - v = 0.  At v = 0 the leading
    coefficient vanishes and t = inf, psi = (1, 0), is a root as well.

    Independent of phi: the coupling phase is a gauge choice for the spectrum.
    """
    return (v, 2.0 * (R - c), 0.0, 2.0 * (R + c), -v)


# solve_quartic_real_roots and reconstruct_states have no caller in the package.
# They stay public here because the benchmark traces them by these names, and
# a traced run fails with a KeyError on a name that is gone.
def solve_quartic_real_roots(
    coeffs: Sequence[float], tol: float = 1e-9
) -> list[tuple[float, int]]:
    """Real roots of a quartic with their multiplicities, ascending: one row of the batch.

    Companion eigenvalues within a relative 1e-5 of each other form one root,
    whose multiplicity is the group's size, polished by Newton on the
    (mu-1)-th derivative: in t when |t| <= 1, in 1/t otherwise.  A root is
    real when |Im| <= tol * (1 + |Re|).  L leading zero coefficients (v = 0
    in the t-quartic) are the root math.inf with multiplicity L; trailing
    ones are exact zeros.  Raises np.linalg.LinAlgError when the
    coefficients or the companion matrix are not finite.
    """
    cs = np.array([coeffs], dtype=float)
    if cs.shape != (1, 5):
        raise ValueError("expected five quartic coefficients")
    roots, mult, solvable = real_roots(cs, tol)
    if not solvable[0]:
        raise np.linalg.LinAlgError("the quartic's companion matrix is not finite")
    return [(t, m) for t, m in zip(roots[0].tolist(), mult[0].tolist()) if m]


def _amplitudes(t, at_zero, at_inf, rot):
    """amp1 and amp2 of the states at roots t, with rot = e^{-i phi}."""
    tsq = t * t
    a1 = np.sqrt(tsq / (1.0 + tsq))
    s = np.sqrt(1.0 / (1.0 + tsq))
    a2 = np.where(t < 0.0, s, -s) * rot
    amp1 = np.where(at_zero, 0.0, np.where(at_inf, 1.0, a1)).astype(complex)
    amp2 = np.where(at_zero, 1.0 + 0.0j, np.where(at_inf, 0.0j, a2))
    return amp1, amp2


def _states_at_roots(R, c, v, phi, t, tol) -> StationaryArrays:
    """The states at candidate roots t (n, 4) of the points (R, c, v, phi).

    Amplitudes (|t|, -sign(t) e^{-i phi}) / sqrt(1 + t^2), with amp2 = 1 at
    t = 0 and psi = (1, 0) at t = inf; energy E = -v (1 + t^2) / (4 t), whose
    limits are -(R + c)/2 at t = 0 and (R - c)/2 at t = inf.  A state is
    kept when its stationarity residual |H(psi) psi - E psi| is below tol.
    Energies equal to within 1e-12 (relative) are one degenerate level: they
    share one value and are ordered by imbalance.
    """
    R, c, v = (x[:, None] for x in (R, c, v))
    at_zero, at_inf = t == 0.0, np.isinf(t)
    # e^{-i phi} from cmath, so each amplitude rounds as Python's complex product
    # x * cmath.exp(-1j * phi) does.
    rot = np.array([cmath.exp(-1j * p) for p in phi.tolist()], dtype=complex)[:, None]
    # The np.where branches not taken divide by t = 0 or multiply inf by 0,
    # and states that overflow fail the residual test: neither warns.
    with np.errstate(all="ignore"):
        amp1, amp2 = _amplitudes(t, at_zero, at_inf, rot)
        energy = -v * (1.0 + t * t) / (4.0 * t)
        energy = np.where(at_zero, -0.5 * (R + c), np.where(at_inf, 0.5 * (R - c), energy))
        imbalance = (amp2.real * amp2.real + amp2.imag * amp2.imag) - (
            amp1.real * amp1.real + amp1.imag * amp1.imag
        )
        residual = _residual(R, c, v, rot.conjugate(), amp1, amp2, energy)
    energy = np.where(residual < tol, energy, np.nan)

    # Sort by energy (rejected states, NaN, go last), merge, then sort by
    # (energy, imbalance); both sorts are stable.
    rows = np.arange(len(t))[:, None]
    order = np.argsort(energy, axis=1, kind="stable")
    energy = energy[rows, order]
    for k in range(1, energy.shape[1]):
        low, high = energy[:, k - 1], energy[:, k]
        merge = high - low <= 1e-12 * np.maximum(np.abs(low), np.abs(high))
        energy[:, k] = np.where(merge, low, high)
    resort = np.lexsort((imbalance[rows, order], energy), axis=1)
    energy, order = energy[rows, resort], order[rows, resort]
    kept = ~np.isnan(energy)

    def pick(a):
        return np.where(kept, a[rows, order], np.nan)

    count = kept.sum(axis=1)
    failed = (v[:, 0] > 0.0) & ((count < 2) | (count > 4))
    return StationaryArrays(
        energy, pick(amp1), pick(amp2), pick(imbalance), pick(residual), count, failed
    )


def stationary_arrays(R, v, phi, c, tol: float = 1e-9) -> StationaryArrays:
    """All stationary states at many parameter points, as (n, 4) arrays.

    R, v, phi and c are scalars or 1-D arrays that broadcast to n points;
    phi is used as given (ModelParams stores it reduced to [0, 2*pi)).  Each
    point gets exactly what stationary_states gives it, whatever the other
    points of the call: between two and four states whenever v > 0, and at
    v = 0 the roots +t and -t as one state, reported once, since the
    relative phase is free there.  A point that fails marks only its own row.
    """
    R, v, phi, c = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (R, v, phi, c))
    )
    if R.ndim != 1:
        raise ValueError("expected scalars or 1-D arrays of parameter values")
    if not all(np.isfinite(x).all() for x in (R, v, phi, c)):
        raise ValueError("parameters must be finite")
    if (v < 0.0).any() or (c < 0.0).any():
        raise ValueError("v and c must be >= 0")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    # The quartic ignores phi: each distinct (R, c, v) is solved once.
    index: dict[tuple[float, float, float], int] = {}
    rows = [index.setdefault(key, len(index)) for key in zip(R.tolist(), c.tolist(), v.tolist())]
    distinct = np.array(list(index), dtype=float).reshape(-1, 3).T
    with np.errstate(over="ignore"):
        coeffs = np.stack(np.broadcast_arrays(*_quartic(*distinct)), axis=1)
    roots, _, solvable = real_roots(coeffs, tol)
    roots = roots[rows]
    roots[(v == 0.0)[:, None] & (roots < 0.0)] = np.nan
    roots[~_has_states(R, v)] = np.nan
    states = _states_at_roots(R, c, v, phi, roots, tol)
    states.failed[~solvable[rows]] = True
    return states


def _require_states(states: StationaryArrays, k: int, params: ModelParams) -> None:
    if not _has_states(params.R, params.v):
        raise InvalidStateError("need v > 0 or R != 0 to define stationary states")
    if states.failed[k]:
        raise ArithmeticError(
            f"no trustworthy stationary states at {params}: found {states.count[k]},"
            " expected 2..4 (or the quartic overflowed)"
        )


def reconstruct_states(
    params: ModelParams, root: float, tol: float = 1e-9
) -> list[Eigenstate]:
    """The state at a root t = tan(beta/2) of the t-quartic: a list of zero or one.

    Built as stationary_arrays builds it, and kept when its stationarity
    residual is below tol.
    """
    point = (np.array([x]) for x in (params.R, params.c, params.v, params.phi))
    states = _states_at_roots(*point, np.array([[root, np.nan, np.nan, np.nan]]), tol)
    return states.take([0] * states.count[0], [0] * states.count[0])


def stationary_states(params: ModelParams, tol: float = 1e-9) -> StationaryFamily:
    """All stationary states at one parameter point, one per real root of the t-quartic.

    Needs v > 0 or R != 0; the fully degenerate origin has no preferred states.
    Between two and four states exist whenever v > 0.  At v = 0 the relative
    phase is free, so the roots +t and -t are one state, reported once.
    Energies equal to within 1e-12 (relative) are one degenerate level: they
    share one value and are ordered by imbalance.  This is stationary_arrays
    for one point.
    """
    states = stationary_arrays(params.R, params.v, params.phi, params.c, tol)
    _require_states(states, 0, params)
    n = int(states.count[0])
    return StationaryFamily(params, tuple(states.take([0] * n, list(range(n)))))


def _overlap(a1: complex, a2: complex, b1: complex, b2: complex) -> complex:
    """Inner product <a|b> of two amplitude pairs."""
    return a1.conjugate() * b1 + a2.conjugate() * b2


def _point(path: ParamPath, k: int) -> ModelParams:
    """Sample k of a path as a record, for error messages."""
    return ModelParams(path.R[k], path.c[k], path.v[k], path.phi[k])


def phi_loop(params: ModelParams, n_points: int) -> ParamPath:
    """Closed path winding the coupling phase once, n_points segments.

    Returns n_points + 1 samples; the last reduces to the first modulo 2*pi.
    """
    if n_points < 2:
        raise ValueError("need at least two segments")
    n = n_points + 1
    # params.phi >= 0, so np.remainder, which rounds as Python's float %, lands
    # in [0, 2*pi): each phi is what ModelParams(phi=...) would store.
    phi = np.remainder(params.phi + TWO_PI * np.arange(n) / n_points, TWO_PI)
    return ParamPath(np.full(n, params.R), np.full(n, params.c), np.full(n, params.v), phi)


def continue_branch(
    path: ParamPath, seed: Eigenstate, tol: float = 1e-9
) -> list[Eigenstate]:
    """Track one stationary branch along a parameter path by maximum overlap.

    At each point the candidate maximizing |<previous|candidate>| is taken;
    if even the best overlap falls below 0.5 the branch has been lost (folded
    away or the path is sampled too coarsely) and BranchLostError is raised.
    The whole path is solved in one stationary_arrays call; the tracking
    then walks its candidates.
    """
    states = stationary_arrays(path.R, path.v, path.phi, path.c, tol)
    bad = (states.failed | ~_has_states(path.R, path.v)).tolist()

    a1, a2 = seed.amp1, seed.amp2
    chosen = []
    for k, n in enumerate(states.count.tolist()):
        if bad[k]:
            _require_states(states, k, _point(path, k))
        cands = list(zip(states.amp1[k, :n].tolist(), states.amp2[k, :n].tolist()))
        best, best_ov = None, -1.0
        for j, (b1, b2) in enumerate(cands):
            ov = abs(_overlap(a1, a2, b1, b2))
            if ov > best_ov:
                best, best_ov = j, ov
        if best is None or best_ov < 0.5:
            raise BranchLostError(
                f"best overlap {best_ov:.3f} at {_point(path, k)}; refine the path or stop earlier"
            )
        chosen.append(best)
        a1, a2 = cands[best]
    return states.take(np.arange(len(path.R)), chosen)
