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
(R, c, v) is solved once, and all of them go through one batch root finder
for this one family, _batch.real_roots.  Its root count has a closed form,
_expected_count: four states inside the astroid |R|^(2/3) + v^(2/3) = c^(2/3)
and two outside it, so a point whose count differs is marked failed.
solve_quartic_real_roots is that root finder for one point, and
stationary_states the solver for one point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._batch import TOL, _expected_count, real_roots
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
class Branch(Sequence):
    """One tracked stationary state per path point, stored as columns.

    amp1, amp2, energy, imbalance and residual are 1-D arrays with one entry
    per point.  min_overlap is the smallest overlap modulus |<previous|chosen>|
    the walk accepted, the step from the seed included.  Indexing and
    iteration give Eigenstate records; a slice gives a list of them.
    """

    amp1: np.ndarray
    amp2: np.ndarray
    energy: np.ndarray
    imbalance: np.ndarray
    residual: np.ndarray
    min_overlap: float

    def _columns(self):
        return (self.amp1, self.amp2, self.energy, self.imbalance, self.residual)

    def __len__(self) -> int:
        return len(self.energy)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self)[k]
        return Eigenstate(*(f[k].item() for f in self._columns()))

    def __iter__(self):
        return map(Eigenstate, *(f.tolist() for f in self._columns()))


@dataclass(frozen=True, eq=False)
class StationaryArrays:
    """Stationary states at n parameter points, one row per point.

    energy, amp1, amp2, imbalance and residual have shape (n, 4): row k holds
    the count[k] states of point k, sorted by (energy, imbalance) as in a
    StationaryFamily, and NaN after them.  failed[k] marks a point whose
    states cannot be trusted: v > 0 with a state count other than the
    astroid's (_expected_count; in its band any of 2..4), or a quartic that
    overflows.  The fully degenerate origin v = R = 0 has count 0 and is
    not failed.
    """

    energy: np.ndarray
    amp1: np.ndarray
    amp2: np.ndarray
    imbalance: np.ndarray
    residual: np.ndarray
    count: np.ndarray
    failed: np.ndarray

    def _columns(self):
        return (self.amp1, self.amp2, self.energy, self.imbalance, self.residual)

    def take(self, k, j) -> list[Eigenstate]:
        """The states in rows k, columns j (index arrays of one length), as records."""
        return [Eigenstate(*state) for state in zip(*(f[k, j].tolist() for f in self._columns()))]


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


def _apply_half(hR, hc, gr, gi, x1, y1, x2, y2):
    """H(psi) psi on real parts; the one copy of the model's formula.

    Takes hR = R/2, hc = c/2, the coupling (v/2) e^{i phi} = gr + i gi and the
    amplitudes a1 = x1 + i y1, a2 = x2 + i y2, so a caller that steps one
    point many times halves them once.  Returns (Re, Im) of
    diag a1 + coup a2, then of coup* a1 - diag a2.  Each product and sum is
    taken in the order of Python's complex arithmetic, which multiplies by a
    real x as by (x, 0.0): hence the 0.0 terms, which set the signs of zeros
    and turn an infinite part into nan as the complex product does.  So the
    four floats are bit for bit the formula's in Python complex numbers,
    signed zeros included, though a nan may differ in sign (numpy's complex
    product may fuse a multiply and an add, and round otherwise).
    Elementwise on arrays too.
    """
    # The imbalance m = |a2|^2 - |a1|^2.
    m = (x2 * x2 + y2 * y2) - (x1 * x1 + y1 * y1)
    diag = hR + hc * m
    return (
        (diag * x1 - 0.0 * y1) + (gr * x2 - gi * y2),
        (diag * y1 + 0.0 * x1) + (gr * y2 + gi * x2),
        (gr * x1 + gi * y1) - (diag * x2 - 0.0 * y2),
        (gr * y1 - gi * x1) - (diag * y2 + 0.0 * x2),
    )


def _phase_factor(phi):
    """e^{i phi} of an array of angles, bit for bit as cmath.exp(1j * phi) rounds it."""
    return np.cos(phi) + 1j * np.sin(phi)


def _apply(R, c, v, phase, a1, a2):
    """H(psi) psi of one amplitude pair as two complex numbers; phase is e^{i phi}."""
    coup = 0.5 * v * phase
    f = _apply_half(0.5 * R, 0.5 * c, coup.real, coup.imag, a1.real, a1.imag, a2.real, a2.imag)
    return complex(f[0], f[1]), complex(f[2], f[3])


def _residual(R, c, v, phase, a1, a2, energy):
    """Stationarity residual |H(psi) psi - E psi| of amplitude pairs; elementwise.

    phase is e^{i phi}.  Bit for bit the residual of the complex form, with
    E psi as a real times a complex: its 0.0 * y terms, left out here, only
    set signs of zeros, which hypot ignores, or make nan of an infinite part,
    which the kernel's own 0.0 terms already do.
    """
    coup = 0.5 * v * phase
    x1, y1, x2, y2 = a1.real, a1.imag, a2.real, a2.imag
    f1r, f1i, f2r, f2i = _apply_half(0.5 * R, 0.5 * c, coup.real, coup.imag, x1, y1, x2, y2)
    d1 = np.hypot(f1r - energy * x1, f1i - energy * y1)
    return np.hypot(d1, np.hypot(f2r - energy * x2, f2i - energy * y2))


def _is_stationary(residual, R, c, v):
    """The one stationarity test, elementwise: residual < TOL max(1, |R|, c, v)."""
    return residual < TOL * np.maximum(np.maximum(1.0, np.abs(R)), np.maximum(c, v))


def _check_overlap(overlap: float) -> None:
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap modulus must lie in [0, 1]")


def _has_states(R, v):
    """False only at the fully degenerate origin v = R = 0, which has no preferred states."""
    return (v > 0.0) | (R != 0.0)


# solve_quartic_real_roots and reconstruct_states have no caller in the package.
# They stay public here because the benchmark traces them by these names, and
# a traced run fails with a KeyError on a name that is gone.
def solve_quartic_real_roots(point: Sequence[float]) -> list[tuple[float, int]]:
    """Real roots of the t-quartic at one point (R, c, v), with multiplicities, ascending.

    The quartic v t^4 + 2(R - c) t^3 + 2(R + c) t - v has a real root
    t = tan(beta/2) for each stationary state psi(beta) = (sin beta/2,
    -cos beta/2 e^{-i phi}), whose imbalance m = cos beta makes it stationary,
    (R + c m) sin beta = v cos beta.  At v = 0 its roots are 0, the root
    math.inf of the vanished leading coefficient, and of the pair -t, t, one
    state, only t.  One row of _batch.real_roots; raises ArithmeticError where
    the quartic overflows.
    """
    if len(point) != 3:
        raise ValueError("expected one point (R, c, v)")
    roots, mult, solvable = real_roots(*(np.array([x], dtype=float) for x in point))
    if not solvable[0]:
        raise ArithmeticError(f"the t-quartic at {tuple(point)} overflows")
    return [(t, m) for t, m in zip(roots[0].tolist(), mult[0].tolist()) if m]


def _amplitudes(t, tsq, u, at_zero, at_inf, rot):
    """amp1 and amp2 of the states at roots t, with tsq = t^2, u = 1/t and rot = e^{-i phi}.

    Where t is finite but t^2 overflows, the moduli are built from u instead,
    as 1/sqrt(1 + u^2) and |u|/sqrt(1 + u^2).
    """
    far = np.isinf(tsq) & ~at_inf
    root = np.sqrt(1.0 + u * u)
    a1 = np.where(far, 1.0 / root, np.sqrt(tsq / (1.0 + tsq)))
    s = np.where(far, np.abs(u) / root, np.sqrt(1.0 / (1.0 + tsq)))
    a2 = np.where(t < 0.0, s, -s) * rot
    amp1 = np.where(at_zero, 0.0, np.where(at_inf, 1.0, a1)).astype(complex)
    amp2 = np.where(at_zero, 1.0 + 0.0j, np.where(at_inf, 0.0j, a2))
    return amp1, amp2


def _states_at_roots(R, c, v, phi, t) -> StationaryArrays:
    """The states at candidate roots t (n, 4) of the points (R, c, v, phi).

    Amplitudes (|t|, -sign(t) e^{-i phi}) / sqrt(1 + t^2), with amp2 = 1 at
    t = 0 and psi = (1, 0) at t = inf; energy E = -v (1 + t^2) / (4 t), whose
    limits are -(R + c)/2 at t = 0 and (R - c)/2 at t = inf.  The far root of
    a tiny v or a huge |R| is taken through u = 1/t: the amplitudes where t^2
    overflows, and E = -(v/4)(t + u) where v (1 + t^2) does.  A state is kept
    when its residual |H(psi) psi - E psi| passes _is_stationary.
    Energies equal to within 1e-12 (relative) are one degenerate level: they
    share one value and are ordered by imbalance.  No point is marked failed
    here: that takes the astroid's count, which stationary_arrays compares.
    """
    R, c, v = (x[:, None] for x in (R, c, v))
    at_zero, at_inf = t == 0.0, np.isinf(t)
    phase = _phase_factor(phi)[:, None]
    # The np.where branches not taken divide by t = 0 or multiply inf by 0,
    # and states that overflow fail the residual test: neither warns.
    with np.errstate(all="ignore"):
        tsq, u = t * t, 1.0 / t
        amp1, amp2 = _amplitudes(t, tsq, u, at_zero, at_inf, phase.conjugate())
        lift = -v * (1.0 + tsq)
        energy = np.where(np.isinf(lift) & ~at_inf, -(v / 4.0) * (t + u), lift / (4.0 * t))
        energy = np.where(at_zero, -0.5 * (R + c), np.where(at_inf, 0.5 * (R - c), energy))
        imbalance = (amp2.real * amp2.real + amp2.imag * amp2.imag) - (
            amp1.real * amp1.real + amp1.imag * amp1.imag
        )
        residual = _residual(R, c, v, phase, amp1, amp2, energy)
    energy = np.where(_is_stationary(residual, R, c, v), energy, np.nan)

    # Sort by energy (rejected states, NaN, go last), merge, then sort by
    # (energy, imbalance); both sorts are stable.
    rows = np.arange(len(t))[:, None]
    order = np.argsort(energy, axis=1, kind="stable")
    energy = energy[rows, order]
    # Energies of opposite sign near -+9e307 differ by more than the largest
    # float: the difference is inf, which rightly does not merge them.
    with np.errstate(over="ignore"):
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
    failed = np.zeros(len(t), dtype=bool)
    return StationaryArrays(
        energy, pick(amp1), pick(amp2), pick(imbalance), pick(residual), count, failed
    )


def stationary_arrays(R, v, phi, c) -> StationaryArrays:
    """All stationary states at many parameter points, as (n, 4) arrays.

    R, v, phi and c are scalars or 1-D arrays that broadcast to n points;
    phi is used as given (ModelParams stores it reduced to [0, 2*pi)).  Each
    point gets exactly what stationary_states gives it, whatever the other
    points of the call: the astroid's count of states whenever v > 0, and at
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

    # Each distinct (R, c, v) is solved once, found by lexsort: np.unique(axis=0) is 4-8x slower.
    order = np.lexsort((v, c, R))
    key = np.stack([R, c, v])[:, order]
    first = np.r_[True, (key[:, 1:] != key[:, :-1]).any(axis=0)]
    roots, _, solvable = real_roots(*key[:, first])
    expected, band = _expected_count(*key[:, first])
    rows = (np.cumsum(first) - 1)[np.argsort(order)]
    roots = roots[rows]
    roots[~_has_states(R, v)] = np.nan
    states = _states_at_roots(R, c, v, phi, roots)
    count, band = states.count, band[rows]
    wrong = np.where(band, (count < 2) | (count > 4), count != expected[rows])
    states.failed[:] = ((v > 0.0) & wrong) | ~solvable[rows]
    return states


def _require_states(states: StationaryArrays, k: int, params: ModelParams) -> None:
    if not _has_states(params.R, params.v):
        raise InvalidStateError("need v > 0 or R != 0 to define stationary states")
    if states.failed[k]:
        expected, band = _expected_count(params.R, params.c, params.v)
        raise ArithmeticError(
            f"no trustworthy stationary states at {params}: found {states.count[k]},"
            f" expected {'2..4' if band else expected} (or the quartic overflowed)"
        )


def reconstruct_states(params: ModelParams, root: float) -> list[Eigenstate]:
    """The state at a root t = tan(beta/2) of the t-quartic: a list of zero or one.

    Built as stationary_arrays builds it, and kept when its stationarity
    residual passes the same scaled test.
    """
    point = (np.array([x]) for x in (params.R, params.c, params.v, params.phi))
    states = _states_at_roots(*point, np.array([[root, np.nan, np.nan, np.nan]]))
    return states.take([0] * states.count[0], [0] * states.count[0])


def stationary_states(params: ModelParams) -> StationaryFamily:
    """All stationary states at one parameter point, one per real root of the t-quartic.

    Needs v > 0 or R != 0; the fully degenerate origin has no preferred states.
    Whenever v > 0 there are four states inside the astroid
    |R|^(2/3) + v^(2/3) = c^(2/3) and two outside it.  At v = 0 the relative
    phase is free, so the roots +t and -t are one state, reported once.
    Energies equal to within 1e-12 (relative) are one degenerate level: they
    share one value and are ordered by imbalance.  This is stationary_arrays
    for one point.
    """
    states = stationary_arrays(params.R, params.v, params.phi, params.c)
    _require_states(states, 0, params)
    n = int(states.count[0])
    return StationaryFamily(params, tuple(states.take([0] * n, list(range(n)))))


def _overlap_parts(a1, a2, b1, b2):
    """Real and imaginary parts of the inner product <a|b> of amplitude pairs.

    Works on Python complex numbers and elementwise on complex arrays alike,
    rounded as Python rounds a1.conjugate() * b1 + a2.conjugate() * b2; numpy's
    complex product rounds differently.  Take the modulus with np.hypot or
    abs(complex(re, im)), which round as Python's complex abs; math.hypot does not.
    """
    re = (a1.real * b1.real + a1.imag * b1.imag) + (a2.real * b2.real + a2.imag * b2.imag)
    im = (a1.real * b1.imag - a1.imag * b1.real) + (a2.real * b2.imag - a2.imag * b2.real)
    return re, im


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


def continue_branch(path: ParamPath, seed: Eigenstate) -> Branch:
    """Track one stationary branch along a parameter path by maximum overlap.

    At each point the candidate maximizing |<previous|candidate>| is taken,
    the first one on a tie; if even the best overlap falls below 0.5 the
    branch has been lost (folded away or the path is sampled too coarsely)
    and BranchLostError is raised.  A point without trustworthy states
    raises as stationary_states does; of the two, the error at the earlier
    point is raised.

    The whole path is solved in one stationary_arrays call.  One (n, 4, 4)
    table then holds the overlap moduli of every candidate at point k-1 (the
    seed at k = 0) with every candidate at point k, and the walk is one
    lookup per point in its argmax.
    """
    states = stationary_arrays(path.R, path.v, path.phi, path.c)
    n = len(path.R)
    before1 = np.concatenate([np.full((1, 4), seed.amp1, dtype=complex), states.amp1[:-1]])
    before2 = np.concatenate([np.full((1, 4), seed.amp2, dtype=complex), states.amp2[:-1]])
    re, im = _overlap_parts(
        before1[:, :, None], before2[:, :, None], states.amp1[:, None, :], states.amp2[:, None, :]
    )
    table = np.hypot(re, im)
    # A missing candidate (NaN) loses to every real one, as no overlap is below 0.
    table[np.isnan(table)] = -1.0
    best = table.argmax(axis=2).tolist()
    chosen, j = [], 0
    for row in best:
        j = row[j]
        chosen.append(j)
    rows, chosen = np.arange(n), np.array(chosen)
    walked = table[rows, np.r_[0, chosen[:-1]], chosen]

    bad = states.failed | ~_has_states(path.R, path.v)
    stops = np.flatnonzero(bad | (walked < 0.5))
    if stops.size:
        k = int(stops[0])
        if bad[k]:
            _require_states(states, k, _point(path, k))
        raise BranchLostError(
            f"best overlap {walked[k]:.3f} at {_point(path, k)}; refine the path or stop earlier"
        )
    return Branch(*(f[rows, chosen] for f in states._columns()), float(walked.min()))
