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
returns their states as arrays.  phi is a gauge: U = diag(1, e^{-i phi}) takes
the states at phi = 0 to those at phi and leaves their energy, imbalance and
residual as they are.  So each distinct (R, c, v) is rooted, and its states
built, tested and sorted, once, at phi = 0, and phi is applied once, as the
turn of amp2 by e^{-i phi}.  All the distinct points go through one batch root
finder for this one family, _batch.real_roots, with only +, -, *, / and sqrt.
It also returns the count in closed form, _expected_count: four states inside
the astroid |R|^(2/3) + v^(2/3) = c^(2/3), two outside, and a point whose count
differs is marked failed.  stationary_states is the solver for one point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._batch import _expected_count, real_roots
from .errors import BranchLostError, InvalidStateError

TWO_PI = 2.0 * math.pi


def _check_finite(**values: float) -> None:
    """Raise ValueError naming the first of the values that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _reduce_phase(phi):
    """Angles reduced to [0, 2*pi) elementwise, as np.remainder and Python's float %
    round alike; 2*pi, which a tiny negative angle rounds to, is stored as 0."""
    phi = np.remainder(phi, TWO_PI)
    return np.where(phi == TWO_PI, 0.0, phi)


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
        object.__setattr__(self, "phi", float(_reduce_phase(self.phi)))


@dataclass(frozen=True)
class Eigenstate:
    """One stationary state: amplitudes, energy, imbalance, and how stationary it is.

    The gauge is fixed: amp1 is real and >= 0, and if amp1 vanishes then amp2
    is real and >= 0.  imbalance is computed from the amplitudes at phi = 0,
    so it equals |amp2|^2 - |amp1|^2 to rounding at every phi.
    """

    amp1: complex
    amp2: complex
    energy: float
    imbalance: float
    residual: float


@dataclass(frozen=True)
class StationaryFamily:
    """All stationary states at one parameter point, sorted by (energy, imbalance)."""

    params: ModelParams
    states: tuple[Eigenstate, ...]

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class _StateColumns:
    """Eigenstate's five fields, in its order, as array columns."""

    amp1: np.ndarray
    amp2: np.ndarray
    energy: np.ndarray
    imbalance: np.ndarray
    residual: np.ndarray

    def _columns(self):
        return (self.amp1, self.amp2, self.energy, self.imbalance, self.residual)


@dataclass(frozen=True, eq=False)
class Branch(_StateColumns, Sequence):
    """One tracked stationary state per path point, stored as columns.

    amp1, amp2, energy, imbalance and residual are 1-D arrays with one entry
    per point.  min_overlap is the smallest overlap modulus |<previous|chosen>|
    the walk accepted, the step from the seed included.  Indexing and
    iteration give Eigenstate records; a slice gives a list of them.
    """

    min_overlap: float

    def __len__(self) -> int:
        return len(self.energy)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self)[k]
        return Eigenstate(*(f[k].item() for f in self._columns()))

    def __iter__(self):
        return map(Eigenstate, *(f.tolist() for f in self._columns()))


@dataclass(frozen=True, eq=False)
class StationaryArrays(_StateColumns):
    """Stationary states at n parameter points, one row per point.

    amp1, amp2, energy, imbalance and residual, Eigenstate's fields in its
    order, have shape (n, 4): row k holds the count[k] states of point k,
    sorted by (energy, imbalance) as in a StationaryFamily, and NaN after
    them.  failed[k] marks a point whose states cannot be trusted: v > 0 with
    a state count other than the astroid's (_expected_count; in its band any
    of 2..4), or a quartic that overflows.  The fully degenerate origin
    v = R = 0 has count 0 and is not failed.  Every other point that is not
    failed has at least two states: where v > 0 the astroid's 2 or 4 (2 to 4
    in its band), and at v = 0 the polarized pair m = -+1, with the
    free-phase state m = -R/c as a third where |R| < c.
    """

    count: np.ndarray
    failed: np.ndarray

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


# The one stationarity tolerance: a state's residual |H(psi) psi - E psi| is below
# TOL max(1, |R|, c, v), the scale of its rounding.
TOL = 1e-9


def _is_stationary(residual, R, c, v):
    """The one stationarity test, elementwise: residual < TOL max(1, |R|, c, v)."""
    return residual < TOL * np.maximum(np.maximum(1.0, np.abs(R)), np.maximum(c, v))


def _check_overlap(overlap: float) -> None:
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap modulus must lie in [0, 1]")


def _check_points(R, c, v, phi=0.0) -> None:
    """Raise ValueError unless the parameter arrays are finite with c, v >= 0."""
    if not all(np.isfinite(x).all() for x in (R, c, v, phi)):
        raise ValueError("parameters must be finite")
    if (v < 0.0).any() or (c < 0.0).any():
        raise ValueError("v and c must be >= 0")


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
    state, only t.  One row of _batch.real_roots; raises ValueError where
    stationary_arrays does, and ArithmeticError where the quartic overflows.
    """
    if len(point) != 3:
        raise ValueError("expected one point (R, c, v)")
    R, c, v = (np.array([x], dtype=float) for x in point)
    _check_points(R, c, v)
    roots, mult, solvable, _, _ = real_roots(R, c, v)
    if not solvable[0]:
        raise ArithmeticError(f"the t-quartic at {tuple(point)} overflows")
    return sorted((t, m) for t, m in zip(roots[0].tolist(), mult[0].tolist()) if m)


def _amplitudes(t):
    """amp1 and amp2 of the states at roots t at phi = 0, real; amp2 = 1 at t = 0.

    The moduli |t| / sqrt(1 + t^2) and 1 / sqrt(1 + t^2) are built from
    w = min(|t|, 1/|t|) <= 1, whose square neither over- nor underflows, as
    w * big, on amp1 where |t| <= 1, and big = sqrt(1 / (1 + w^2)).  Only +,
    -, *, / and sqrt, which round alike on every CPU path: numpy's hypot does not.
    """
    w = np.minimum(np.abs(t), np.abs(1.0 / t))
    big, inner = np.sqrt(1.0 / (1.0 + w * w)), np.abs(t) <= 1.0
    a1, s = np.where(inner, w * big, big), np.where(inner, big, w * big)
    return a1, np.where(t == 0.0, 1.0, np.where(t < 0.0, s, -s))


def _states_at_roots(R, c, v, t, at, phi) -> StationaryArrays:
    """The states of the points (R[at], c[at], v[at]) at phases phi, from
    candidate roots t (k, 4), in any order, of the k distinct points (R, c, v).

    Each distinct point's states are built, tested, merged and sorted once,
    at phi = 0.  Amplitudes (|t|, -sign(t)) / sqrt(1 + t^2), built by
    _amplitudes from min(|t|, 1/|t|), with amp2 = 1 at t = 0 and psi = (1, 0)
    at t = inf; energy E = -(v/4)(t + 1/t), with no square of t to over- or
    underflow, whose v = 0 limits are -(R/2 + c/2) at t = 0 and R/2 - c/2 at
    t = inf: the diagonal of the halved H that _residual tests, finite for
    every finite R and c.  A state is kept when its residual
    |H(psi) psi - E psi| passes _is_stationary.
    Energies equal to within 1e-12 (relative) are one degenerate level: they
    share one value and are ordered by imbalance, then by t.  phi is a gauge, U =
    diag(1, e^{-i phi}), which keeps energy, imbalance and residual: it
    enters once, as the turn of each output row's amp2 by e^{-i phi} where
    amp1 > 0; amp1 = 0 only at t = 0, where the gauge keeps amp2 = 1.  No
    point is marked failed here: that takes the astroid's count, which
    stationary_arrays compares.
    """
    R, c, v = (x[:, None] for x in (R, c, v))
    # The np.where branches not taken divide by t = 0 or multiply inf by 0,
    # and states that overflow fail the residual test: neither warns.
    with np.errstate(all="ignore"):
        amp1, amp2 = _amplitudes(t)
        energy = -(v / 4.0) * (t + 1.0 / t)
        energy = np.where(np.isinf(t), 0.5 * R - 0.5 * c, energy)
        energy = np.where(t == 0.0, -(0.5 * R + 0.5 * c), energy)
        imbalance = amp2 * amp2 - amp1 * amp1
        residual = _residual(R, c, v, 1.0, amp1, amp2, energy)
    energy = np.where(_is_stationary(residual, R, c, v), energy, np.nan)

    # Sort by (energy, t) (rejected states, NaN, go last), merge, then sort
    # by (energy, imbalance), stable: the roots' order in t breaks every tie.
    rows = np.arange(len(t))[:, None]
    order = np.lexsort((t, energy), axis=1)
    energy = energy[rows, order]
    # Energies of opposite sign near -+9e307 differ by more than the largest
    # float: the difference is inf, which rightly does not merge them.
    with np.errstate(over="ignore"):
        for k in range(1, energy.shape[1]):
            low, high = energy[:, k - 1], energy[:, k]
            merge = high - low <= 1e-12 * np.maximum(np.abs(low), np.abs(high))
            energy[:, k] = np.where(merge, low, high)
    resort = np.lexsort((imbalance[rows, order], energy), axis=1)
    # Each column is gathered into the output rows with one index.
    rows, resort = at[:, None], resort[at]
    energy, order = energy[rows, resort], order[rows, resort]
    kept = ~np.isnan(energy)

    def pick(a):
        return np.where(kept, a[rows, order], np.nan)

    amp1, amp2 = pick(amp1), pick(amp2)
    # amp1 > 0 leaves out amp1 = 0 and the NaN after the states, which stay nan + 0j.
    amp2 = np.where(amp1 > 0.0, amp2 * _phase_factor(phi)[:, None].conjugate(), amp2)
    columns = amp1.astype(complex), amp2, energy, pick(imbalance), pick(residual)
    return StationaryArrays(*columns, kept.sum(axis=1), np.zeros(len(at), dtype=bool))


def stationary_arrays(R, v, phi, c) -> StationaryArrays:
    """All stationary states at many parameter points, as (n, 4) arrays.

    R, v, phi and c are scalars or 1-D arrays that broadcast to n >= 0 points;
    phi is used as given (ModelParams stores it reduced to [0, 2*pi)).  Each
    point gets exactly what stationary_states gives it, whatever the other
    points of the call: the astroid's count of states whenever v > 0, and at
    v = 0 the roots +t and -t as one state, reported once, since the
    relative phase is free there.  A point that fails marks only its own row.
    Each distinct (R, c, v) is rooted and its states built once, at phi = 0;
    phi, a gauge, only turns amp2 of each point's own row (_states_at_roots).
    """
    R, v, phi, c = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (R, v, phi, c))
    )
    if R.ndim != 1:
        raise ValueError("expected scalars or 1-D arrays of parameter values")
    _check_points(R, c, v, phi)

    # Each distinct (R, c, v) is solved once, found by lexsort: np.unique(axis=0) is 4-8x slower.
    order = np.lexsort((v, c, R))
    key = np.stack([R, c, v])[:, order]
    first = np.r_[True, (key[:, 1:] != key[:, :-1]).any(axis=0)][: len(R)]
    points = key[:, first]
    roots, _, solvable, expected, band = real_roots(*points)
    roots[~_has_states(points[0], points[2])] = np.nan
    at = (np.cumsum(first) - 1)[np.argsort(order)]
    states = _states_at_roots(*points, roots, at, phi)
    count, band = states.count, band[at]
    wrong = np.where(band, (count < 2) | (count > 4), count != expected[at])
    states.failed[:] = ((v > 0.0) & wrong) | ~solvable[at]
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
    point = (np.array([x]) for x in (params.R, params.c, params.v))
    roots = np.array([[root, np.nan, np.nan, np.nan]])
    states = _states_at_roots(*point, roots, np.array([0]), np.array([params.phi]))
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


def _overlap_parts(x1, y1, x2, y2, u1, w1, u2, w2):
    """Real and imaginary parts of the inner product <a|b> of amplitude pairs,
    from their real parts: a1 = x1 + i y1, a2 = x2 + i y2, b1 = u1 + i w1 and
    b2 = u2 + i w2, as _apply_half takes them.

    Works on Python floats and elementwise on float arrays that broadcast,
    rounded as Python rounds a1.conjugate() * b1 + a2.conjugate() * b2; numpy's
    complex product rounds differently.  Take the modulus with np.hypot or
    abs(complex(re, im)), which round as Python's complex abs; math.hypot does not.
    """
    re = (x1 * u1 + y1 * w1) + (x2 * u2 + y2 * w2)
    im = (x1 * w1 - y1 * u1) + (x2 * w2 - y2 * u2)
    return re, im


def _overlap(a1, a2, b1, b2):
    """_overlap_parts of complex amplitude pairs (a1, a2) and (b1, b2), numbers or arrays."""
    return _overlap_parts(a1.real, a1.imag, a2.real, a2.imag, b1.real, b1.imag, b2.real, b2.imag)


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
    # Each phi is what ModelParams(phi=...) would store.
    phi = _reduce_phase(params.phi + TWO_PI * np.arange(n) / n_points)
    return ParamPath(np.full(n, params.R), np.full(n, params.c), np.full(n, params.v), phi)


def continue_branch(path: ParamPath, seed: Eigenstate) -> Branch:
    """Track one stationary branch along a parameter path by maximum overlap.

    The seed must be finite (a NaN seed raises too) and of norm 1 within
    1e-6, as in berry_phase_closed_form, or InvalidStateError is raised.  At each
    point the candidate maximizing |<previous|candidate>| is taken, the first
    one on a tie; if even the best overlap falls below 0.5 the branch has been
    lost (folded away or the path is sampled too coarsely) and BranchLostError
    is raised.  A point without trustworthy states raises as stationary_states
    does; of the two, the error at the earlier point is raised.

    The whole path is solved in one stationary_arrays call.  The candidates'
    real and imaginary parts are laid out points last, as contiguous (4, n)
    float arrays, so that each product of one (4, 4, n) table runs in loops
    over the points.  table[i, j, k] is the overlap modulus of candidate i at
    point k-1 (the seed at k = 0) with candidate j at point k, and the walk
    is one lookup per point in its argmax over j.
    """
    a1, a2 = complex(seed.amp1), complex(seed.amp2)
    norm = math.hypot(a1.real, a1.imag, a2.real, a2.imag)
    if not abs(norm - 1.0) <= 1e-6:
        raise InvalidStateError(f"seed state has norm {norm!r}, not 1 within 1e-6")
    states = stationary_arrays(path.R, path.v, path.phi, path.c)
    n = len(path.R)
    # Not _overlap: on strided complex views it made the loop benchmark's wall_s 9 % slower.
    # Float parts x1, y1, x2 and y2, points last and contiguous: after[p][j, k]
    # is part p of candidate j at point k, before[p][i, k] that of candidate i
    # at point k-1, with the seed's part in every row at k = 0.
    after = [
        np.ascontiguousarray(a.T)
        for a in (states.amp1.real, states.amp1.imag, states.amp2.real, states.amp2.imag)
    ]
    before = [
        np.hstack([np.full((4, 1), s), p[:, :-1]])
        for s, p in zip((a1.real, a1.imag, a2.real, a2.imag), after)
    ]
    # One row i at a time: at 1,025 points a (4, 4, n) temporary per product
    # is over glibc malloc's default 128 KiB mmap threshold, so its pages
    # fault in afresh, where the (4, n) temporaries of a row reuse the heap.
    table = np.empty((4, 4, n))
    for i, row in enumerate(table):
        np.hypot(*_overlap_parts(*(p[i] for p in before), *after), out=row)
    # A missing candidate (NaN) loses to every real one, as no overlap is below 0.
    np.fmax(table, -1.0, out=table)
    # best[j * n + k]: the best candidate at point k after candidate j at point k-1.
    best = table.argmax(axis=1).ravel().tolist()
    chosen, j = [], 0
    for k in range(n):
        j = best[j * n + k]
        chosen.append(j)
    rows, chosen = np.arange(n), np.array(chosen)
    walked = table[np.r_[0, chosen[:-1]], chosen, rows]

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
