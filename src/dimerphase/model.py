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
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BranchLostError, InvalidStateError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelParams:
    """Dimer parameters.

    R    level bias (detuning between the two modes)
    c    nonlinearity strength, >= 0
    v    coupling magnitude, >= 0
    phi  coupling phase, stored reduced to [0, 2*pi)
    """

    R: float
    c: float
    v: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "R", float(self.R))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "v", float(self.v))
        if self.v < 0.0:
            raise ValueError("coupling magnitude v must be >= 0 (move signs into phi)")
        if self.c < 0.0:
            raise ValueError("nonlinearity c must be >= 0")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)


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


@dataclass(frozen=True)
class ParamPath:
    """Ordered parameter samples along a curve.  closed=True requires first == last."""

    points: tuple[ModelParams, ...]
    closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 2:
            raise ValueError("a path needs at least two points")
        if self.closed:
            a, b = self.points[0], self.points[-1]
            gaps = (abs(a.R - b.R), abs(a.c - b.c), abs(a.v - b.v), abs(a.phi - b.phi))
            if max(gaps) > 1e-12:
                raise ValueError("closed path must end where it starts (within 1e-12)")


def _imbalance(a1: complex, a2: complex) -> float:
    return (a2.real * a2.real + a2.imag * a2.imag) - (a1.real * a1.real + a1.imag * a1.imag)


def _apply(params: ModelParams, a1: complex, a2: complex) -> tuple[complex, complex]:
    """H(psi) psi for the amplitude pair (a1, a2); the one copy of the model's formula."""
    diag = 0.5 * params.R + 0.5 * params.c * _imbalance(a1, a2)
    coup = 0.5 * params.v * cmath.exp(1j * params.phi)
    return diag * a1 + coup * a2, coup.conjugate() * a1 - diag * a2


def _check_overlap(overlap: float) -> None:
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap modulus must lie in [0, 1]")


def _has_states(params: ModelParams) -> bool:
    """False only at the fully degenerate origin v = R = 0, which has no preferred states."""
    return params.v > 0.0 or params.R != 0.0


def hamiltonian_apply(params: ModelParams, state: Sequence[complex]) -> np.ndarray:
    """Apply the state-dependent Hamiltonian to a normalized amplitude pair.

    Raises InvalidStateError unless the pair is normalized to 1e-9.
    """
    a1, a2 = complex(state[0]), complex(state[1])
    norm2 = abs(a1) ** 2 + abs(a2) ** 2
    if abs(norm2 - 1.0) > 1e-9:
        raise InvalidStateError(f"amplitude pair norm^2 = {norm2!r}, expected 1")
    return np.array(_apply(params, a1, a2))


def quartic_coefficients(params: ModelParams) -> tuple[float, float, float, float, float]:
    """Quartic in t = tan(beta/2) whose real roots are the stationary states.

    The state psi(beta) = (sin beta/2, -cos beta/2 e^{-i phi}) has imbalance
    m = cos beta and is stationary when (R + c m) sin beta = v cos beta, that
    is when v t^4 + 2(R - c) t^3 + 2(R + c) t - v = 0.  At v = 0 the leading
    coefficient vanishes and t = inf, psi = (1, 0), is a root as well.

    Independent of phi: the coupling phase is a gauge choice for the spectrum.
    """
    R, c, v = params.R, params.c, params.v
    return (v, 2.0 * (R - c), 0.0, 2.0 * (R + c), -v)


def _derivative(coeffs: list) -> list:
    top = len(coeffs) - 1
    return [ck * (top - k) for k, ck in enumerate(coeffs[:-1])]


def _polish(coeffs: list, z: complex) -> complex:
    """Polish z as a root of the polynomial coeffs, highest power first."""
    slope_coeffs = _derivative(coeffs)
    last = math.inf
    for _ in range(60):
        value, slope = 0.0, 0.0
        for ck in coeffs:
            value = value * z + ck
        for ck in slope_coeffs:
            slope = slope * z + ck
        if slope == 0:
            break
        step = value / slope
        # Steps that stop shrinking are rounding noise: z is as good as it gets.
        if not abs(step) < last:
            break
        z -= step
        last = abs(step)
    return z


# Companion eigenvalues of a mu-fold root scatter like eps**(1/mu) around it,
# about 3e-6 relative for a triple root, so estimates this close are one root.
_GROUP_RADIUS = 1e-5


def solve_quartic_real_roots(
    coeffs: Sequence[float], tol: float = 1e-9
) -> list[tuple[float, int]]:
    """Real roots of a quartic with their multiplicities, ascending.

    Companion-matrix eigenvalues within a relative 1e-5 of each other form one
    root, and the group's size is its multiplicity.  The group's centroid is
    polished by Newton on the (mu-1)-th derivative, where a mu-fold root is
    simple: in t when |t| <= 1, in 1/t (reversed coefficients) otherwise.  A
    root counts as real when |Im| <= tol * (1 + |Re|).  Leading zero
    coefficients (v = 0 in the t-quartic) are a root at infinity, returned
    as math.inf with one multiplicity per zero.
    """
    cs = [float(x) for x in coeffs]
    if len(cs) != 5:
        raise ValueError("expected five quartic coefficients")

    groups: list[list[complex]] = []
    for z in sorted(np.roots(cs).tolist(), key=lambda w: (w.real, w.imag)):
        for group in groups:
            if any(abs(z - w) <= _GROUP_RADIUS * max(abs(z), abs(w)) for w in group):
                group.append(z)
                break
        else:
            groups.append([z])

    found: list[tuple[float, int]] = []
    for group in groups:
        mult = len(group)
        z = sum(group) / mult
        inverted = abs(z) > 1.0
        target = cs[::-1] if inverted else cs
        for _ in range(mult - 1):
            target = _derivative(target)
        z = _polish(target, 1.0 / z if inverted else z)
        if inverted:
            z = 1.0 / z
        if abs(z.imag) <= tol * (1.0 + abs(z.real)):
            found.append((z.real, mult))
    at_infinity = next((k for k, x in enumerate(cs) if x != 0.0), len(cs))
    if at_infinity:
        found.append((math.inf, at_infinity))
    found.sort()
    return found


def reconstruct_states(
    params: ModelParams, root: float, tol: float = 1e-9
) -> list[Eigenstate]:
    """The state at a root t = tan(beta/2) of the t-quartic: a list of zero or one.

    Amplitudes (|t|, -sign(t) e^{-i phi}) / sqrt(1 + t^2), with amp2 = 1 at
    t = 0 and psi = (1, 0) at t = inf; energy E = -v (1 + t^2) / (4 t), whose
    limits are -(R + c)/2 at t = 0 and (R - c)/2 at t = inf.  The state is
    kept when its stationarity residual |H(psi) psi - E psi| is below tol.
    """
    R, c, v = params.R, params.c, params.v
    t = float(root)
    if math.isinf(t):
        a1, a2, energy = 1.0 + 0.0j, 0.0j, 0.5 * (R - c)
    elif t == 0.0:
        a1, a2, energy = 0.0j, 1.0 + 0.0j, -0.5 * (R + c)
    else:
        tsq = t * t
        a1 = complex(math.sqrt(tsq / (1.0 + tsq)))
        a2 = -math.copysign(math.sqrt(1.0 / (1.0 + tsq)), t) * cmath.exp(-1j * params.phi)
        energy = -v * (1.0 + tsq) / (4.0 * t)

    h1, h2 = _apply(params, a1, a2)
    residual = math.sqrt(abs(h1 - energy * a1) ** 2 + abs(h2 - energy * a2) ** 2)
    if not residual < tol:
        return []
    return [Eigenstate(a1, a2, energy, _imbalance(a1, a2), residual)]


def stationary_states(params: ModelParams, tol: float = 1e-9) -> StationaryFamily:
    """All stationary states at one parameter point, one per real root of the t-quartic.

    Needs v > 0 or R != 0; the fully degenerate origin has no preferred states.
    Between two and four states exist whenever v > 0.  At v = 0 the relative
    phase is free, so the roots +t and -t are one state, reported once.
    Energies equal to within 1e-12 (relative) are one degenerate level: they
    share one value and are ordered by imbalance.
    """
    if not _has_states(params):
        raise InvalidStateError("need v > 0 or R != 0 to define stationary states")

    roots = solve_quartic_real_roots(quartic_coefficients(params), tol)
    if params.v == 0.0:
        roots = [(t, mult) for t, mult in roots if t >= 0.0]
    states = sorted(
        (s for t, _ in roots for s in reconstruct_states(params, t, tol)),
        key=lambda s: s.energy,
    )
    for i in range(1, len(states)):
        low, high = states[i - 1].energy, states[i].energy
        if high - low <= 1e-12 * max(abs(low), abs(high)):
            states[i] = dataclasses.replace(states[i], energy=low)
    states.sort(key=lambda s: (s.energy, s.imbalance))

    if params.v > 0.0 and not 2 <= len(states) <= 4:
        raise ArithmeticError(
            f"expected 2..4 stationary states at {params}, found {len(states)}"
        )
    return StationaryFamily(params, tuple(states))


def state_overlap(a: Eigenstate, b: Eigenstate) -> complex:
    """Inner product <a|b> of two amplitude pairs."""
    return a.amp1.conjugate() * b.amp1 + a.amp2.conjugate() * b.amp2


def phi_loop(params: ModelParams, n_points: int) -> ParamPath:
    """Closed path winding the coupling phase once, n_points segments.

    Returns n_points + 1 samples; the last reduces to the first modulo 2*pi.
    """
    if n_points < 2:
        raise ValueError("need at least two segments")
    pts = [
        dataclasses.replace(params, phi=(params.phi + TWO_PI * k / n_points) % TWO_PI)
        for k in range(n_points + 1)
    ]
    return ParamPath(tuple(pts), closed=True)


def linear_path(start: ModelParams, stop: ModelParams, n_points: int) -> ParamPath:
    """Straight-line parameter sweep with n_points samples (inclusive)."""
    if n_points < 2:
        raise ValueError("need at least two samples")
    ts = np.linspace(0.0, 1.0, n_points)
    pts = tuple(
        ModelParams(
            R=(1 - t) * start.R + t * stop.R,
            c=(1 - t) * start.c + t * stop.c,
            v=(1 - t) * start.v + t * stop.v,
            phi=(1 - t) * start.phi + t * stop.phi,
        )
        for t in ts
    )
    return ParamPath(pts, closed=False)


def continue_branch(
    path: ParamPath, seed: Eigenstate, tol: float = 1e-9
) -> list[Eigenstate]:
    """Track one stationary branch along a parameter path by maximum overlap.

    At each point the candidate maximizing |<previous|candidate>| is taken;
    if even the best overlap falls below 0.5 the branch has been lost (folded
    away or the path is sampled too coarsely) and BranchLostError is raised.
    """
    current = seed
    branch: list[Eigenstate] = []
    for pt in path.points:
        family = stationary_states(pt, tol)
        best = None
        best_ov = -1.0
        for cand in family.states:
            ov = abs(state_overlap(current, cand))
            if ov > best_ov:
                best, best_ov = cand, ov
        if best is None or best_ov < 0.5:
            raise BranchLostError(
                f"best overlap {best_ov:.3f} at {pt}; refine the path or stop earlier"
            )
        branch.append(best)
        current = best
    return branch
