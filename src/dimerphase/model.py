"""Nonlinear two-mode (dimer) model: stationary states and branch tracking.

The Hamiltonian is a 2x2 matrix whose diagonal depends on the population
imbalance m = |psi2|^2 - |psi1|^2 of the state it acts on:

    H(psi) = [[ R/2 + c*m/2,      (v/2) e^{+i phi} ],
              [ (v/2) e^{-i phi}, -R/2 - c*m/2     ]]

Stationary states solve the
self-consistency condition H(psi) psi = E psi, so there can be more of them
than the dimension of the matrix: energies are real roots of a monic quartic,
and a candidate root is kept only when a normalized state can be rebuilt
around it with a small stationarity residual.  Rebuilding, not root
bookkeeping, is what rejects spurious roots.
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

# Roots of the quartic closer than this (absolute, at unit scale) are treated
# as one multiple root; companion-matrix output for a true double root is only
# good to ~sqrt(eps), so the radius must sit well above that.
_CLUSTER_RADIUS = 1e-6


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
    """Monic quartic in E whose real roots are the candidate stationary energies.

    Independent of phi: the coupling phase is a gauge choice for the spectrum.
    """
    R, c, v = params.R, params.c, params.v
    return (
        1.0,
        c,
        0.25 * (c * c - v * v - R * R),
        -0.25 * v * v * c,
        -v * v * c * c / 16.0,
    )


def _horner(coeffs: Sequence[float], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for ck in coeffs:
        acc = acc * z + ck
    return acc


# Companion-matrix eigenvalues of a mu-fold root scatter like eps**(1/mu), so
# the acceptance radius for each multiplicity hypothesis must grow with mu.
_MULT_RADIUS = {1: 1e-5, 2: 3e-6, 3: 3e-5, 4: 3e-4}


def _newton(target: Sequence[float], dtarget: Sequence[float], z0: complex) -> tuple[complex, float]:
    z = complex(z0)
    step = math.inf
    for _ in range(60):
        dz = _horner(dtarget, z)
        if dz == 0:
            break
        delta = _horner(target, z) / dz
        z = z - delta
        step = abs(delta)
        if step <= 1e-15 * (1.0 + abs(z)):
            break
    return z, step


def _identify_root(z0: complex, derivs: Sequence[Sequence[float]]) -> complex:
    """Polish a companion estimate, detecting the root's true multiplicity.

    Clustering alone cannot group a multiple root whose eigenvalue scatter
    exceeds the cluster radius (a triple root scatters ~eps**(1/3)), and plain
    Newton stalls there in rounding noise.  So try each multiplicity mu from
    high to low: polish on the (mu-1)-th derivative, where the root is simple,
    and accept when the iteration converged near z0 with p and every lower
    derivative vanishing to roundoff levels.
    """
    for mu in (4, 3, 2, 1):
        z, step = _newton(derivs[mu - 1], derivs[mu], z0)
        if step > 1e-10 * (1.0 + abs(z)):
            continue
        if abs(z - z0) > _MULT_RADIUS[mu] * (1.0 + abs(z0)):
            continue
        scale = max(1.0, abs(z))
        p_bound = (1e-12 if mu > 1 else 1e-9) * scale**4
        if abs(_horner(derivs[0], z)) > p_bound:
            continue
        if any(
            abs(_horner(derivs[k], z)) > 1e-10 * scale ** (4 - k) for k in range(1, mu)
        ):
            continue
        return z
    z, _ = _newton(derivs[0], derivs[1], z0)
    return z


def solve_quartic_real_roots(
    coeffs: Sequence[float], tol: float = 1e-9
) -> list[tuple[float, int]]:
    """Real roots of a monic quartic with multiplicities, ascending.

    Starts from companion-matrix eigenvalues, clusters near-coincident
    estimates, then polishes each cluster with a multiplicity-detecting Newton
    ladder so double and triple roots converge quadratically instead of
    stalling in rounding noise.  A root counts as real when
    |Im| <= tol * (1 + |Re|); members of a multiple root that scatter into
    tight conjugate pairs are folded back onto the axis by the polish.
    """
    cs = [float(x) for x in coeffs]
    if len(cs) != 5:
        raise ValueError("expected five quartic coefficients")
    if abs(cs[0] - 1.0) > 1e-12:
        raise ValueError("quartic must be monic")
    cs[0] = 1.0

    raw = list(np.roots(cs))

    # Greedy chain clustering; degree four, so quadratic cost is irrelevant.
    clusters: list[list[complex]] = []
    for z in sorted(raw, key=lambda w: (w.real, w.imag)):
        for group in clusters:
            radius = _CLUSTER_RADIUS * (1.0 + abs(group[0]))
            if abs(z - group[0]) <= radius:
                group.append(z)
                break
        else:
            clusters.append([z])

    # Derivative coefficient table: index k holds the k-th derivative.
    derivs = [np.array(cs)]
    for _ in range(4):
        derivs.append(np.polyder(derivs[-1]))

    found: list[tuple[float, int]] = []
    for group in clusters:
        z = _identify_root(sum(group) / len(group), derivs)
        if abs(z.imag) > tol * (1.0 + abs(z.real)):
            continue
        root = z.real
        bound = tol * max(1.0, abs(root) ** 4)
        if abs(_horner(cs, complex(root))) > bound:
            raise ArithmeticError(
                f"quartic polish failed at {root!r}: residual above {bound!r}"
            )
        found.append((root, len(group)))

    # Merge clusters that polished onto the same point.
    found.sort(key=lambda rm: rm[0])
    merged: list[tuple[float, int]] = []
    for root, mult in found:
        if merged and abs(root - merged[-1][0]) <= 1e-8 * (1.0 + abs(root)):
            prev_root, prev_mult = merged[-1]
            merged[-1] = (prev_root, min(4, prev_mult + mult))
        else:
            merged.append((root, mult))
    return merged


def _build_state(params: ModelParams, energy: float, m: float) -> Eigenstate:
    R, c, v, phi = params.R, params.c, params.v, params.phi
    p1sq = max(0.0, 0.5 * (1.0 - m))
    p2sq = max(0.0, 0.5 * (1.0 + m))
    a1 = math.sqrt(p1sq) + 0.0j
    diag = 0.5 * R + 0.5 * c * m
    if v > 0.0 and p1sq > 1e-24:
        ratio = (energy - diag) / (0.5 * v * cmath.exp(1j * phi))
        a2 = a1 * ratio
    else:
        # No coupling, or the first mode is empty: second amplitude carries the gauge.
        a2 = math.sqrt(p2sq) + 0.0j
    norm = math.sqrt(abs(a1) ** 2 + abs(a2) ** 2)
    a1, a2 = a1 / norm, a2 / norm

    h1, h2 = _apply(params, a1, a2)
    r1 = h1 - energy * a1
    r2 = h2 - energy * a2
    residual = math.sqrt(abs(r1) ** 2 + abs(r2) ** 2)
    return Eigenstate(a1, a2, float(energy), _imbalance(a1, a2), residual)


def reconstruct_states(
    params: ModelParams, energy: float, tol: float = 1e-9
) -> list[Eigenstate]:
    """States stationary at the given energy: zero, one, or two of them.

    Generic branch (|2E + c| > tol): the imbalance is forced, m = -R/(2E + c).
    Degenerate branch (2E + c and R both ~ 0): m^2 = 1 - (v/c)^2, a pair that
    exists only for c >= v.  Candidates with |m| > 1, residual >= tol, or
    4E^2 < v^2 are dropped.
    """
    R, c, v = params.R, params.c, params.v
    E = float(energy)

    if abs(2.0 * E + c) > tol:
        candidates = [-R / (2.0 * E + c)]
    elif abs(R) <= tol and c > tol:
        msq = 1.0 - (v / c) ** 2
        if msq < -tol:
            return []
        m0 = math.sqrt(max(0.0, msq))
        candidates = [-m0, m0] if m0 > tol else [0.0]
    else:
        return []

    out = []
    for m in candidates:
        if abs(m) > 1.0 + 1e-12:
            continue
        state = _build_state(params, E, min(1.0, max(-1.0, m)))
        if state.residual >= tol:
            continue
        if 4.0 * E * E < v * v - tol:
            continue
        out.append(state)
    return out


def stationary_states(params: ModelParams, tol: float = 1e-9) -> StationaryFamily:
    """All stationary states at one parameter point.

    Needs v > 0 or R != 0; the fully degenerate origin has no preferred states.
    Between two and four states exist whenever v > 0.
    """
    if not _has_states(params):
        raise InvalidStateError("need v > 0 or R != 0 to define stationary states")

    roots = solve_quartic_real_roots(quartic_coefficients(params), tol)
    states: list[Eigenstate] = []
    for root, _ in roots:
        for cand in reconstruct_states(params, root, tol):
            dup = any(
                abs(cand.energy - kept.energy) <= 1e-8 * (1.0 + abs(cand.energy))
                and abs(cand.imbalance - kept.imbalance) <= 1e-8
                for kept in states
            )
            if not dup:
                states.append(cand)
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
