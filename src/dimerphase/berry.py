"""Geometric phases of the dimer's coupling-phase loop, and of the frame loops
of a pair of levels split by a weak perturbation.

Winding the coupling phase once carries each dimer stationary state around
the degeneracy: berry_phase_closed_form reads the phase pi * (1 + m) from
the state, berry_phase_discrete from a branch tracked around phi_loop.

A degenerate pair is lifted by a perturbation whose matrix elements between
the two unperturbed states define a frame: polar angle theta from the
diagonal imbalance, azimuth phi from the off-diagonal phase.  Driving the
frame around a closed loop produces one geometric phase per level.  The two
states need not be orthogonal; their constant overlap modulus s deforms both
phases through Delta_pm = 1 +/- sin(theta)*s.

All loop integrals use trapezoid quadrature on the stored samples, which is
spectrally accurate for smooth periodic integrands.  Phases are reported
reduced to [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidStateError,
    LoopTooCoarseError,
    NearSingularLoopError,
    SingularLimitError,
)
from .model import (
    TWO_PI,
    Branch,
    Eigenstate,
    _check_overlap,
    _check_theta,
    _overlap_parts,
    _reduce_phase,
)

# Lower bound on 1 - sin(theta)*s (general quadrature) and 1 - sin(theta)
# (unit-overlap limit) before the integrands are declared singular.
SINGULARITY_GUARD = 1e-6


def _wrap(x):
    """x reduced to [0, 2*pi) elementwise, within 1e-12 of 2*pi to 0; a scalar to a float."""
    y = _reduce_phase(x)
    y = np.where(TWO_PI - y < 1e-12, 0.0, y)
    return float(y) if y.ndim == 0 else y


@dataclass(frozen=True)
class PhasePair:
    """Geometric phases (level n, level n+1), each in [0, 2*pi)."""

    gamma_n: float
    gamma_n1: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.gamma_n, self.gamma_n1)


@dataclass(frozen=True, eq=False)
class FrameLoop:
    """Closed loop of frame angles with a constant overlap s.

    thetas   polar angles in [0, pi], one per sample
    phis     azimuths as an unwrapped loop coordinate, one per sample, finite
    overlap  modulus s of the unperturbed states' inner product, in [0, 1]
    """

    thetas: np.ndarray
    phis: np.ndarray
    overlap: float

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        phis = np.asarray(self.phis, dtype=float)
        if thetas.ndim != 1 or thetas.shape != phis.shape:
            raise ValueError("theta and phi samples must be 1-D arrays of one length")
        if len(thetas) < 3:
            raise ValueError("a loop needs at least three samples")
        _check_theta(thetas)
        if not np.isfinite(phis).all():
            raise ValueError("phi samples must be finite")
        _check_overlap(self.overlap)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "overlap", float(self.overlap))


def frame_loop(
    theta: float | Sequence[float], overlap: float, n_points: int = 1024
) -> FrameLoop:
    """Loop whose azimuth winds once from 0 to 2*pi in n_points equal steps.

    theta may be a constant or an array of n_points + 1 samples.
    """
    if n_points < 3:
        raise ValueError("need at least three loop segments")
    phis = np.linspace(0.0, TWO_PI, n_points + 1)
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim == 0:
        thetas = np.full_like(phis, thetas)
    return FrameLoop(thetas, phis, overlap)


def _loop_integral(loop: FrameLoop, values: np.ndarray) -> float:
    """Trapezoid integral against d(phi) of an integrand sampled on the loop."""
    return float(0.5 * np.sum((values[:-1] + values[1:]) * np.diff(loop.phis)))


def solid_angle(loop: FrameLoop) -> float:
    """Oriented solid angle enclosed by the frame axis, integral of (1 - cos theta) d(phi)."""
    return _loop_integral(loop, 1.0 - np.cos(loop.thetas))


def _frame_phases(loop: FrameLoop, s: float, error: type, message: str) -> PhasePair:
    """The loop quadrature at overlap s:

    gamma_n   = 1/2 int (1 - cos theta + s sin theta) / (1 + s sin theta) dphi
    gamma_n+1 = 1/2 int (1 + cos theta - s sin theta) / (1 - s sin theta) dphi

    raising error(message) where 1 - s sin theta falls below the guard.
    """
    s_sin = s * np.sin(loop.thetas)
    if np.min(1.0 - s_sin) < SINGULARITY_GUARD:
        raise error(message)
    cos = np.cos(loop.thetas)
    g_n = 0.5 * _loop_integral(loop, (1.0 - cos + s_sin) / (1.0 + s_sin))
    g_n1 = 0.5 * _loop_integral(loop, (1.0 + cos - s_sin) / (1.0 - s_sin))
    return PhasePair(_wrap(g_n), _wrap(g_n1))


def berry_phase_perturbative(loop: FrameLoop) -> PhasePair:
    """Geometric phase pair from the full loop quadrature at the loop's overlap."""
    message = "1 - sin(theta)*s fell below the quadrature guard"
    return _frame_phases(loop, loop.overlap, NearSingularLoopError, message)


def berry_phase_constant_theta(theta: float, overlap: float) -> PhasePair:
    """Closed form of the loop quadrature when theta is constant."""
    _check_theta(theta)
    _check_overlap(overlap)
    s = overlap
    st, ct = math.sin(theta), math.cos(theta)
    if 1.0 - st * s < SINGULARITY_GUARD:
        raise NearSingularLoopError("constant-theta loop sits on the Delta_- singularity")
    g_n = math.pi * ((1.0 - ct) + s * st) / (1.0 + s * st)
    g_n1 = math.pi * ((1.0 + ct) - s * st) / (1.0 - s * st)
    return PhasePair(_wrap(g_n), _wrap(g_n1))


def berry_phase_small_overlap(loop: FrameLoop) -> PhasePair:
    """First order in s: +/- half the solid angle plus a shared linear correction.

    The correction coefficient is Omega_c'/4 + pi/2 with the companion integral
    Omega_c' = -int [1 + cos(pi/2 + 2 theta)] dphi, which reduces the error to
    O(s^2) against the full quadrature (and vanishes on the equator, where the
    exact phases are pi at every s).
    """
    s = loop.overlap
    om = solid_angle(loop)
    corr = (0.25 * _companion_solid_angle(loop) + 0.5 * math.pi) * s
    return PhasePair(_wrap(0.5 * om + corr), _wrap(-0.5 * om + corr))


def _companion_solid_angle(loop: FrameLoop) -> float:
    """The auxiliary integral entering the small-overlap correction; -2*pi on the equator."""
    return -_loop_integral(loop, 1.0 + np.cos(0.5 * math.pi + 2.0 * loop.thetas))


def berry_phase_unit_overlap(loop: FrameLoop) -> PhasePair:
    """Limit s -> 1 of the loop quadrature: the quadrature at s = 1, whatever
    the loop's overlap.  Loops touching sin(theta) = 1 make the n+1 integrand
    blow up.
    """
    return _frame_phases(
        loop, 1.0, SingularLimitError, "unit-overlap integrand singular at sin(theta) = 1"
    )


def berry_phase_closed_form(state) -> float | np.ndarray:
    """Coupling-phase-loop geometric phase of dimer stationary states.

    gamma = pi * (1 + m) = 2 pi |amp2|^2, reduced to [0, 2*pi): the Berry
    phase of the instantaneous stationary states around the loop, which keeps
    its relative digits as it falls to 0 (m -> -1).  At c > 0 a slowly driven
    state picks up a different phase, since its chemical potential obeys no
    Hellmann-Feynman theorem.  At v = 0 the rule is the same: 0 for the
    polarized states m = -+1, and pi (1 - R/c) for the free-phase state,
    whose relative phase the loop winds.

    state is an Eigenstate, a Branch or a StationaryArrays, read elementwise;
    NaN amplitudes, a missing state as in a StationaryArrays row, give NaN.  Any other
    norm more than 1e-6 from 1 (continue_branch's rule) raises InvalidStateError;
    a finite state's non-finite energy or imbalance, ValueError.
    """
    norm = np.hypot(abs(state.amp1), abs(state.amp2))
    for name in ("energy", "imbalance"):
        if (np.isfinite(norm) & ~np.isfinite(getattr(state, name))).any():
            raise ValueError(f"{name} must be finite where the amplitudes are")
    off = np.abs(norm - 1.0) > 1e-6
    if off.any():
        first = float(np.extract(off, norm)[0])
        raise InvalidStateError(f"state has norm {first!r}, not 1 within 1e-6")
    a2 = state.amp2
    return _wrap(TWO_PI * (a2.real * a2.real + a2.imag * a2.imag))


def berry_phase_discrete(branch: Sequence[Eigenstate]) -> float:
    """Gauge-invariant discrete loop phase, -Arg of the cyclic overlap product.

    The branch is treated cyclically, so passing the closing point twice is
    harmless (the duplicate factor is <psi|psi> = 1).  Any consecutive overlap
    with modulus below 0.5 means the loop is sampled too coarsely.  A Branch
    is read through its amplitude columns, any other sequence of states
    through its records; the phases of the overlaps are summed in order.
    """
    n = len(branch)
    if n < 16:
        raise ValueError("need at least 16 samples around the loop")
    if isinstance(branch, Branch):
        a1, a2 = branch.amp1, branch.amp2
    else:
        a1 = np.array([s.amp1 for s in branch], dtype=complex)
        a2 = np.array([s.amp2 for s in branch], dtype=complex)
    # Not _overlap: on strided complex views it made the loop benchmark's wall_s 8 % slower.
    parts = np.stack([a1.real, a1.imag, a2.real, a2.imag])
    re, im = _overlap_parts(*parts, *np.roll(parts, -1, axis=1))
    modulus = np.hypot(re, im)
    coarse = np.flatnonzero(modulus < 0.5)
    if coarse.size:
        k = int(coarse[0])
        raise LoopTooCoarseError(
            f"overlap modulus {modulus[k]:.3f} between samples {k} and {(k + 1) % n}"
        )
    total = 0.0
    for y, x in zip(im.tolist(), re.tolist()):
        total += math.atan2(y, x)
    return _wrap(-total)
