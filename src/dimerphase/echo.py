"""Degeneracy diagnostics: nonlinearity witness and Loschmidt echo.

The witness is the overlap modulus of the two lowest stationary states.  In a
linear model degenerate states can be orthogonalized, so any nonzero overlap
of a degenerate pair is an order parameter for nonlinearity; on the dimer's
bias-free degeneracy it equals v/c below the critical coupling and drops to
zero above it.

The echo starts a stationary state psi_0 of a base Hamiltonian and drives the
base slowly around a loop.  Undriven, psi_0 would only pick up the phase
exp(-i E t), so the echo against the undriven flow is the survival
probability of the driven run, L(t) = |<psi_0|psi(t)>|^2.  For an adiabatic
drive the surviving branch population is

    L = |cos(theta/2) + sin(theta/2) s|^2 / (1 + sin(theta) s),

drive-amplitude independent, equal to 1/2 on the equator for s = 0.  The
dynamical trace oscillates around that level through the residual dynamical
phase between the split branches; time-averaging recovers it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AmbiguousRegimeError,
    InvalidStateError,
    ModelDegenerateError,
    StepSizeError,
)
from .model import (
    TWO_PI,
    Eigenstate,
    ModelParams,
    _apply_half,
    _check_finite,
    _check_overlap,
    _check_theta,
    _overlap,
    _residual,
    stationary_states,
)

# One-step norm drift above this aborts the integration: the step is too big
# for the classical fourth-order scheme to be trusted.
_DRIFT_LIMIT = 1e-6

# Integrator steps whose drive samples are taken at once: enough to spread
# numpy's per-call cost, few enough that the samples stay small.  Sampling
# all 10,000 steps of a T = 20, dt = 0.002 run at once raised its peak
# memory by 10 %.
_BLOCK = 1024


@dataclass(frozen=True)
class WitnessReport:
    """Witness value at one parameter point, with the pair it was read from."""

    params: ModelParams
    pair_energies: tuple[float, float]
    witness: float


@dataclass(frozen=True)
class DriveSchedule:
    """Time-dependent parameter offsets applied on top of a base point.

    perturbation(t) returns (dR, dv, dphi) for t in [0, total_time], which
    must be positive and finite.  It is evaluated on arrays of times, and an
    offset may be a constant, which stands for every time.  Closed drives
    return to their starting offsets at t = total_time, modulo 2*pi in the
    phase component.
    """

    base: ModelParams
    perturbation: Callable[[float], tuple[float, float, float]]
    total_time: float

    def __post_init__(self):
        T = float(self.total_time)
        if not 0.0 < T < math.inf:
            raise ValueError(f"total_time must be positive and finite, got {T!r}")
        object.__setattr__(self, "total_time", T)

    def params_at(self, t: float) -> ModelParams:
        """The drive at one time, as a record; samples is the same on arrays."""
        dR, dv, dphi = self.perturbation(t)
        v = self.base.v + dv
        if v < 0.0:
            raise ValueError(f"drive made the coupling negative at t={t!r}")
        try:
            return ModelParams(
                R=self.base.R + dR,
                c=self.base.c,
                v=v,
                phi=(self.base.phi + dphi) % TWO_PI,
            )
        except ValueError as exc:
            raise ValueError(f"{exc} at t={t!r}") from None

    def samples(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(R, v, e^{i phi}) at an array of times, each of the shape of times.

        Bit for bit what params_at gives at each time, with the phase factor
        rounded as cmath.exp(1j * phi).  A sample that params_at would reject
        raises its ValueError, for the first such time in array order.
        """
        t = np.asarray(times, dtype=float)
        dR, dv, dphi = (np.broadcast_to(x, t.shape) for x in self.perturbation(t))
        base = self.base
        R = base.R + dR
        v = base.v + dv
        with np.errstate(invalid="ignore"):
            phi = np.mod(base.phi + dphi, TWO_PI)
        # As ModelParams stores it: a tiny negative phi reduces to 2*pi, stored as 0.
        phi = np.where(phi == TWO_PI, 0.0, phi)
        ok = np.isfinite(R) & np.isfinite(v) & (v >= 0.0) & np.isfinite(phi)
        if not ok.all():
            t_bad = t.flat[np.argmin(ok)].item()
            self.params_at(t_bad)  # raises its ValueError for this sample
            raise ValueError(f"drive left the parameter domain at t={t_bad!r}")
        return R, v, np.cos(phi) + 1j * np.sin(phi)


@dataclass(frozen=True)
class EchoTrace:
    """Echo samples L(t_k); L(0) = 1 to rounding, and values stay within [0, 1 + 1e-9]."""

    times: np.ndarray
    values: np.ndarray


def zero_drive(base: ModelParams, total_time: float) -> DriveSchedule:
    return DriveSchedule(base, lambda t: (0.0, 0.0, 0.0), total_time)


def circular_drive(
    base: ModelParams,
    amplitude: float,
    polar_angle: float,
    total_time: float,
) -> DriveSchedule:
    """One smooth loop of a constant-magnitude perturbation around the base point.

    The offset keeps fixed polar angle (dR = A cos(theta), dv = A sin(theta))
    while its azimuth winds once with sin^2-ramped angular velocity,
    dphi(t) = 2*pi u - sin(2*pi u), u = t/T: the traversal starts and ends at
    rest, which suppresses diabatic kicks at the endpoints.  amplitude = 0
    degenerates to the zero drive.
    """
    if not 0.0 <= polar_angle <= math.pi:
        raise ValueError("polar angle must lie in [0, pi] so the coupling stays >= 0")
    if not math.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if amplitude == 0.0:
        return zero_drive(base, total_time)
    dR = amplitude * math.cos(polar_angle)
    dv = amplitude * math.sin(polar_angle)
    T = float(total_time)

    def offsets(t):
        u = t / T
        return (dR, dv, TWO_PI * u - np.sin(TWO_PI * u))

    return DriveSchedule(base, offsets, T)


def nonlinearity_witness(params: ModelParams, tol: float = 1e-9) -> WitnessReport:
    """Overlap modulus of the two lowest-energy stationary states.

    On the bias-free degeneracy this is the degenerate pair; elsewhere the two
    lowest states stand in for it.  Zero for a linear model, where the states
    are orthogonal eigenvectors of one Hermitian matrix.
    """
    family = stationary_states(params, tol)
    if len(family) < 2:
        raise ModelDegenerateError(
            f"witness needs two stationary states, found {len(family)}"
        )
    lo, hi = family.states[0], family.states[1]
    value = _pair_witness(lo.amp1, lo.amp2, hi.amp1, hi.amp2)
    return WitnessReport(params, (lo.energy, hi.energy), value)


def _pair_witness(lo1: complex, lo2: complex, hi1: complex, hi2: complex) -> float:
    """min(1, |<lo|hi>|) of a state pair given by its amplitudes."""
    return min(1.0, abs(_overlap(lo1, lo2, hi1, hi2)))


def loschmidt_adiabatic(theta: float, overlap: float) -> float:
    """Adiabatic echo level for drive polar angle theta and pair overlap s.

    The squared half-angle sum is expanded through double-angle identities,
    (cos(t/2) + s sin(t/2))^2 = (1 + cos t)/2 + s sin t + s^2 (1 - cos t)/2,
    which keeps the equator value at s = 0 exactly 1/2 in floating point.
    """
    _check_theta(theta)
    _check_overlap(overlap)
    s = overlap
    st, ct = math.sin(theta), math.cos(theta)
    num = 0.5 * (1.0 + ct) + s * st + s * s * 0.5 * (1.0 - ct)
    val = num / (1.0 + st * s)
    return min(1.0, max(0.0, val))


def loschmidt_adiabatic_limit(overlap: float, ordering: float) -> float:
    """Echo level when the drive satisfies the diagonal-dominance condition.

    ordering is the sign of (dH_nn - dH_{n+1,n+1}): positive keeps the started
    level on top and the echo saturates at 1; negative swaps them and leaves
    only the overlap channel, s^2.  Exactly zero is the equator, where neither
    limit applies.
    """
    _check_overlap(overlap)
    _check_finite(ordering=ordering)
    if ordering > 0.0:
        return 1.0
    if ordering < 0.0:
        return overlap * overlap
    raise AmbiguousRegimeError("ordering = 0 sits between the two limit regimes")


def evolve_nonlinear(
    initial: Eigenstate, drive: DriveSchedule, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate i d(psi)/dt = H(psi, t) psi with classical fixed-step RK4.

    The requested dt, positive and finite, is rounded so an integer number of
    steps spans the drive.  Step k samples the drive at k*h, k*h + h/2 and
    k*h + h, through drive.samples on blocks of steps.  Each step is
    renormalized; the pre-renormalization drift is the scheme's own error
    estimate, and a drift above 1e-6 raises StepSizeError.  An initial state
    of zero or non-finite norm raises InvalidStateError.  Returns (times,
    amplitudes) including both endpoints.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    T = drive.total_time
    n_steps = max(1, round(T / dt))
    h = T / n_steps

    a1, a2 = complex(initial.amp1), complex(initial.amp2)
    norm = math.sqrt(abs(a1) ** 2 + abs(a2) ** 2)
    if not 0.0 < norm < math.inf:
        raise InvalidStateError(f"initial state has norm {norm!r}, not a positive finite one")
    a1, a2 = a1 / norm, a2 / norm

    times = np.linspace(0.0, T, n_steps + 1)
    out = np.empty((n_steps + 1, 2), dtype=complex)
    out[0] = (a1, a2)

    hc, half, sixth = 0.5 * drive.base.c, 0.5 * h, h / 6.0
    for first in range(0, n_steps, _BLOCK):
        starts = np.arange(first, min(first + _BLOCK, n_steps)) * h
        # Rows in time order, so a bad sample is reported at its earliest time.
        R, v, e = drive.samples(np.stack([starts, starts + half, starts + h], axis=1))
        # The kernel's half-coefficients R/2 and (v/2) e^{i phi} at each stage time.
        stages = zip(starts.tolist(), *(0.5 * R).T.tolist(), *(0.5 * v * e).T.tolist())
        col1, col2 = [], []
        for t, hR0, hR1, hR2, g0, g1, g2 in stages:
            # Each stage is d(psi)/dt = -i H(psi) psi, with the model's kernel called
            # directly: a wrapper around it costs one more Python call per stage.
            f1, f2 = _apply_half(hR0, hc, g0, a1, a2)
            k1a, k1b = -1j * f1, -1j * f2
            f1, f2 = _apply_half(hR1, hc, g1, a1 + half * k1a, a2 + half * k1b)
            k2a, k2b = -1j * f1, -1j * f2
            f1, f2 = _apply_half(hR1, hc, g1, a1 + half * k2a, a2 + half * k2b)
            k3a, k3b = -1j * f1, -1j * f2
            f1, f2 = _apply_half(hR2, hc, g2, a1 + h * k3a, a2 + h * k3b)
            k4a, k4b = -1j * f1, -1j * f2
            a1 = a1 + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            a2 = a2 + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            norm = math.sqrt(abs(a1) ** 2 + abs(a2) ** 2)
            # Written so that a nan norm fails the test too.
            if not abs(norm - 1.0) <= _DRIFT_LIMIT:
                raise StepSizeError(
                    f"norm drifted by {abs(norm - 1.0):.3e} in one step at t={t + h:.6g}"
                )
            a1, a2 = a1 / norm, a2 / norm
            col1.append(a1)
            col2.append(a2)
        # Stored per block: a numpy item assignment per step costs more than lists.
        rows = slice(first + 1, first + 1 + len(col1))
        out[rows, 0], out[rows, 1] = col1, col2
    return times, out


def loschmidt_dynamical(initial: Eigenstate, drive: DriveSchedule, dt: float) -> EchoTrace:
    """Echo trace L(t) = |<psi_0|psi(t)>|^2 of one driven run from psi_0 = initial.

    initial must be stationary for drive.base, |H(psi_0) psi_0 - E psi_0| <=
    1e-9 with E its stored energy, or InvalidStateError is raised: only then
    is the undriven flow the phase exp(-i E t), which drops out of the echo.
    """
    base = drive.base
    residual = _residual(
        base.R, base.c, base.v, cmath.exp(1j * base.phi), initial.amp1, initial.amp2,
        initial.energy,
    )
    if not residual <= 1e-9:
        raise InvalidStateError(
            f"initial state is not stationary for the drive's base: residual {residual:.3e}"
        )
    times, traj = evolve_nonlinear(initial, drive, dt)
    # An elementwise sum, not a matmul: BLAS would wake a worker thread that
    # keeps spinning through the next run's pure-Python integration.
    values = np.abs(np.sum(traj * np.conj(traj[0]), axis=1)) ** 2
    return EchoTrace(times, values)


def trace_mean(trace: EchoTrace) -> float:
    """sin^2-weighted time average of an echo trace.

    The window kills the oscillatory branch-interference term to high order
    in 1/T, leaving the adiabatic echo level.
    """
    T = trace.times[-1]
    if T <= 0.0:
        raise ValueError("trace spans zero time")
    w = np.sin(math.pi * trace.times / T) ** 2
    return float(np.sum(w * trace.values) / np.sum(w))
