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

import math
from dataclasses import dataclass, field

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
    _is_stationary,
    _overlap_parts,
    _phase_factor,
    _residual,
    stationary_states,
)

# |norm - 1| of a stored state above this aborts the integration: the steps are
# too big for the classical fourth-order scheme to be trusted.  The steps do not
# renormalize, so once per block it is tested on the drift since the start.
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
    """One smooth loop of a constant-magnitude perturbation around a base point.

    The offset keeps fixed polar angle (dR = A cos(theta), dv = A sin(theta))
    while its azimuth winds once with sin^2-ramped angular velocity,
    dphi(t) = 2*pi u - sin(2*pi u), u = t/T: the traversal starts and ends at
    rest, which suppresses diabatic kicks at the endpoints.  At A = 0 the phase
    does not wind.  Checked once, when built: theta in [0, pi], A finite, T
    positive and finite, and the driven R and v finite with v >= 0.
    """

    base: ModelParams
    amplitude: float
    polar_angle: float
    total_time: float
    # The driven R = base.R + A cos(theta) and v = base.v + A sin(theta),
    # which do not change in time.
    R: float = field(init=False, repr=False)
    v: float = field(init=False, repr=False)

    def __post_init__(self):
        A, theta, T = self.amplitude, self.polar_angle, float(self.total_time)
        if not 0.0 <= theta <= math.pi:
            raise ValueError("polar angle must lie in [0, pi] so the coupling stays >= 0")
        if not math.isfinite(A):
            raise ValueError("amplitude must be finite")
        if not 0.0 < T < math.inf:
            raise ValueError(f"total_time must be positive and finite, got {T!r}")
        R = self.base.R + A * math.cos(theta)
        v = self.base.v + A * math.sin(theta)
        if v < 0.0:
            raise ValueError("drive made the coupling negative")
        _check_finite(R=R, v=v)
        for name, value in (("total_time", T), ("R", R), ("v", v)):
            object.__setattr__(self, name, value)

    def _phase(self, t) -> np.ndarray:
        """phi at an array of times, of its shape, in [0, 2*pi) as ModelParams stores it."""
        t = np.asarray(t, dtype=float)
        u = t / self.total_time
        dphi = TWO_PI * u - np.sin(TWO_PI * u) if self.amplitude else np.zeros(t.shape)
        phi = np.mod(self.base.phi + dphi, TWO_PI)
        # A tiny negative phi reduces to 2*pi, stored as 0.
        return np.where(phi == TWO_PI, 0.0, phi)

    # Kept only for the benchmark, which traces it by name; R, v and samples give the same.
    def params_at(self, t: float) -> ModelParams:
        """The drive at one time, as a record."""
        return ModelParams(R=self.R, c=self.base.c, v=self.v, phi=float(self._phase(t)))

    def samples(self, times) -> np.ndarray:
        """e^{i phi} at an array of times, of the shape of times.

        Bit for bit cmath.exp(1j * phi) of params_at's phi at each time.
        """
        return _phase_factor(self._phase(times))


@dataclass(frozen=True)
class EchoTrace:
    """Echo samples L(t_k); L(0) = 1 to rounding, and values stay within [0, (1 + 1e-6)^2]."""

    times: np.ndarray
    values: np.ndarray


def zero_drive(base: ModelParams, total_time: float) -> DriveSchedule:
    return DriveSchedule(base, 0.0, 0.0, total_time)


def circular_drive(
    base: ModelParams, amplitude: float, polar_angle: float, total_time: float
) -> DriveSchedule:
    """One loop of the given amplitude and polar angle around base; see DriveSchedule."""
    return DriveSchedule(base, amplitude, polar_angle, total_time)


def nonlinearity_witness(params: ModelParams) -> WitnessReport:
    """Overlap modulus of the two lowest-energy stationary states.

    On the bias-free degeneracy this is the degenerate pair; elsewhere the two
    lowest states stand in for it.  Zero for a linear model, where the states
    are orthogonal eigenvectors of one Hermitian matrix.
    """
    family = stationary_states(params)
    if len(family) < 2:
        raise ModelDegenerateError(
            f"witness needs two stationary states, found {len(family)}"
        )
    lo, hi = family.states[0], family.states[1]
    value = float(_pair_witness(lo.amp1, lo.amp2, hi.amp1, hi.amp2))
    return WitnessReport(params, (lo.energy, hi.energy), value)


def _pair_witness(lo1, lo2, hi1, hi2):
    """min(1, |<lo|hi>|) of state pairs by their amplitudes, elementwise; NaN stays NaN."""
    return np.minimum(1.0, np.hypot(*_overlap_parts(lo1, lo2, hi1, hi2)))


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
    steps spans the drive; a count too large to store raises ValueError.
    Step k samples the drive at k*h, k*h + h/2 and k*h + h, through
    drive.samples on blocks of steps.  No step renormalizes: the drift is the
    scheme's error estimate.  Once per block, the first stored time where
    |norm - 1| exceeds 1e-6 (or is nan) raises StepSizeError.  The initial
    norm is a hypot, which does not overflow; a state that it does not divide
    to unit norm within 1e-6 (a zero, non-finite or subnormal one) raises
    InvalidStateError.  Returns (times, amplitudes) including both endpoints.

    The steps run on four floats per state, the real and imaginary parts
    (x1, y1, x2, y2), through the model's real-part kernel, with the -i of
    the equation folded into the stage weights: x + h Im f, y - h Re f.  The
    amplitudes are bit for bit those of the same RK4 in Python complex
    numbers (tests/test_echo.py keeps that form as the reference), with one
    exception: a part that starts as -0.0 and gets exactly zero increments
    may keep its sign where the complex form, through the 0.0 * y terms of
    its real-times-complex products, flips it.  Only the initial state can
    hold such a part: in either form, a part that is not -0.0 at the start of
    a step is not -0.0 after it.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    T = drive.total_time
    try:
        n_steps = max(1, round(T / dt))
        # The larger array first: np.empty fails without touching memory.
        out = np.empty((n_steps + 1, 2), dtype=complex)
        times = np.linspace(0.0, T, n_steps + 1)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(
            f"dt={dt!r} splits T={T!r} into {T / dt:.3g} steps, too many to store"
        ) from None
    h = T / n_steps

    a1, a2 = complex(initial.amp1), complex(initial.amp2)
    norm = math.hypot(a1.real, a1.imag, a2.real, a2.imag)
    if 0.0 < norm < math.inf:
        a1, a2 = a1 / norm, a2 / norm
    # A zero or non-finite norm cannot divide the state, and one of subnormal
    # parts is rounded so coarsely that the quotient is not a unit vector.
    if not abs(math.hypot(a1.real, a1.imag, a2.real, a2.imag) - 1.0) <= _DRIFT_LIMIT:
        raise InvalidStateError(f"initial state has norm {norm!r}, which does not normalize")
    out[0] = (a1, a2)

    x1, y1, x2, y2 = a1.real, a1.imag, a2.real, a2.imag
    # The kernel's half-coefficients: R/2, c/2 and (v/2) e^{i phi}.
    hR, hc, hv = 0.5 * drive.R, 0.5 * drive.base.c, 0.5 * drive.v
    half, sixth = 0.5 * h, h / 6.0
    for first in range(0, n_steps, _BLOCK):
        starts = np.arange(first, min(first + _BLOCK, n_steps)) * h
        coup = hv * drive.samples(np.stack([starts, starts + half, starts + h], axis=1))
        block = []
        for gr0, gr1, gr2, gi0, gi1, gi2 in zip(*coup.real.T.tolist(), *coup.imag.T.tolist()):
            # Stage j returns f = H(psi) psi as (p1, q1, p2, q2) = (Re f1, Im f1,
            # Re f2, Im f2), and d(psi)/dt = -i f moves x by Im f and y by -Re f.
            # The kernel is called directly: a wrapper costs one more call per stage.
            p1, q1, p2, q2 = _apply_half(hR, hc, gr0, gi0, x1, y1, x2, y2)
            r1, s1, r2, s2 = _apply_half(
                hR, hc, gr1, gi1,
                x1 + half * q1, y1 - half * p1, x2 + half * q2, y2 - half * p2,
            )
            t1, u1, t2, u2 = _apply_half(
                hR, hc, gr1, gi1,
                x1 + half * s1, y1 - half * r1, x2 + half * s2, y2 - half * r2,
            )
            w1, z1, w2, z2 = _apply_half(
                hR, hc, gr2, gi2, x1 + h * u1, y1 - h * t1, x2 + h * u2, y2 - h * t2
            )
            x1 = x1 + sixth * (q1 + 2.0 * s1 + 2.0 * u1 + z1)
            y1 = y1 - sixth * (p1 + 2.0 * r1 + 2.0 * t1 + w1)
            x2 = x2 + sixth * (q2 + 2.0 * s2 + 2.0 * u2 + z2)
            y2 = y2 - sixth * (p2 + 2.0 * r2 + 2.0 * t2 + w2)
            block += (x1, y1, x2, y2)
        # Stored per block: a numpy item assignment per step costs more than a list.
        rows = out[first + 1 : first + 1 + len(block) // 4]
        rows.view(float).reshape(-1)[:] = block
        # Parts that overflowed make abs warn; a nan drift fails the test too.
        with np.errstate(all="ignore"):
            drift = np.abs(np.hypot(np.abs(rows[:, 0]), np.abs(rows[:, 1])) - 1.0)
        ok = drift <= _DRIFT_LIMIT
        if not ok.all():
            k = int(np.argmin(ok))
            raise StepSizeError(f"norm drifted by {drift[k]:.3e} at t={(first + k + 1) * h:.6g}")
    return times, out


def loschmidt_dynamical(initial: Eigenstate, drive: DriveSchedule, dt: float) -> EchoTrace:
    """Echo trace L(t) = |<psi_0|psi(t)>|^2 of one driven run from psi_0 = initial.

    initial must be stationary for drive.base by the solver's scaled residual
    test, with E its stored energy, or InvalidStateError is raised: only then
    is the undriven flow the phase exp(-i E t), which drops out of the echo.
    """
    base = drive.base
    residual = _residual(
        base.R, base.c, base.v, _phase_factor(base.phi), initial.amp1, initial.amp2,
        initial.energy,
    )
    if not _is_stationary(residual, base.R, base.c, base.v):
        raise InvalidStateError(
            f"initial state is not stationary for the drive's base: residual {residual:.3e}"
        )
    times, traj = evolve_nonlinear(initial, drive, dt)
    # In Python's complex rounding, not numpy's complex product, which may fuse
    # a multiply and an add on some machines: the values do not depend on the CPU.
    overlap = _overlap_parts(traj[0, 0], traj[0, 1], traj[:, 0], traj[:, 1])
    return EchoTrace(times, np.hypot(*overlap) ** 2)


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
