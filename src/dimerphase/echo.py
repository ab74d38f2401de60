"""Degeneracy diagnostics: nonlinearity witness and Loschmidt echo.

The witness is the overlap modulus of the two lowest stationary states.  In a
linear model degenerate states can be orthogonalized, so any nonzero overlap
of a degenerate pair is an order parameter for nonlinearity; on the dimer's
bias-free degeneracy it equals v/c below the critical coupling and drops to
zero above it.

The echo compares evolution under a base Hamiltonian with evolution under a
slowly driven perturbation of it, L(t) = |<psi_pert(t)|psi_base(t)>|^2.  For
an adiabatic drive the surviving branch population is

    L = |cos(theta/2) + sin(theta/2) s|^2 / (1 + sin(theta) s),

drive-amplitude independent, equal to 1/2 on the equator for s = 0.  The
dynamical trace oscillates around that level through the residual dynamical
phase between the split branches; time-averaging recovers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AmbiguousRegimeError, ModelDegenerateError, StepSizeError
from .model import (
    TWO_PI,
    Eigenstate,
    ModelParams,
    _apply,
    _check_overlap,
    state_overlap,
    stationary_states,
)

# One-step norm drift above this aborts the integration: the step is too big
# for the classical fourth-order scheme to be trusted.
_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class WitnessReport:
    """Witness value at one parameter point, with the pair it was read from."""

    params: ModelParams
    pair_energies: tuple[float, float]
    witness: float


@dataclass(frozen=True)
class DriveSchedule:
    """Time-dependent parameter offsets applied on top of a base point.

    perturbation(t) returns (dR, dv, dphi) for t in [0, total_time].  Closed
    drives return to their starting offsets at t = total_time, modulo 2*pi in
    the phase component.
    """

    base: ModelParams
    perturbation: Callable[[float], tuple[float, float, float]]
    total_time: float

    def params_at(self, t: float) -> ModelParams:
        dR, dv, dphi = self.perturbation(t)
        v = self.base.v + dv
        if v < 0.0:
            raise ValueError(f"drive made the coupling negative at t={t!r}")
        return ModelParams(
            R=self.base.R + dR,
            c=self.base.c,
            v=v,
            phi=(self.base.phi + dphi) % TWO_PI,
        )


@dataclass(frozen=True)
class EchoTrace:
    """Echo samples L(t_k); starts at exactly 1 and stays within [0, 1 + 1e-9]."""

    times: np.ndarray
    values: np.ndarray


def zero_drive(base: ModelParams, total_time: float) -> DriveSchedule:
    return DriveSchedule(base, lambda t: (0.0, 0.0, 0.0), float(total_time))


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
    if total_time <= 0.0:
        raise ValueError("total_time must be positive")
    if amplitude == 0.0:
        return zero_drive(base, total_time)
    dR = amplitude * math.cos(polar_angle)
    dv = amplitude * math.sin(polar_angle)
    T = float(total_time)

    def offsets(t: float) -> tuple[float, float, float]:
        u = t / T
        return (dR, dv, TWO_PI * u - math.sin(TWO_PI * u))

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
    value = abs(state_overlap(lo, hi))
    return WitnessReport(params, (lo.energy, hi.energy), min(1.0, value))


def loschmidt_adiabatic(theta: float, overlap: float) -> float:
    """Adiabatic echo level for drive polar angle theta and pair overlap s.

    The squared half-angle sum is expanded through double-angle identities,
    (cos(t/2) + s sin(t/2))^2 = (1 + cos t)/2 + s sin t + s^2 (1 - cos t)/2,
    which keeps the equator value at s = 0 exactly 1/2 in floating point.
    """
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
    if ordering > 0.0:
        return 1.0
    if ordering < 0.0:
        return overlap * overlap
    raise AmbiguousRegimeError("ordering = 0 sits between the two limit regimes")


def evolve_nonlinear(
    initial: Eigenstate, drive: DriveSchedule, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate i d(psi)/dt = H(psi, t) psi with classical fixed-step RK4.

    The requested dt is rounded so an integer number of steps spans the drive.
    Each step is renormalized; the pre-renormalization drift is the scheme's
    own error estimate, and a drift above 1e-6 raises StepSizeError.  Returns
    (times, amplitudes) including both endpoints.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    T = drive.total_time
    n_steps = max(1, round(T / dt))
    h = T / n_steps

    a1, a2 = complex(initial.amp1), complex(initial.amp2)
    norm = math.sqrt(abs(a1) ** 2 + abs(a2) ** 2)
    a1, a2 = a1 / norm, a2 / norm

    times = np.linspace(0.0, T, n_steps + 1)
    out = np.empty((n_steps + 1, 2), dtype=complex)
    out[0] = (a1, a2)

    params_at = drive.params_at
    for k in range(n_steps):
        t = k * h
        p0 = params_at(t)
        p1 = params_at(t + 0.5 * h)
        p2 = params_at(t + h)

        # Each stage is d(psi)/dt = -i H(psi) psi, with the model's kernel called
        # directly: a wrapper around it costs one more Python call per stage.
        f1, f2 = _apply(p0, a1, a2)
        k1a, k1b = -1j * f1, -1j * f2
        f1, f2 = _apply(p1, a1 + 0.5 * h * k1a, a2 + 0.5 * h * k1b)
        k2a, k2b = -1j * f1, -1j * f2
        f1, f2 = _apply(p1, a1 + 0.5 * h * k2a, a2 + 0.5 * h * k2b)
        k3a, k3b = -1j * f1, -1j * f2
        f1, f2 = _apply(p2, a1 + h * k3a, a2 + h * k3b)
        k4a, k4b = -1j * f1, -1j * f2

        a1 = a1 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        a2 = a2 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)

        norm = math.sqrt(abs(a1) ** 2 + abs(a2) ** 2)
        if abs(norm - 1.0) > _DRIFT_LIMIT:
            raise StepSizeError(
                f"norm drifted by {abs(norm - 1.0):.3e} in one step at t={t + h:.6g}"
            )
        a1, a2 = a1 / norm, a2 / norm
        out[k + 1] = (a1, a2)
    return times, out


def loschmidt_dynamical(
    initial: Eigenstate,
    base: ModelParams,
    drive: DriveSchedule,
    dt: float,
) -> EchoTrace:
    """Echo trace between the driven flow and the undriven base flow.

    Both trajectories start from the same state; the base one is also
    integrated (not replaced by a phase factor) so the comparison is between
    two runs of the same integrator.
    """
    t_base, traj_base = evolve_nonlinear(initial, zero_drive(base, drive.total_time), dt)
    t_pert, traj_pert = evolve_nonlinear(initial, drive, dt)
    inner = np.sum(np.conj(traj_pert) * traj_base, axis=1)
    values = np.abs(inner) ** 2
    return EchoTrace(t_base, values)


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
