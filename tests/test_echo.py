"""Witness and echo: overlap order parameter, RK4 evolution, echo traces."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from dimerphase import (
    AmbiguousRegimeError,
    DriveSchedule,
    EchoTrace,
    Eigenstate,
    InvalidStateError,
    ModelDegenerateError,
    ModelParams,
    StepSizeError,
    circular_drive,
    evolve_nonlinear,
    loschmidt_adiabatic,
    loschmidt_adiabatic_limit,
    loschmidt_dynamical,
    nonlinearity_witness,
    stationary_states,
    trace_mean,
    zero_drive,
)
from dimerphase.echo import _pair_witness
from dimerphase.model import TWO_PI, _apply, _overlap_parts, stationary_arrays

RIGHT_ANGLE = math.pi / 2.0


def _state(a1, a2):
    return Eigenstate(complex(a1), complex(a2), 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# witness


def test_witness_linear_model_is_zero():
    rep = nonlinearity_witness(ModelParams(R=0.0, c=0.0, v=1.0))
    assert rep.witness == pytest.approx(0.0, abs=1e-12)


def test_witness_below_critical_coupling():
    rep = nonlinearity_witness(ModelParams(R=0.0, c=1.0, v=0.5))
    assert rep.witness == pytest.approx(0.5, abs=1e-9)
    assert rep.pair_energies[0] == pytest.approx(-0.5, abs=1e-9)
    assert rep.pair_energies[1] == pytest.approx(-0.5, abs=1e-9)


def test_witness_above_critical_coupling():
    rep = nonlinearity_witness(ModelParams(R=0.0, c=1.0, v=2.0))
    assert rep.witness == pytest.approx(0.0, abs=1e-9)


def test_pair_witness_is_elementwise_and_keeps_nan():
    # The grid's witness column: one call on the two lowest columns of the
    # kernel's arrays gives each point's nonlinearity_witness, and NaN where
    # a point has fewer than two states (the fully degenerate origin here).
    R, v = [0.0, 0.3, 0.0, 0.0], [0.5, 0.8, 2.0, 0.0]
    states = stationary_arrays(R, v, 0.0, 1.0)
    w = _pair_witness(states.amp1[:, 0], states.amp2[:, 0], states.amp1[:, 1], states.amp2[:, 1])
    witness = [nonlinearity_witness(ModelParams(Rk, 1.0, vk)).witness for Rk, vk in zip(R, v[:3])]
    assert w[:3].tolist() == witness
    assert np.isnan(w[3])


@pytest.mark.parametrize("v", [0.1, 0.3, 0.7, 0.9])
def test_witness_reads_coupling_ratio(v):
    rep = nonlinearity_witness(ModelParams(R=0.0, c=1.0, v=v))
    assert rep.witness == pytest.approx(v, abs=1e-9)


def test_witness_biased_point_is_bounded():
    rep = nonlinearity_witness(ModelParams(R=2.0, c=1.0, v=3.0))
    assert 0.0 <= rep.witness <= 1.0
    assert rep.pair_energies[0] <= rep.pair_energies[1]


def test_witness_needs_a_pair(monkeypatch):
    import dimerphase.echo as echo_mod
    from dimerphase.model import StationaryFamily

    params = ModelParams(R=0.0, c=1.0, v=0.5)
    single = StationaryFamily(params=params, states=(_state(1.0, 0.0),))
    monkeypatch.setattr(echo_mod, "stationary_states", lambda p: single)
    with pytest.raises(ModelDegenerateError):
        nonlinearity_witness(params)


# ---------------------------------------------------------------------------
# adiabatic echo levels


def test_adiabatic_equator_no_overlap():
    assert loschmidt_adiabatic(RIGHT_ANGLE, 0.0) == 0.5


def test_adiabatic_pole_is_full_recovery():
    for s in (0.0, 0.4, 1.0):
        assert loschmidt_adiabatic(0.0, s) == pytest.approx(1.0)


def test_adiabatic_equator_with_overlap():
    assert loschmidt_adiabatic(RIGHT_ANGLE, 0.5) == pytest.approx(0.75)


def test_adiabatic_antipode_no_overlap():
    assert loschmidt_adiabatic(math.pi, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_adiabatic_range_and_validation():
    rng = np.random.default_rng(3)
    for _ in range(100):
        val = loschmidt_adiabatic(rng.uniform(0.0, math.pi), rng.uniform(0.0, 1.0))
        assert 0.0 <= val <= 1.0
    with pytest.raises(ValueError):
        loschmidt_adiabatic(1.0, -0.2)
    with pytest.raises(ValueError):
        loschmidt_adiabatic(1.0, 1.2)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_adiabatic_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta"):
        loschmidt_adiabatic(theta, 0.5)


@pytest.mark.parametrize("theta", [4.0, -1.0, -1e-300, math.pi + 1e-12])
def test_adiabatic_rejects_theta_outside_zero_pi(theta):
    # The rule FrameLoop, circular_drive and the CLI apply to a drive angle.
    with pytest.raises(ValueError, match="theta"):
        loschmidt_adiabatic(theta, 0.3)


def test_adiabatic_limit_regimes():
    assert loschmidt_adiabatic_limit(0.3, -1.0) == pytest.approx(0.09)
    assert loschmidt_adiabatic_limit(0.3, 2.0) == 1.0
    assert loschmidt_adiabatic_limit(0.0, -1.0) == 0.0
    with pytest.raises(AmbiguousRegimeError):
        loschmidt_adiabatic_limit(0.5, 0.0)
    with pytest.raises(ValueError):
        loschmidt_adiabatic_limit(1.5, 1.0)


def test_adiabatic_limit_rejects_nan_ordering():
    # nan fails both sign tests; it is bad input, not the equator.
    with pytest.raises(ValueError, match="ordering"):
        loschmidt_adiabatic_limit(0.3, math.nan)


# ---------------------------------------------------------------------------
# drives


def test_circular_drive_validation():
    base = ModelParams(R=0.0, c=0.0, v=1.0)
    with pytest.raises(ValueError):
        circular_drive(base, 1.0, -0.1, 10.0)
    with pytest.raises(ValueError):
        circular_drive(base, 1.0, 3.3, 10.0)
    with pytest.raises(ValueError):
        circular_drive(base, 1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "amplitude, total_time",
    [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)],
)
def test_circular_drive_rejects_non_finite(amplitude, total_time):
    base = ModelParams(R=0.0, c=1.0, v=1.0)
    with pytest.raises(ValueError):
        circular_drive(base, amplitude, 1.0, total_time)


@pytest.mark.parametrize("total_time", [0.0, -1.0, math.nan, math.inf])
def test_drives_reject_bad_duration(total_time):
    # One check in DriveSchedule serves every drive, the zero drive included.
    base = ModelParams(R=0.0, c=1.0, v=1.0)
    for build in (
        lambda: zero_drive(base, total_time),
        lambda: circular_drive(base, 0.0, 1.0, total_time),
        lambda: DriveSchedule(base, 1.0, 1.0, total_time),
    ):
        with pytest.raises(ValueError, match="total_time"):
            build()


def test_circular_drive_zero_amplitude_is_zero_drive():
    # At A = 0 the phase does not wind, whatever the polar angle.
    base = ModelParams(R=0.2, c=0.5, v=1.0, phi=0.3)
    times = np.array([0.0, 3.7, 10.0])
    for theta in (0.0, 1.0, math.pi):
        drive = circular_drive(base, 0.0, theta, 10.0)
        for t in times:
            assert drive.params_at(t) == base
        assert (drive.R, drive.v) == (base.R, base.v)
        assert drive.samples(times).tobytes() == zero_drive(base, 10.0).samples(times).tobytes()


def test_circular_drive_closes():
    base = ModelParams(R=0.1, c=0.3, v=0.8, phi=0.4)
    drive = circular_drive(base, 0.5, 1.1, 20.0)
    start, end = drive.params_at(0.0), drive.params_at(20.0)
    assert end.R == pytest.approx(start.R, abs=1e-12)
    assert end.v == pytest.approx(start.v, abs=1e-12)
    assert end.phi == pytest.approx(start.phi, abs=1e-12)


def test_circular_drive_offsets_follow_polar_angle():
    base = ModelParams(R=0.0, c=0.0, v=1.0)
    drive = circular_drive(base, 2.0, math.pi / 3.0, 10.0)
    assert drive.R == pytest.approx(2.0 * math.cos(math.pi / 3.0))
    assert drive.v - 1.0 == pytest.approx(2.0 * math.sin(math.pi / 3.0))


def test_drive_rejects_negative_coupling():
    # When it is built, not when a sample is taken.  At theta = pi, sin(theta)
    # rounds to 1.2e-16, and v = 0 - 1.2e-16 is negative.
    for v, amplitude, theta in ((0.5, -1.0, RIGHT_ANGLE), (0.5, -0.6, 1.0), (0.0, -1.0, math.pi)):
        with pytest.raises(ValueError, match="drive made the coupling negative"):
            circular_drive(ModelParams(R=0.0, c=0.0, v=v), amplitude, theta, 1.0)
    # A coupling driven to exactly 0 is allowed.
    drive = circular_drive(ModelParams(R=0.0, c=0.0, v=0.5), -0.5, RIGHT_ANGLE, 1.0)
    assert drive.v == 0.0


@pytest.mark.parametrize(
    "base, theta, name",
    [
        (ModelParams(R=1e308, c=0.0, v=1.0), 0.0, "R"),
        (ModelParams(R=0.0, c=0.0, v=1e308), RIGHT_ANGLE, "v"),
    ],
    ids=["R", "v"],
)
def test_drive_rejects_parameters_that_overflow_when_built(base, theta, name):
    # 1e308 + 1e308 is inf: the drive is rejected before any sample is taken.
    with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
        circular_drive(base, 1e308, theta, 1.0)


def _drive_reference(drive, t):
    """(R, v, e^{i phi}) of a drive at one time, from its four fields in Python floats."""
    base, amplitude, theta = drive.base, drive.amplitude, drive.polar_angle
    R = base.R + amplitude * math.cos(theta)
    v = base.v + amplitude * math.sin(theta)
    u = t / drive.total_time
    phi = (base.phi + (TWO_PI * u - math.sin(TWO_PI * u))) % TWO_PI if amplitude else base.phi
    return R, v, cmath.exp(1j * (0.0 if phi == TWO_PI else phi))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    R=st.floats(-5.0, 5.0),
    c=st.floats(0.0, 5.0),
    v=st.floats(0.0, 5.0),
    phi=st.floats(-10.0, 10.0),
    amplitude=st.floats(-3.0, 3.0),
    theta=st.floats(0.0, math.pi),
    total_time=st.floats(0.1, 100.0),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
)
def test_drive_samples_equal_params_at(R, c, v, phi, amplitude, theta, total_time, fractions):
    # The constant R and v, the phase factors of samples and params_at all
    # equal the drive's closed form in Python floats, bit for bit.
    base = ModelParams(R, c, v, phi)
    if v + amplitude * math.sin(theta) < 0.0:
        with pytest.raises(ValueError, match="coupling negative"):
            circular_drive(base, amplitude, theta, total_time)
        return
    drive = circular_drive(base, amplitude, theta, total_time)
    times = [f * total_time for f in fractions]
    phases = drive.samples(np.array(times))
    assert phases.shape == (len(times),)
    for t, e in zip(times, phases.tolist()):
        R_ref, v_ref, e_ref = _drive_reference(drive, t)
        got = [x.hex() for x in (drive.R, drive.v, e.real, e.imag)]
        assert got == [x.hex() for x in (R_ref, v_ref, e_ref.real, e_ref.imag)]
        p = drive.params_at(t)
        assert (p.R, p.c, p.v, cmath.exp(1j * p.phi)) == (drive.R, c, drive.v, e)


def test_drive_phase_that_rounds_to_two_pi_is_stored_as_zero():
    # Just before t = 0 the winding is -1.7e-16, and 0 plus it reduces to
    # 2*pi - 1.7e-16, which rounds to 2*pi: stored as 0, as ModelParams does.
    drive = circular_drive(ModelParams(R=0.0, c=1.0, v=1.0), 1.0, 1.0, TWO_PI)
    assert drive.params_at(-1e-5).phi == 0.0
    assert drive.samples(np.array([-1e-5])).tolist() == [1.0 + 0.0j]


@pytest.mark.parametrize(
    "amplitude, theta, rejected",
    [(0.5, 1.0, False), (-2.0, RIGHT_ANGLE, True)],
    ids=["offset-in-R-and-v", "coupling-turns-negative"],
)
def test_drive_samples_of_constant_and_custom_offsets(amplitude, theta, rejected):
    # The offsets dR = A cos(theta), dv = A sin(theta) are the drive's
    # constant R and v; samples gives the winding phase alone.  An offset
    # that turns the coupling negative (v = 0.5 - 2) is rejected when the
    # drive is built, before any sample is taken.
    base, T = ModelParams(R=0.1, c=0.4, v=0.5), 2.0
    if rejected:
        with pytest.raises(ValueError, match="^drive made the coupling negative$"):
            DriveSchedule(base, amplitude, theta, T)
        return
    times = [0.0, 0.1, 0.3, 0.7, 1.9, 2.0]
    drive = DriveSchedule(base, amplitude, theta, T)
    assert drive.R == base.R + amplitude * math.cos(theta)
    assert drive.v == base.v + amplitude * math.sin(theta)
    phases = [_drive_reference(drive, t)[2] for t in times]
    assert drive.samples(np.array(times)).tolist() == phases


# ---------------------------------------------------------------------------
# integrator


def test_evolve_matches_matrix_exponential_when_linear():
    base = ModelParams(R=0.7, c=0.0, v=1.3, phi=0.9)
    T, dt = 10.0, 1e-3
    times, traj = evolve_nonlinear(_state(1.0, 0.0), zero_drive(base, T), dt)
    h = 0.5 * base.v * cmath.exp(1j * base.phi)
    H = np.array([[0.5 * base.R, h], [h.conjugate(), -0.5 * base.R]])
    expect = scipy.linalg.expm(-1j * H * T) @ np.array([1.0, 0.0])
    assert times[-1] == pytest.approx(T)
    np.testing.assert_allclose(traj[-1], expect, atol=1e-8)


def test_evolve_keeps_populations_without_coupling():
    base = ModelParams(R=0.9, c=1.4, v=0.0)
    _, traj = evolve_nonlinear(_state(0.6, 0.8), zero_drive(base, 5.0), 1e-3)
    np.testing.assert_allclose(np.abs(traj[:, 0]), 0.6, atol=1e-10)
    np.testing.assert_allclose(np.abs(traj[:, 1]), 0.8, atol=1e-10)


def test_evolve_keeps_stationary_state():
    params = ModelParams(R=0.4, c=0.9, v=1.1)
    st = stationary_states(params).states[0]
    T = 5.0
    _, traj = evolve_nonlinear(st, zero_drive(params, T), 1e-3)
    z = st.amp1.conjugate() * traj[-1][0] + st.amp2.conjugate() * traj[-1][1]
    assert abs(z) == pytest.approx(1.0, abs=1e-8)
    # The only motion is the dynamical phase exp(-i E T).
    assert abs(z * cmath.exp(1j * st.energy * T) - 1.0) < 1e-6


def test_evolve_stays_normalized():
    base = ModelParams(R=0.3, c=1.2, v=0.9, phi=1.7)
    _, traj = evolve_nonlinear(_state(0.8, 0.6j), zero_drive(base, 3.0), 1e-3)
    np.testing.assert_allclose(np.sum(np.abs(traj) ** 2, axis=1), 1.0, atol=1e-12)


def test_evolve_rejects_oversized_step():
    base = ModelParams(R=3.0, c=0.0, v=4.0)
    with pytest.raises(StepSizeError):
        evolve_nonlinear(_state(1.0, 0.0), zero_drive(base, 10.0), 5.0)


def test_evolve_rejects_non_finite_norm():
    # The first stage overflows to inf and the later ones to nan; a nan norm
    # must fail the drift check instead of filling the trajectory with nan.
    base = ModelParams(R=1e200, c=0.0, v=1e200)
    with pytest.raises(StepSizeError):
        evolve_nonlinear(_state(0.6, 0.8), zero_drive(base, 1.0), 1.0)


def test_evolve_rejects_bad_dt():
    base = ModelParams(R=0.0, c=0.0, v=1.0)
    with pytest.raises(ValueError):
        evolve_nonlinear(_state(1.0, 0.0), zero_drive(base, 1.0), 0.0)
    with pytest.raises(ValueError, match="dt"):
        evolve_nonlinear(_state(1.0, 0.0), zero_drive(base, 1.0), math.nan)
    # round(T / inf) is 0 steps: without the check this ran one step of h = T.
    with pytest.raises(ValueError, match="dt"):
        evolve_nonlinear(_state(1.0, 0.0), zero_drive(base, 1.0), math.inf)


def test_evolve_rejects_a_step_count_too_large_to_store():
    # round(1 / 1e-300) steps: too many for numpy to size an array, so nothing
    # is allocated.  A count numpy sizes but cannot allocate raises the same.
    base = ModelParams(R=0.0, c=0.0, v=1.0)
    with pytest.raises(ValueError, match=r"dt=1e-300 splits T=1\.0 into 1e\+300 steps"):
        evolve_nonlinear(_state(1.0, 0.0), zero_drive(base, 1.0), 1e-300)


def test_step_size_error_names_the_step_end_in_a_later_block():
    # At dt = 0.07 the drift passes the limit at the end of step 1226, in the
    # second 1024-step block; the error names that step's end time.
    base = ModelParams(R=0.0, c=1.0, v=1.0)
    drive = circular_drive(base, 1.0, RIGHT_ANGLE, 300.0)
    with pytest.raises(StepSizeError, match=r"norm drifted by 1\.001e-06 at t=85\.8143$"):
        evolve_nonlinear(stationary_states(base).states[0], drive, 0.07)


def test_step_size_error_names_the_first_time_the_drift_adds_up_past_the_limit():
    # At dt = 0.1 each step drifts the norm by about 7.5e-9, far below the
    # limit; the drift accumulates and passes 1e-6 at t = 13.4 of 20.
    base = ModelParams(R=0.0, c=1.0, v=1.0)
    drive = circular_drive(base, 1.0, RIGHT_ANGLE, 20.0)
    with pytest.raises(StepSizeError, match=r"norm drifted by 1\.0\d\de-06 at t=13\.4$"):
        evolve_nonlinear(stationary_states(base).states[0], drive, 0.1)


def _rk4_reference(initial, drive, dt):
    """The RK4 integrator with the drive's closed form at each stage time, as a reference."""
    T = drive.total_time
    n_steps = max(1, round(T / dt))
    h = T / n_steps
    a1, a2 = complex(initial.amp1), complex(initial.amp2)
    norm = math.hypot(a1.real, a1.imag, a2.real, a2.imag)
    a1, a2 = a1 / norm, a2 / norm
    out = [(a1, a2)]
    for k in range(n_steps):
        t = k * h
        s0, s1, s2 = (
            (R, drive.base.c, v, phase)
            for R, v, phase in (_drive_reference(drive, s) for s in (t, t + 0.5 * h, t + h))
        )
        f1, f2 = _apply(*s0, a1, a2)
        k1a, k1b = -1j * f1, -1j * f2
        f1, f2 = _apply(*s1, a1 + 0.5 * h * k1a, a2 + 0.5 * h * k1b)
        k2a, k2b = -1j * f1, -1j * f2
        f1, f2 = _apply(*s1, a1 + 0.5 * h * k2a, a2 + 0.5 * h * k2b)
        k3a, k3b = -1j * f1, -1j * f2
        f1, f2 = _apply(*s2, a1 + h * k3a, a2 + h * k3b)
        k4a, k4b = -1j * f1, -1j * f2
        a1 = a1 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        a2 = a2 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        out.append((a1, a2))
    return np.linspace(0.0, T, n_steps + 1), np.array(out)


@pytest.mark.parametrize("n_steps", [1, 1023, 1024, 1025, 2049])
def test_evolve_matches_per_step_reference(n_steps):
    # Step counts around the sampling block's 1024 steps.
    base = ModelParams(R=0.3, c=1.0, v=0.8, phi=0.2)
    initial = stationary_states(base).states[0]
    dt = 0.002
    drive = circular_drive(base, 0.6, 1.1, n_steps * dt)
    times, traj = evolve_nonlinear(initial, drive, dt)
    ref_times, ref_traj = _rk4_reference(initial, drive, dt)
    assert len(times) == n_steps + 1
    assert times.tobytes() == ref_times.tobytes()
    assert traj.tobytes() == ref_traj.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(
    base=st.one_of(
        st.just((0.0, 0.0, 0.0)),
        st.tuples(
            st.floats(-2.0, 2.0),
            st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
            st.floats(0.0, 2.0),
        ),
    ),
    amps=st.one_of(st.just((1.0, 0.0, 0.0, 0.0)), st.tuples(*[st.floats(-1.0, 1.0)] * 4)),
    amplitude=st.floats(0.0, 1.5),
    theta=st.floats(0.0, math.pi),
    n_steps=st.integers(1, 2100),
)
@example(base=(0.0, 0.0, 0.0), amps=(1.0, 0.0, 0.0, 0.0), amplitude=1.0, theta=1.0, n_steps=1500)
@example(base=(0.3, 0.0, 0.8), amps=(0.6, 0.0, 0.0, 0.8), amplitude=0.5, theta=2.0, n_steps=1025)
def test_evolve_matches_per_step_reference_everywhere(base, amps, amplitude, theta, n_steps):
    # Any base, the fully degenerate origin and c = 0 included, any initial
    # state, any drive, and step counts on both sides of the 1024-step block.
    assume(math.hypot(*amps) > 1e-3)
    initial = _state(complex(amps[0], amps[1]), complex(amps[2], amps[3]))
    dt = 0.002
    drive = circular_drive(ModelParams(*base), amplitude, theta, n_steps * dt)
    times, traj = evolve_nonlinear(initial, drive, dt)
    ref_times, ref_traj = _rk4_reference(initial, drive, dt)
    assert times.tobytes() == ref_times.tobytes()
    assert traj.tobytes() == ref_traj.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    base=st.tuples(
        st.sampled_from([0.0, 0.5, -1.0]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 0.8]),
        st.sampled_from([0.0, 2.0, 4.0, 5.5]),
    ),
    amps=st.tuples(*[st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.6, -0.6])] * 4),
)
def test_evolve_matches_per_step_reference_on_signed_zeros(base, amps):
    # Zero and subnormal amplitude parts, with a coupling phase in each
    # quadrant, at bases that keep some parts zero: v = 0 decouples a zero
    # amplitude, and H(psi) psi = 0 at the origin (or at R = v = 0 with equal
    # populations) keeps every part.  The values always agree, and so do the
    # bytes, except for the sign of a part that starts as -0.0 while it stays
    # zero: the complex step's 0.0 * y terms can flip it, and the float step
    # has no such terms.
    # A state of subnormals alone does not normalize to norm 1 (its hypot rounds).
    assume(max(map(abs, amps)) == 0.6)
    initial = _state(complex(amps[0], amps[1]), complex(amps[2], amps[3]))
    drive = zero_drive(ModelParams(*base), 0.03)
    _, traj = evolve_nonlinear(initial, drive, 0.01)
    _, ref_traj = _rk4_reference(initial, drive, 0.01)
    got, want = traj.view(float), ref_traj.view(float)
    assert np.array_equal(got, want)
    differ = got.view(np.int64) != want.view(np.int64)
    assert not np.any(differ & ~(np.signbit(want[0]) & (want[0] == 0.0)))


@pytest.mark.parametrize(
    "amplitudes",
    [
        (0.0, 0.0),
        (math.nan, 0.0),
        (1.0, complex(0.0, math.nan)),
        (math.inf, 0.0),
        # The norm of these parts rounds to 5e-324, and dividing by it gives (1, 1).
        (0.0, complex(5e-324, 5e-324)),
    ],
    ids=["zero", "nan", "nan-imaginary", "inf", "subnormal"],
)
def test_evolve_rejects_zero_or_non_finite_initial_state(amplitudes):
    # Not a step-size problem: the state is bad before the first step.
    base = ModelParams(R=0.3, c=1.0, v=0.8)
    with pytest.raises(InvalidStateError, match="norm"):
        evolve_nonlinear(_state(*amplitudes), zero_drive(base, 1.0), 0.01)


def test_evolve_normalizes_large_initial_state_without_overflow():
    # |1e200|^2 overflows; the hypot norm does not, and the state normalizes to (1, 0).
    drive = circular_drive(ModelParams(R=0.3, c=1.0, v=0.8), 0.5, 1.0, 1.0)
    _, big = evolve_nonlinear(_state(1e200, 0.0), drive, 0.01)
    _, unit = evolve_nonlinear(_state(1.0, 0.0), drive, 0.01)
    assert big.tobytes() == unit.tobytes()


def test_echo_rejects_zero_initial_state():
    # The zero vector has residual 0 for any energy, so it passes the
    # stationarity check; it must not reach a division by its norm.
    drive = circular_drive(ModelParams(R=0.0, c=0.0, v=0.0), 1.0, 1.0, 1.0)
    with pytest.raises(InvalidStateError, match="norm"):
        loschmidt_dynamical(Eigenstate(0j, 0j, 0.0, 0.0, 0.0), drive, 0.01)


# ---------------------------------------------------------------------------
# echo traces


def test_echo_zero_drive_is_unity():
    base = ModelParams(R=0.3, c=0.8, v=1.1)
    initial = stationary_states(base).states[0]
    trace = loschmidt_dynamical(initial, zero_drive(base, 5.0), 1e-2)
    np.testing.assert_allclose(trace.values, 1.0, atol=1e-10)


def test_echo_overlap_rounds_as_python_complex_arithmetic():
    # numpy's complex product may fuse a multiply and an add on some CPUs;
    # the echo's overlap, taken as Python rounds it, does not depend on the machine.
    base = ModelParams(R=0.0, c=1.0, v=0.5)
    initial = stationary_states(base).states[0]
    drive = circular_drive(base, 0.3, 1.0, 20.0)
    trace = loschmidt_dynamical(initial, drive, 0.002)
    _, traj = evolve_nonlinear(initial, drive, 0.002)
    a1, a2 = traj[0].tolist()
    moduli = [abs(complex(*_overlap_parts(a1, a2, b1, b2))) for b1, b2 in traj.tolist()]
    assert trace.values.tobytes() == (np.array(moduli) ** 2).tobytes()


def test_echo_rejects_non_stationary_state():
    base = ModelParams(R=0.3, c=0.8, v=1.1)
    with pytest.raises(InvalidStateError):
        loschmidt_dynamical(_state(1.0, 0.0), zero_drive(base, 5.0), 1e-2)


def test_echo_accepts_stationary_state_at_large_bias():
    # At R = 1e8 rounding alone leaves a residual of 7.5e-9 > 1e-9; the
    # stationarity check scales with max(1, |R|, c, v) as the solver's does.
    base = ModelParams(R=1e8, c=1.0, v=1.0)
    trace = loschmidt_dynamical(stationary_states(base).states[0], zero_drive(base, 1e-9), 1e-11)
    np.testing.assert_allclose(trace.values, 1.0, atol=1e-10)


def _two_flow_echo(initial, drive, times):
    """|<psi_base(t)|psi_pert(t)>|^2 from two DOP853 runs, undriven and driven."""

    def rhs(schedule):
        def f(t, psi):
            R, v, phase = _drive_reference(schedule, t)
            m = abs(psi[1]) ** 2 - abs(psi[0]) ** 2
            diag = 0.5 * (R + schedule.base.c * m)
            coup = 0.5 * v * phase
            return -1j * np.array(
                [diag * psi[0] + coup * psi[1], coup.conjugate() * psi[0] - diag * psi[1]]
            )

        return f

    def run(schedule):
        sol = solve_ivp(
            rhs(schedule), (0.0, times[-1]), initial.amplitudes, method="DOP853",
            t_eval=times, rtol=1e-12, atol=1e-13,
        )
        return sol.y

    base = run(zero_drive(drive.base, drive.total_time))
    pert = run(drive)
    return np.abs(np.sum(np.conj(base) * pert, axis=0)) ** 2


@pytest.mark.parametrize(
    "R, c, v",
    [(0.5, 1.0, 0.3), (0.0, 2.0, 1.0)],
    ids=["biased", "self-trapped"],
)
def test_echo_matches_two_flow_reference(R, c, v):
    base = ModelParams(R=R, c=c, v=v)
    initial = stationary_states(base).states[0]
    assert abs(initial.imbalance) > 0.1
    drive = circular_drive(base, 1.0, 1.0, 2.0)
    trace = loschmidt_dynamical(initial, drive, 0.002)
    reference = _two_flow_echo(initial, drive, trace.times)
    assert np.max(np.abs(trace.values - reference)) < 1e-9


@pytest.mark.parametrize(
    "name, base, initial, bound",
    [
        ("echo", ModelParams(R=0.0, c=1.0, v=1.0), None, 4.8e-9),
        ("echo_degenerate", ModelParams(R=0.0, c=0.0, v=0.0), _state(1.0, 0.0), 1.18e-9),
    ],
)
def test_golden_echo_matches_two_flow_reference(name, base, initial, bound):
    # The golden echo runs (T = 1, dt = 0.01 and the CLI's default drive)
    # against DOP853.  The bounds, 4.79e-9 and 1.17e-9 rounded up, are the
    # errors of RK4 with a renormalization after every step: the scheme
    # without it must be no less accurate.
    initial = initial or stationary_states(base).states[0]
    drive = circular_drive(base, 1.0, RIGHT_ANGLE, 1.0)
    times, values = np.loadtxt(
        Path(__file__).parent / "golden" / f"{name}.csv", delimiter=",", skiprows=1
    ).T
    assert np.max(np.abs(values - _two_flow_echo(initial, drive, times))) < bound


def test_echo_diagonal_drive_is_unity():
    # A polar drive (theta = 0) only detunes; with no coupling anywhere the
    # started basis state never mixes and the moduli agree at all times.
    base = ModelParams(R=0.0, c=0.0, v=0.0)
    drive = circular_drive(base, 1.0, 0.0, 20.0)
    trace = loschmidt_dynamical(_state(1.0, 0.0), drive, 2e-3)
    np.testing.assert_allclose(trace.values, 1.0, atol=1e-6)


def test_echo_trace_shape_and_bounds():
    base = ModelParams(R=0.0, c=0.0, v=0.0)
    drive = circular_drive(base, 1.0, RIGHT_ANGLE, 10.0)
    trace = loschmidt_dynamical(_state(1.0, 0.0), drive, 2e-3)
    assert trace.values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(trace.times) > 0)
    assert np.all(trace.values >= 0.0)
    assert np.all(trace.values <= 1.0 + 1e-9)


def test_echo_equator_mean_approaches_half():
    base = ModelParams(R=0.0, c=0.0, v=0.0)
    drive = circular_drive(base, 1.0, RIGHT_ANGLE, 50.0)
    trace = loschmidt_dynamical(_state(1.0, 0.0), drive, 2e-3)
    assert trace_mean(trace) == pytest.approx(0.5, abs=1e-3)


def test_trace_mean_of_constant_trace():
    t = np.linspace(0.0, 4.0, 101)
    assert trace_mean(EchoTrace(t, np.full_like(t, 0.37))) == pytest.approx(0.37)


def test_trace_mean_rejects_zero_span():
    with pytest.raises(ValueError):
        trace_mean(EchoTrace(np.array([0.0]), np.array([1.0])))
