"""Geometric phases: frames, loop quadratures, closed forms, discrete loops."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimerphase import (
    Eigenstate,
    FrameLoop,
    InvalidStateError,
    LoopTooCoarseError,
    ModelParams,
    NearSingularLoopError,
    SingularLimitError,
    berry_phase_closed_form,
    berry_phase_constant_theta,
    berry_phase_discrete,
    berry_phase_perturbative,
    berry_phase_small_overlap,
    berry_phase_unit_overlap,
    continue_branch,
    frame_loop,
    phi_loop,
    solid_angle,
    stationary_states,
)
from dimerphase.berry import _companion_solid_angle, _loop_phase, _wrap

TWO_PI = 2.0 * math.pi


def wrap(x):
    return x % TWO_PI


# ---------------------------------------------------------------------------
# frames


def test_frame_rejects_bad_overlap():
    for s in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            FrameLoop(np.full(4, 0.5), np.linspace(0.0, TWO_PI, 4), s)


def test_frame_loop_requires_three_samples():
    with pytest.raises(ValueError):
        FrameLoop(np.array([0.5, 0.5]), np.array([0.0, TWO_PI]), 0.2)


def test_frame_loop_builder_validation():
    with pytest.raises(ValueError):
        frame_loop(0.5, 0.0, n_points=2)
    with pytest.raises(ValueError):
        frame_loop([0.5] * 10, 0.0, n_points=16)
    with pytest.raises(ValueError):
        frame_loop(0.5, 1.5, n_points=16)
    for bad_theta in (-0.1, math.pi + 0.1, math.nan):
        with pytest.raises(ValueError):
            frame_loop(bad_theta, 0.0, n_points=16)


def test_frame_loop_polar_samples_keep_azimuth():
    loop = frame_loop(0.0, 0.0, n_points=8)
    np.testing.assert_array_equal(loop.phis, np.linspace(0.0, TWO_PI, 9))


def test_frame_loop_theta_forms_agree():
    n = 64
    loops = [
        frame_loop(theta, 0.4, n_points=n)
        for theta in (1.1, np.full(n + 1, 1.1))
    ]
    for loop in loops[1:]:
        np.testing.assert_array_equal(loop.thetas, loops[0].thetas)
        for phase in (
            berry_phase_perturbative,
            berry_phase_small_overlap,
            berry_phase_unit_overlap,
        ):
            assert phase(loop).as_tuple() == phase(loops[0]).as_tuple()


# ---------------------------------------------------------------------------
# solid angles


def test_solid_angle_equator():
    assert solid_angle(frame_loop(math.pi / 2.0, 0.0)) == pytest.approx(TWO_PI)


def test_solid_angle_pole():
    assert solid_angle(frame_loop(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_solid_angle_sixty_degrees():
    assert solid_angle(frame_loop(math.pi / 3.0, 0.0)) == pytest.approx(math.pi)


def test_companion_solid_angle_equator():
    assert _companion_solid_angle(frame_loop(math.pi / 2.0, 0.0)) == pytest.approx(
        -TWO_PI
    )


# ---------------------------------------------------------------------------
# loop quadrature


def test_perturbative_equator_no_overlap():
    pair = berry_phase_perturbative(frame_loop(math.pi / 2.0, 0.0))
    assert pair.gamma_n == pytest.approx(math.pi, abs=1e-12)
    assert pair.gamma_n1 == pytest.approx(math.pi, abs=1e-12)


def test_perturbative_tilted_no_overlap():
    pair = berry_phase_perturbative(frame_loop(math.pi / 3.0, 0.0))
    assert pair.gamma_n == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert pair.gamma_n1 == pytest.approx(3.0 * math.pi / 2.0, abs=1e-12)


@pytest.mark.parametrize("s", [0.0, 0.3, 0.6, 0.9, 0.99])
def test_perturbative_equator_any_overlap(s):
    pair = berry_phase_perturbative(frame_loop(math.pi / 2.0, s))
    assert pair.gamma_n == pytest.approx(math.pi, abs=1e-10)
    assert pair.gamma_n1 == pytest.approx(math.pi, abs=1e-10)


def test_perturbative_guard_at_unit_overlap_equator():
    with pytest.raises(NearSingularLoopError):
        berry_phase_perturbative(frame_loop(math.pi / 2.0, 1.0))


def _smooth_theta(rng, n_points):
    """A random smooth loop profile kept away from the poles, at n_points + 1 azimuths."""
    a = rng.uniform(-0.4, 0.4, size=3)
    b = rng.uniform(-0.4, 0.4, size=3)
    base = rng.uniform(0.8, math.pi - 0.8)

    def theta(phi):
        t = base
        for k in range(3):
            t += a[k] * math.cos((k + 1) * phi) + b[k] * math.sin((k + 1) * phi)
        return min(math.pi - 0.1, max(0.1, t))

    return [theta(p) for p in np.linspace(0.0, TWO_PI, n_points + 1)]


def test_perturbative_reduces_to_half_solid_angle():
    rng = np.random.default_rng(31)
    for _ in range(50):
        loop = frame_loop(_smooth_theta(rng, 1024), 0.0, n_points=1024)
        om = solid_angle(loop)
        pair = berry_phase_perturbative(loop)
        assert pair.gamma_n == pytest.approx(wrap(0.5 * om), abs=1e-8)
        assert pair.gamma_n1 == pytest.approx(wrap(-0.5 * om), abs=1e-8)


def test_perturbative_matches_constant_theta_closed_form():
    for theta in (0.4, 1.0, 2.2):
        for s in (0.0, 0.25, 0.7):
            pair = berry_phase_perturbative(frame_loop(theta, s, n_points=512))
            ref = berry_phase_constant_theta(theta, s)
            assert pair.gamma_n == pytest.approx(ref.gamma_n, abs=1e-10)
            assert pair.gamma_n1 == pytest.approx(ref.gamma_n1, abs=1e-10)


# ---------------------------------------------------------------------------
# constant-theta closed form


def test_constant_theta_equator():
    pair = berry_phase_constant_theta(math.pi / 2.0, 0.0)
    assert pair.as_tuple() == pytest.approx((math.pi, math.pi))


def test_constant_theta_pole():
    pair = berry_phase_constant_theta(0.0, 0.0)
    assert pair.gamma_n == pytest.approx(0.0, abs=1e-12)
    assert pair.gamma_n1 == pytest.approx(0.0, abs=1e-12)


def test_constant_theta_unit_overlap_value():
    pair = berry_phase_constant_theta(math.pi / 3.0, 1.0)
    st = math.sin(math.pi / 3.0)
    expect_n = math.pi * (0.5 + st) / (1.0 + st)
    assert pair.gamma_n == pytest.approx(expect_n, abs=1e-12)
    assert pair.gamma_n == pytest.approx(2.29980543911286, abs=1e-12)
    assert pair.gamma_n1 == pytest.approx(wrap(math.pi * (1.5 - st) / (1.0 - st)))


def test_constant_theta_guard():
    with pytest.raises(NearSingularLoopError):
        berry_phase_constant_theta(math.pi / 2.0, 1.0)
    with pytest.raises(ValueError):
        berry_phase_constant_theta(1.0, 1.5)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -0.1, 4.0])
def test_constant_theta_rejects_theta_outside_zero_pi(theta):
    # The same rule as FrameLoop's: frame_loop(theta, s) rejects these too.
    with pytest.raises(ValueError, match="theta"):
        berry_phase_constant_theta(theta, 0.3)
    with pytest.raises(ValueError, match="theta"):
        frame_loop(theta, 0.3, n_points=16)


# ---------------------------------------------------------------------------
# small-overlap expansion


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_small_overlap_equator_exact_at_any_s(s):
    pair = berry_phase_small_overlap(frame_loop(math.pi / 2.0, s))
    assert pair.gamma_n == pytest.approx(math.pi, abs=1e-10)
    assert pair.gamma_n1 == pytest.approx(math.pi, abs=1e-10)


def test_small_overlap_reduces_at_zero():
    loop = frame_loop(_smooth_theta(np.random.default_rng(5), 512), 0.0, n_points=512)
    om = solid_angle(loop)
    pair = berry_phase_small_overlap(loop)
    assert pair.gamma_n == pytest.approx(wrap(0.5 * om), abs=1e-12)
    assert pair.gamma_n1 == pytest.approx(wrap(-0.5 * om), abs=1e-12)


def test_small_overlap_error_is_second_order():
    # Halving s must cut the error against the full quadrature by ~4.
    theta = math.pi / 3.0

    def err(s):
        loop = frame_loop(theta, s, n_points=512)
        approx = berry_phase_small_overlap(loop)
        exact = berry_phase_constant_theta(theta, s)
        return abs(approx.gamma_n - exact.gamma_n)

    ratio = err(0.02) / err(0.01)
    assert ratio >= 3.5


# ---------------------------------------------------------------------------
# unit-overlap limit


def test_unit_overlap_matches_constant_theta_limit():
    for theta in (math.pi / 6.0, math.pi / 3.0, 2.5):
        pair = berry_phase_unit_overlap(frame_loop(theta, 1.0, n_points=256))
        ref = berry_phase_constant_theta(theta, 1.0)
        assert pair.gamma_n == pytest.approx(ref.gamma_n, abs=1e-10)
        assert pair.gamma_n1 == pytest.approx(ref.gamma_n1, abs=1e-10)


def test_unit_overlap_tilted_value():
    pair = berry_phase_unit_overlap(frame_loop(math.pi / 4.0, 1.0, n_points=256))
    c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    assert pair.gamma_n == pytest.approx(math.pi * (1.0 - c / (1.0 + s)), abs=1e-10)
    assert pair.gamma_n1 == pytest.approx(wrap(math.pi * (1.0 + c / (1.0 - s))), abs=1e-10)


def test_unit_overlap_pole():
    pair = berry_phase_unit_overlap(frame_loop(0.0, 1.0))
    assert pair.gamma_n == pytest.approx(0.0, abs=1e-12)
    assert pair.gamma_n1 == pytest.approx(0.0, abs=1e-12)


def test_unit_overlap_singular_on_equator():
    with pytest.raises(SingularLimitError):
        berry_phase_unit_overlap(frame_loop(math.pi / 2.0, 1.0))
    with pytest.raises(SingularLimitError):
        berry_phase_unit_overlap(frame_loop(math.pi / 2.0 - 1e-9, 1.0))


# ---------------------------------------------------------------------------
# dimer closed form


def test_closed_form_half_filled_band():
    assert berry_phase_closed_form(2.0, -1.0, 0.0) == pytest.approx(math.pi)


def test_closed_form_partial():
    assert berry_phase_closed_form(1.2, -1.0, -0.8) == pytest.approx(0.2 * math.pi)


def test_closed_form_matches_tilt_geometry():
    got = berry_phase_closed_form(1.0, -math.sqrt(2.0) / 2.0, -math.sqrt(0.5))
    assert got == pytest.approx(math.pi * (1.0 - 1.0 / math.sqrt(2.0)))


def test_closed_form_zero_coupling():
    assert berry_phase_closed_form(0.0, -1.0, -1.0) == 0.0


def test_closed_form_rejects_unphysical_energy():
    with pytest.raises(InvalidStateError):
        berry_phase_closed_form(2.0, 0.0, 0.0)
    with pytest.raises(InvalidStateError):
        berry_phase_closed_form(2.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        berry_phase_closed_form(-1.0, 1.0, 0.0)


@pytest.mark.parametrize(
    "v, energy, imbalance, name",
    [
        (1.0, math.nan, 0.5, "energy"),
        (math.nan, -1.0, 0.5, "v"),
        (1.0, math.inf, 0.5, "energy"),
        (1.0, -1.0, math.nan, "imbalance"),
        (math.inf, -1.0, 0.5, "v"),
        (1.0, -1.0, -math.inf, "imbalance"),
    ],
)
def test_closed_form_rejects_non_finite(v, energy, imbalance, name):
    with pytest.raises(ValueError, match=name):
        berry_phase_closed_form(v, energy, imbalance)


def _closed_form_reference(v, energy, imbalance):
    """The loop phase of one finite point in Python floats; None where it is no
    stationary state, or where 4 E^2 rounds to 0 and cannot divide."""
    if v == 0.0:
        return 0.0
    if 4.0 * energy * energy == 0.0 or 4.0 * energy * energy < v * v * (1.0 - 1e-12):
        return None
    radicand = max(0.0, 1.0 - (v * v) / (4.0 * energy * energy))
    y = math.fmod(math.pi * (1.0 + math.copysign(math.sqrt(radicand), imbalance)), TWO_PI)
    y = y + TWO_PI if y < 0.0 else y
    return 0.0 if TWO_PI - y < 1e-12 else y


@st.composite
def _loop_points(draw):
    """(v, E, m) with v = 0, E = 0, 4 E^2 on either side of v^2, either sign of m,
    and v and E small enough that 4 E^2 underflows or large enough that it overflows."""
    scales = (st.floats(0.0, 1e3), st.floats(0.0, 1e-150), st.floats(1e150, 1e300))
    v = draw(st.one_of(st.just(0.0), *scales))
    energy = draw(
        st.one_of(
            st.just(0.0),
            st.floats(-1e3, 1e3),
            # Across the bound 4 E^2 = v^2 (1 - 1e-12).
            st.floats(-2e-12, 2e-12).map(lambda d: 0.5 * v * (1.0 + d)),
            st.floats(-2e-12, 2e-12).map(lambda d: -0.5 * v * (1.0 + d)),
        )
    )
    imbalance = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0)))
    return v, energy, imbalance


def _closed_form_or_none(v, energy, imbalance):
    try:
        return berry_phase_closed_form(v, energy, imbalance)
    except InvalidStateError:
        return None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(points=st.lists(_loop_points(), min_size=1, max_size=12))
def test_loop_phase_on_arrays_equals_closed_form_by_point(points):
    # Bit for bit, and both equal the formula in Python floats.
    got = _loop_phase(*map(np.array, zip(*points)))
    assert got.shape == (len(points),)
    for value, point in zip(got.tolist(), points):
        want = _closed_form_or_none(*point)
        assert want == _closed_form_reference(*point)
        if want is not None:
            assert value.hex() == want.hex()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(points=st.lists(_loop_points(), min_size=1, max_size=12))
def test_loop_phase_is_nan_exactly_where_closed_form_raises(points):
    got = _loop_phase(*map(np.array, zip(*points)))
    assert np.isnan(got).tolist() == [_closed_form_or_none(*p) is None for p in points]


def test_loop_phase_of_a_row_with_no_state_is_nan():
    # A grid row with no state holds NaN energies, v = 0 (the origin) included.
    got = _loop_phase(np.array([0.0, 1.0]), np.full(2, math.nan), np.full(2, math.nan))
    assert np.isnan(got).all()


# ---------------------------------------------------------------------------
# discrete loop phase


def _ground_branch(params, n_points):
    seed = stationary_states(params).states[0]
    return continue_branch(phi_loop(params, n_points), seed)


def test_discrete_linear_dimer_loop():
    params = ModelParams(R=0.0, c=0.0, v=2.0)
    gamma = berry_phase_discrete(_ground_branch(params, 4096))
    assert gamma == pytest.approx(math.pi, abs=1e-6)


def test_discrete_degenerate_branch_loop():
    params = ModelParams(R=0.0, c=2.0, v=1.2)
    branch = _ground_branch(params, 4096)
    assert branch[0].energy == pytest.approx(-1.0, abs=1e-9)
    gamma = berry_phase_discrete(branch)
    assert gamma == pytest.approx(0.2 * math.pi, abs=1e-6)


def test_discrete_matches_closed_form_generic():
    params = ModelParams(R=0.0, c=1.0, v=0.5)
    branch = _ground_branch(params, 2048)
    expect = berry_phase_closed_form(params.v, branch[0].energy, branch[0].imbalance)
    assert berry_phase_discrete(branch) == pytest.approx(expect, abs=1e-5)


@pytest.mark.parametrize(
    "R, c, v, index",
    [(0.5, 1.0, 0.7, 0), (0.0, 2.0, 1.0, 1)],
    ids=["biased-ground-state", "self-trapped-upper-imbalance"],
)
def test_closed_form_matches_discrete_for_positive_imbalance(R, c, v, index):
    params = ModelParams(R=R, c=c, v=v)
    state = stationary_states(params).states[index]
    assert state.imbalance > 0.5
    branch = continue_branch(phi_loop(params, 2048), state)
    got = berry_phase_closed_form(v, state.energy, state.imbalance)
    assert got == pytest.approx(math.pi * (1.0 + state.imbalance), abs=1e-9)
    assert got == pytest.approx(berry_phase_discrete(branch), abs=1e-5)


def test_discrete_constant_branch_is_flat():
    st = Eigenstate(1.0 + 0.0j, 0.0j, -0.5, -1.0, 0.0)
    assert berry_phase_discrete([st] * 32) == pytest.approx(0.0, abs=1e-14)


def test_discrete_needs_enough_samples():
    st = Eigenstate(1.0 + 0.0j, 0.0j, -0.5, -1.0, 0.0)
    with pytest.raises(ValueError):
        berry_phase_discrete([st] * 15)


def test_discrete_gauge_invariance():
    params = ModelParams(R=0.3, c=0.8, v=1.1)
    branch = _ground_branch(params, 256)
    gamma = berry_phase_discrete(branch)
    rng = np.random.default_rng(17)
    regauged = [
        dataclasses.replace(
            st,
            amp1=st.amp1 * cmath.exp(1j * a),
            amp2=st.amp2 * cmath.exp(1j * a),
        )
        for st, a in zip(branch, rng.uniform(0.0, TWO_PI, size=len(branch)))
    ]
    assert berry_phase_discrete(regauged) == pytest.approx(gamma, abs=1e-12)


def test_discrete_orientation_reversal_negates():
    params = ModelParams(R=0.0, c=0.0, v=2.0)
    branch = _ground_branch(params, 256)
    fwd = berry_phase_discrete(branch)
    bwd = berry_phase_discrete(branch[::-1])
    assert wrap(fwd + bwd) == pytest.approx(0.0, abs=1e-12) or wrap(
        fwd + bwd
    ) == pytest.approx(TWO_PI, abs=1e-12)


def test_discrete_duplicate_closing_point_is_harmless():
    params = ModelParams(R=0.0, c=0.0, v=2.0)
    branch = _ground_branch(params, 128)
    assert berry_phase_discrete(branch) == pytest.approx(
        berry_phase_discrete([*branch, branch[0]]), abs=1e-12
    )


def test_discrete_rejects_coarse_loop():
    up = Eigenstate(1.0 + 0.0j, 0.0j, -0.5, -1.0, 0.0)
    down = Eigenstate(0.0j, 1.0 + 0.0j, -0.5, 1.0, 0.0)
    with pytest.raises(LoopTooCoarseError, match="modulus 0.000 between samples 0 and 1$"):
        berry_phase_discrete([up, down] * 8)
    with pytest.raises(LoopTooCoarseError, match="between samples 4 and 5$"):
        berry_phase_discrete([up] * 5 + [down] + [up] * 12)


def test_discrete_coarse_closing_pair_names_the_wrap():
    # Each step turns the state by pi/30; only the closing step is coarse.
    turn = [k * math.pi / 30.0 for k in range(16)]
    twist = [Eigenstate(complex(math.cos(a)), complex(math.sin(a)), 0.0, 0.0, 0.0) for a in turn]
    with pytest.raises(LoopTooCoarseError, match="modulus 0.000 between samples 15 and 0$"):
        berry_phase_discrete(twist)


def _sequential_phase(states):
    """The loop phase as a Python loop over the records, one cmath.phase a step."""
    total = 0.0
    for a, b in zip(states, [*states[1:], states[0]]):
        total += cmath.phase(a.amp1.conjugate() * b.amp1 + a.amp2.conjugate() * b.amp2)
    return _wrap(-total)


@pytest.mark.parametrize(
    "R, c, v",
    [(0.0, c, v) for c in (0.0, 0.5, 2.0) for v in (0.5, 1.0, 2.0)]
    + [(0.5, 1.0, 0.7), (-0.8, 1.5, 0.6), (0.3, 2.0, 0.5)],
)
def test_discrete_phase_bits_match_sequential_reference(R, c, v):
    params = ModelParams(R=R, c=c, v=v, phi=0.7)
    branch = _ground_branch(params, 256)
    records = list(branch)
    want = _sequential_phase(records).hex()
    assert berry_phase_discrete(branch).hex() == want
    assert berry_phase_discrete(records).hex() == want
    rng = np.random.default_rng(int(1000 * (R + c + v)))
    regauged = [
        dataclasses.replace(st, amp1=st.amp1 * cmath.exp(1j * a), amp2=st.amp2 * cmath.exp(1j * a))
        for st, a in zip(records, rng.uniform(0.0, TWO_PI, size=len(records)))
    ]
    assert berry_phase_discrete(regauged).hex() == _sequential_phase(regauged).hex()


def test_phase_pair_range():
    rng = np.random.default_rng(23)
    for _ in range(20):
        theta = rng.uniform(0.2, math.pi - 0.2)
        s = rng.uniform(0.0, 0.8)
        pair = berry_phase_perturbative(frame_loop(theta, s, n_points=128))
        for g in pair.as_tuple():
            assert 0.0 <= g < TWO_PI
