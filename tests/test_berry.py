"""Geometric phases: frames, loop quadratures, closed forms, discrete loops."""

import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    stationary_arrays,
    stationary_states,
)
from dimerphase.berry import _companion_solid_angle, _wrap
from dimerphase.cli import _GRID_VALUES

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


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_frame_loop_rejects_non_finite_azimuths(phi):
    # A non-finite azimuth would make every phase of the loop NaN.
    with pytest.raises(ValueError, match="phi"):
        FrameLoop(np.ones(4), np.array([0.0, 1.0, phi, 2.0]), 0.1)


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


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    # Within 3e-3 of the equator, where 1 - sin(theta) crosses the 1e-6 guard.
    thetas=st.lists(st.floats(-3e-3, 3e-3).map(lambda d: 0.5 * math.pi + d), min_size=3),
    s=st.one_of(st.just(1.0), st.floats(1.0 - 1e-5, 1.0), st.floats(0.0, 1.0)),
)
@example(thetas=[0.5 * math.pi] * 4, s=1.0)
def test_loop_tripping_the_quadrature_guard_trips_the_unit_overlap_guard(thetas, s):
    # 1 - s sin(theta) >= 1 - sin(theta) for s <= 1, so the unit-overlap
    # limit is no way around the quadrature's guard.
    loop = FrameLoop(np.array(thetas), np.linspace(0.0, TWO_PI, len(thetas)), s)
    try:
        berry_phase_perturbative(loop)
    except NearSingularLoopError:
        with pytest.raises(SingularLimitError):
            berry_phase_unit_overlap(loop)


# ---------------------------------------------------------------------------
# dimer closed form


def _lowest_state(R, c, v):
    return stationary_states(ModelParams(R=R, c=c, v=v)).states[0]


def test_closed_form_half_filled_band():
    assert berry_phase_closed_form(_lowest_state(0.0, 0.0, 2.0)) == pytest.approx(math.pi)


def test_closed_form_partial():
    # The lower self-trapped state at (R, c, v) = (0, 2, 1.2) has m = -0.8.
    assert berry_phase_closed_form(_lowest_state(0.0, 2.0, 1.2)) == pytest.approx(0.2 * math.pi)


def test_closed_form_matches_tilt_geometry():
    # At c = 0 the lowest state has m = R / hypot(R, v): -1/sqrt(2) at R = -v.
    got = berry_phase_closed_form(_lowest_state(-1.0, 0.0, 1.0))
    assert got == pytest.approx(math.pi * (1.0 - 1.0 / math.sqrt(2.0)))


def test_closed_form_zero_coupling():
    # The polarized states m = -1 and m = +1, whose 2 pi wraps to 0.
    states = stationary_states(ModelParams(R=1.0, c=0.0, v=0.0)).states
    assert sorted(s.imbalance for s in states) == [-1.0, 1.0]
    assert [berry_phase_closed_form(s) for s in states] == [0.0, 0.0]


@pytest.mark.parametrize(
    "state",
    [
        Eigenstate(0.6, 0.6 + 0.0j, -1.0, 0.0, 0.0),
        Eigenstate(1.0, complex(math.inf, 0.0), -1.0, 0.0, 0.0),
    ],
    ids=["norm-0.85", "infinite-amplitude"],
)
def test_closed_form_rejects_a_state_whose_norm_is_not_one(state):
    with pytest.raises(InvalidStateError, match="norm"):
        berry_phase_closed_form(state)


@pytest.mark.parametrize("scale", [1.0 + 5e-7, 1.0 + 2e-6])
@pytest.mark.parametrize(
    "read",
    [
        lambda params, state: continue_branch(phi_loop(params, 16), state),
        lambda params, state: berry_phase_closed_form(state),
    ],
    ids=["continue_branch", "berry_phase_closed_form"],
)
def test_unit_norm_rule_has_one_tolerance(read, scale):
    # Each function writes out |norm - 1| <= 1e-6 itself: a state scaled off
    # norm 1 by 5e-7 passes both, one scaled off by 2e-6 neither.
    params = ModelParams(R=0.3, c=2.0, v=0.5)
    lowest = stationary_states(params).states[0]
    state = dataclasses.replace(lowest, amp1=scale * lowest.amp1, amp2=scale * lowest.amp2)
    if scale < 1.0 + 1e-6:
        read(params, state)
    else:
        with pytest.raises(InvalidStateError, match="norm"):
            read(params, state)


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
    # v reaches the closed form only through the model, which rejects it; a
    # state with finite amplitudes but a non-finite energy or imbalance is no
    # stationary state, as a single record and as a Branch column alike.
    with pytest.raises(ValueError, match=name):
        state = _lowest_state(0.0, 2.0, v)
        berry_phase_closed_form(dataclasses.replace(state, energy=energy, imbalance=imbalance))
    if name != "v":
        branch = _ground_branch(ModelParams(R=0.0, c=2.0, v=v), 64)
        column = getattr(branch, name).copy()
        column[7] = energy if name == "energy" else imbalance
        with pytest.raises(ValueError, match=name):
            berry_phase_closed_form(dataclasses.replace(branch, **{name: column}))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(c=st.floats(1e-3, 1e3), r=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
@example(c=1.0, r=0.3)
def test_closed_form_of_the_free_phase_state_matches_its_loop(c, r):
    # At v = 0 and 0 < |R| < c the free-phase state m = -R/c, whose relative
    # phase the loop winds, has the loop phase pi (1 + m), as at v > 0.
    R = r * c
    assume(R != 0.0 and abs(R) < c)
    params = ModelParams(R=R, c=c, v=0.0)
    [free] = [s for s in stationary_states(params).states if s.amp1 != 0.0 and s.amp2 != 0.0]
    discrete = berry_phase_discrete(continue_branch(phi_loop(params, 2048), free))
    assert abs(math.remainder(berry_phase_closed_form(free) - discrete, TWO_PI)) < 1e-5


@st.composite
def _grid_points(draw):
    """(R, c, v) of a grid row: generic, uncoupled, linear (m = 0 at R = 0), the
    origin, which has no state, and couplings down to 1e-300."""
    R = draw(st.one_of(st.just(0.0), st.floats(-10.0, 10.0), st.floats(-1e-3, 1e-3)))
    c = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    v = draw(st.one_of(st.just(0.0), st.floats(-300.0, 1.0).map(lambda e: 10.0**e)))
    return R, c, v


def _grid_loop_phase(points):
    """The berry grid's loop phase over pi at each row, before failed rows are
    blanked, and the rows' states."""
    R, c, v = map(np.array, zip(*points))
    states = stationary_arrays(R, v, 0.0, c)
    return _GRID_VALUES["berry"](states)[:, 0], states


# The origin, with no state, beside a row that has one.
_ROWS_WITH_NO_STATE = [(0.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(points=st.lists(_grid_points(), min_size=1, max_size=12))
@example(points=_ROWS_WITH_NO_STATE)
def test_loop_phase_on_arrays_equals_closed_form_by_point(points):
    # Bit for bit: each cell is the closed form of the row's lowest state as a record.
    got, states = _grid_loop_phase(points)
    assert got.shape == (len(points),)
    for k, value in enumerate(got.tolist()):
        [lowest] = states.take([k], [0])
        assert value.hex() == (berry_phase_closed_form(lowest) / math.pi).hex()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(points=st.lists(_grid_points(), min_size=1, max_size=12))
@example(points=_ROWS_WITH_NO_STATE)
def test_loop_phase_is_nan_exactly_where_the_row_has_no_state(points):
    # A row with no state holds NaN amplitudes, v = 0 (the origin) included.
    got, states = _grid_loop_phase(points)
    assert np.isnan(got).tolist() == (states.count == 0).tolist()


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-150, 1.0, 1e150, 1e160, 1e300])
@pytest.mark.parametrize("imbalance", [0.6, -0.6])
def test_loop_phase_matches_mpmath_at_any_scale(scale, imbalance):
    # At c = 0 the lowest state has m = R / hypot(R, v), so (R, v) = (0.6, 0.8)
    # and (-0.6, 0.8) give m = -+0.6 at every scale; their squares under- or
    # overflow at the outer scales.
    R, v = imbalance * scale, 0.8 * scale
    with mpmath.workdps(40):
        m = mpmath.mpf(R) / mpmath.hypot(mpmath.mpf(R), mpmath.mpf(v))
        want = float(mpmath.pi * (1 + m))
    assert berry_phase_closed_form(_lowest_state(R, 0.0, v)) == pytest.approx(want, rel=1e-15)


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
    expect = berry_phase_closed_form(branch[0])
    assert berry_phase_discrete(branch) == pytest.approx(expect, abs=1e-5)
    # A Branch is read column by column, as its records are one by one.
    by_record = [berry_phase_closed_form(state) for state in branch]
    assert berry_phase_closed_form(branch).tolist() == by_record


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
    got = berry_phase_closed_form(state)
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
