"""Stationary-state machinery: quartic, reconstruction, families, tracking."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dimerphase import (
    BranchLostError,
    Eigenstate,
    InvalidStateError,
    ModelParams,
    ParamPath,
    continue_branch,
    phi_loop,
    stationary_arrays,
    stationary_states,
)
from dimerphase.model import (
    _apply,
    _overlap,
    _quartic,
    reconstruct_states,
    solve_quartic_real_roots,
)

ROOT3_OVER_2 = math.sqrt(3.0) / 2.0


def test_params_reject_negative_coupling():
    with pytest.raises(ValueError):
        ModelParams(R=0.0, c=1.0, v=-0.5)
    with pytest.raises(ValueError):
        ModelParams(R=0.0, c=-1.0, v=0.5)


@pytest.mark.parametrize("field", ["R", "c", "v", "phi"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite(field, value):
    values = {"R": 0.0, "c": 1.0, "v": 1.0, "phi": 0.0, field: value}
    with pytest.raises(ValueError, match=field):
        ModelParams(**values)


def test_params_reduce_phi():
    p = ModelParams(R=0.0, c=1.0, v=1.0, phi=5.0 * math.pi)
    assert 0.0 <= p.phi < 2.0 * math.pi
    assert p.phi == pytest.approx(math.pi)


@pytest.mark.parametrize("phi", [-1e-17, -1e-300, -0.0, 2.0 * math.pi])
def test_params_reduce_phi_below_two_pi(phi):
    p = ModelParams(R=0.0, c=1.0, v=1.0, phi=phi)
    assert 0.0 <= p.phi < 2.0 * math.pi


def _hamiltonian_apply(params, a1, a2):
    """H(psi) psi through the model's kernel."""
    phase = cmath.exp(1j * params.phi)
    return np.array(_apply(params.R, params.c, params.v, phase, complex(a1), complex(a2)))


def test_hamiltonian_apply_offdiagonal_flip():
    out = _hamiltonian_apply(ModelParams(R=0.0, c=0.0, v=2.0), 1.0, 0.0)
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)


def test_hamiltonian_apply_diagonal():
    out = _hamiltonian_apply(ModelParams(R=2.0, c=0.0, v=0.0), 1.0, 0.0)
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_hamiltonian_apply_balanced_state():
    amp = 1.0 / math.sqrt(2.0)
    out = _hamiltonian_apply(ModelParams(R=0.0, c=1.0, v=2.0), amp, amp)
    np.testing.assert_allclose(out, [amp, amp], atol=1e-15)


@pytest.mark.parametrize(
    ("params", "expected"),
    [
        (ModelParams(R=0.0, c=0.0, v=2.0), (2.0, 0.0, 0.0, 0.0, -2.0)),
        (ModelParams(R=0.0, c=1.0, v=2.0), (2.0, -2.0, 0.0, 2.0, -2.0)),
        (ModelParams(R=1.0, c=1.0, v=1.0), (1.0, 0.0, 0.0, 4.0, -1.0)),
        (ModelParams(R=0.0, c=2.0, v=0.5), (0.5, -4.0, 0.0, 4.0, -0.5)),
    ],
)
def test_quartic_coefficients(params, expected):
    np.testing.assert_allclose(_quartic(params.R, params.c, params.v), expected, atol=1e-15)


def test_quartic_phi_independent():
    # The quartic ignores phi: both points share one solve, so their energies
    # agree to the bit.
    states = stationary_arrays([0.3, 0.3], [0.7, 0.7], [0.0, 2.1], [1.1, 1.1])
    assert states.energy[0].tobytes() == states.energy[1].tobytes()


def test_quartic_roots_linear_limit():
    roots = solve_quartic_real_roots((1.0, 0.0, -1.0, 0.0, 0.0))
    assert [(round(r, 12), m) for r, m in roots] == [(-1.0, 1), (0.0, 2), (1.0, 1)]


def test_quartic_roots_double_at_half():
    roots = solve_quartic_real_roots((1.0, 1.0, -0.75, -1.0, -0.25))
    values = [r for r, _ in roots]
    mults = [m for _, m in roots]
    np.testing.assert_allclose(values, [-1.0, -0.5, 1.0], atol=1e-12)
    assert mults == [1, 2, 1]


def test_quartic_roots_from_model_coefficients():
    # R = 0: t = -1 and 1 are the m = 0 states, t = 4 -+ sqrt(15) the
    # self-trapped pair, whose two roots have product 1.
    coeffs = _quartic(0.0, 2.0, 0.5)
    roots = solve_quartic_real_roots(coeffs)
    values = [r for r, _ in roots]
    mults = [m for _, m in roots]
    root15 = math.sqrt(15.0)
    np.testing.assert_allclose(values, [-1.0, 4.0 - root15, 1.0, 4.0 + root15], rtol=1e-12)
    assert mults == [1, 1, 1, 1]


def test_quartic_triple_root_at_critical_coupling():
    coeffs = _quartic(0.0, 1.0, 1.0)
    roots = solve_quartic_real_roots(coeffs)
    assert roots == [(-1.0, 1), (1.0, 3)]


def test_quartic_root_at_infinity_without_coupling():
    coeffs = _quartic(-1.8, 1.0, 0.0)
    assert solve_quartic_real_roots(coeffs) == [(0.0, 1), (math.inf, 1)]


_ROOT_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0)


@st.composite
def constructed_quartics(draw):
    """np.poly of real roots, each at most double, scaled, behind 0-2 leading zeros."""
    lead = draw(st.integers(0, 2))
    roots = draw(
        st.lists(st.sampled_from(_ROOT_VALUES), min_size=4 - lead, max_size=4 - lead).filter(
            lambda r: max(map(r.count, r)) <= 2
        )
    )
    scale = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    coeffs = [0.0] * lead + (scale * np.poly(roots)).tolist()
    expected = [(t, roots.count(t)) for t in sorted(set(roots))]
    return coeffs, expected + ([(math.inf, lead)] if lead else [])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(quartic=constructed_quartics())
def test_quartic_roots_of_constructed_quartics(quartic):
    coeffs, expected = quartic
    roots = solve_quartic_real_roots(coeffs)
    assert [m for _, m in roots] == [m for _, m in expected]
    np.testing.assert_allclose([t for t, _ in roots], [t for t, _ in expected], rtol=0, atol=1e-9)


def test_quartic_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve_quartic_real_roots((1.0, 0.0, -1.0, 0.0))


def test_quartic_matches_companion_roots_randomly():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        R, c, v = rng.uniform(0.0, 3.0, size=3)
        coeffs = _quartic(float(R), float(c), float(v))
        polished = solve_quartic_real_roots(coeffs)
        raw = np.roots(coeffs)
        raw_real = sorted(z.real for z in raw if abs(z.imag) <= 1e-8 * (1.0 + abs(z.real)))
        flat = sorted(r for r, m in polished for _ in range(m))
        assert len(flat) == len(raw_real)
        np.testing.assert_allclose(flat, raw_real, atol=1e-8, rtol=1e-8)


def test_reconstruct_rejects_spurious_root():
    # t = 0.5 is not a root: psi(beta) there is not stationary.
    assert reconstruct_states(ModelParams(R=0.0, c=1.0, v=2.0), 0.5) == []


def test_reconstruct_degenerate_pair():
    # R = 0, c = 2, v = 1: t = 2 -+ sqrt(3) between the m = 0 roots -1 and 1.
    params = ModelParams(R=0.0, c=2.0, v=1.0)
    roots = [t for t, _ in solve_quartic_real_roots(_quartic(params.R, params.c, params.v))]
    pair = [2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)]
    np.testing.assert_allclose(roots, [-1.0, pair[0], 1.0, pair[1]], rtol=1e-12)
    states = [s for t in roots[1::2] for s in reconstruct_states(params, t)]
    assert len(states) == 2
    np.testing.assert_allclose([s.energy for s in states], [-1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(
        sorted(s.imbalance for s in states), [-ROOT3_OVER_2, ROOT3_OVER_2], atol=1e-12
    )
    for s in states:
        assert s.residual < 1e-10


def test_reconstruct_linear_ground_state():
    for phi in (0.0, math.pi / 3.0):
        states = reconstruct_states(ModelParams(R=0.0, c=0.0, v=2.0, phi=phi), 1.0)
        assert len(states) == 1
        st = states[0]
        assert st.imbalance == pytest.approx(0.0, abs=1e-12)
        amp = 1.0 / math.sqrt(2.0)
        assert st.amp1 == pytest.approx(amp)
        assert st.amp2 == pytest.approx(-amp * cmath.exp(-1j * phi))


def test_family_two_states_weak_nonlinearity():
    fam = stationary_states(ModelParams(R=0.0, c=1.0, v=2.0))
    assert len(fam) == 2
    np.testing.assert_allclose(fam.energies, [-1.0, 1.0], atol=1e-12)


def test_family_four_states_strong_nonlinearity():
    fam = stationary_states(ModelParams(R=0.0, c=1.0, v=0.5))
    assert len(fam) == 4
    np.testing.assert_allclose(fam.energies, [-0.5, -0.5, -0.25, 0.25], atol=1e-12)
    pair = [s for s in fam.states if abs(s.energy + 0.5) < 1e-9]
    np.testing.assert_allclose(
        [s.imbalance for s in pair],
        [-math.sqrt(0.75), math.sqrt(0.75)],
        atol=1e-12,
    )


def test_family_critical_coupling_collapses_to_two():
    fam = stationary_states(ModelParams(R=0.0, c=1.0, v=1.0))
    assert len(fam) == 2
    np.testing.assert_allclose(fam.energies, [-0.5, 0.5], atol=1e-12)
    assert all(abs(s.imbalance) < 1e-9 for s in fam.states)


def test_family_rejects_fully_degenerate_model():
    with pytest.raises(InvalidStateError):
        stationary_states(ModelParams(R=0.0, c=1.0, v=0.0))


@pytest.mark.parametrize("v", [0.3, 0.5, 0.9])
def test_root_count_four_when_coupling_below_c(v):
    assert len(stationary_states(ModelParams(R=0.0, c=1.0, v=v))) == 4


@pytest.mark.parametrize("v", [1.2, 1.5, 2.0])
def test_root_count_two_when_coupling_above_c(v):
    assert len(stationary_states(ModelParams(R=0.0, c=1.0, v=v))) == 2


def test_spectrum_symmetry_at_zero_bias():
    rng = np.random.default_rng(11)
    for _ in range(40):
        c = float(rng.uniform(0.1, 3.0))
        v = float(rng.uniform(0.1, 3.0))
        if abs(c - v) < 1e-3:
            continue
        fam = stationary_states(ModelParams(R=0.0, c=c, v=v))
        expected = sorted([-v / 2.0, v / 2.0] + ([-c / 2.0] * 2 if c > v else []))
        np.testing.assert_allclose(fam.energies, expected, atol=1e-9)


def _hamiltonian_matrix(params, m):
    """H(psi) as a 2x2 matrix at imbalance m, written out from its definition."""
    diag = 0.5 * (params.R + params.c * m)
    coupling = 0.5 * params.v * cmath.exp(1j * params.phi)
    return np.array([[diag, coupling], [coupling.conjugate(), -diag]])


def test_states_are_self_consistent_and_physical():
    rng = np.random.default_rng(5)
    for _ in range(60):
        params = ModelParams(
            R=float(rng.uniform(-2.0, 2.0)),
            c=float(rng.uniform(0.0, 3.0)),
            v=float(rng.uniform(0.05, 3.0)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        for st in stationary_states(params).states:
            m = abs(st.amp2) ** 2 - abs(st.amp1) ** 2
            out = _hamiltonian_matrix(params, m) @ st.amplitudes
            resid = np.linalg.norm(out - st.energy * st.amplitudes)
            assert resid < 1e-9
            assert 4.0 * st.energy**2 >= params.v**2 - 1e-9
            # gauge: first amplitude real and nonnegative
            assert abs(st.amp1.imag) < 1e-12 and st.amp1.real >= 0.0


def test_energies_phi_independent():
    a = stationary_states(ModelParams(R=0.4, c=1.5, v=0.8, phi=0.0)).energies
    b = stationary_states(ModelParams(R=0.4, c=1.5, v=0.8, phi=1.9)).energies
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_param_path_validation():
    with pytest.raises(ValueError):
        ParamPath([0.0], [1.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        ParamPath([0.0, 1.0], [1.0, 1.0], [1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        ParamPath(*(np.zeros((2, 2)),) * 4)
    loop = phi_loop(ModelParams(R=0.5, c=1.0, v=1.0, phi=1.0), 8)
    for values in (loop.R, loop.c, loop.v, loop.phi):
        assert values.shape == (9,) and values.dtype == float
    assert (loop.R == 0.5).all() and (loop.c == 1.0).all() and (loop.v == 1.0).all()
    assert loop.phi[-1] == pytest.approx(loop.phi[0], abs=1e-15)


@pytest.mark.parametrize("phi", [0.0, 1e-300, 1.0, 6.283185307179585])
@pytest.mark.parametrize("n_points", [2, 3, 7, 1024])
def test_phi_loop_samples_as_model_params_store_them(phi, n_points):
    # Each sample is the phi a record stores for phi + 2 pi k / n, reduced per point.
    two_pi = 2.0 * math.pi
    loop = phi_loop(ModelParams(R=0.0, c=1.0, v=1.0, phi=phi), n_points)
    expected = [
        ModelParams(R=0.0, c=1.0, v=1.0, phi=(phi + two_pi * k / n_points) % two_pi).phi
        for k in range(n_points + 1)
    ]
    assert loop.phi.tolist() == expected


def test_continue_branch_flat_linear_loop():
    params = ModelParams(R=0.0, c=0.0, v=2.0)
    seed = stationary_states(params).states[0]
    branch = continue_branch(phi_loop(params, 100), seed)
    assert len(branch) == 101
    for st in branch:
        assert st.energy == pytest.approx(-1.0, abs=1e-12)
        assert st.imbalance == pytest.approx(0.0, abs=1e-12)


def test_continue_branch_keeps_imbalance_on_phi_loop():
    params = ModelParams(R=0.0, c=2.0, v=1.0)
    seed = [s for s in stationary_states(params).states if s.imbalance > 0.5][0]
    branch = continue_branch(phi_loop(params, 64), seed)
    for st in branch:
        assert st.imbalance == pytest.approx(ROOT3_OVER_2, abs=1e-9)


def test_continue_branch_reports_lost_branch(monkeypatch):
    # Real families span the state space, so the best overlap never drops
    # below ~1/sqrt(2); exercise the guard with every candidate collapsed onto
    # the ray orthogonal to the seed.
    import dimerphase.model as model_mod

    real = model_mod.stationary_arrays

    def collapsed(*args):
        states = real(*args)
        return dataclasses.replace(
            states, amp1=np.ones_like(states.amp1), amp2=np.zeros_like(states.amp2)
        )

    params = ModelParams(R=0.0, c=0.0, v=2.0)
    seed = Eigenstate(0.0j, 1.0 + 0.0j, -1.0, 1.0, 0.0)
    monkeypatch.setattr(model_mod, "stationary_arrays", collapsed)
    with pytest.raises(BranchLostError):
        continue_branch(phi_loop(params, 8), seed)


def _bias_sweep(start, R_stop, n):
    """n samples from start to bias R_stop, the other parameters fixed."""
    fixed = (np.full(n, x) for x in (start.c, start.v, start.phi))
    return ParamPath(np.linspace(start.R, R_stop, n), *fixed)


def test_continue_branch_coarse_bias_sweep_reattaches():
    start = ModelParams(R=0.0, c=2.0, v=1.0)
    seed = [s for s in stationary_states(start).states if s.imbalance < -0.5][0]
    coarse = continue_branch(_bias_sweep(start, 2.0, 3), seed)
    fine = continue_branch(
        _bias_sweep(start, 0.4, 100),
        [s for s in stationary_states(start).states if s.imbalance > 0.5][0],
    )
    # the rising branch folds away: a coarse sweep silently lands elsewhere
    end = coarse[-1]
    assert abs(_overlap(seed.amp1, seed.amp2, end.amp1, end.amp2)) > 0.5
    # while the surviving branch tracks smoothly
    deltas = [
        abs(a.imbalance - b.imbalance) for a, b in zip(fine[:-1], fine[1:])
    ]
    assert max(deltas) < 0.02


def test_state_overlap_hermitian_symmetry():
    fam = stationary_states(ModelParams(R=0.3, c=1.0, v=0.7, phi=0.4))
    a, b = fam.states[0], fam.states[1]
    ab = _overlap(a.amp1, a.amp2, b.amp1, b.amp2)
    assert ab == pytest.approx(_overlap(b.amp1, b.amp2, a.amp1, a.amp2).conjugate())
    assert abs(_overlap(a.amp1, a.amp2, a.amp1, a.amp2)) == pytest.approx(1.0, abs=1e-12)


def test_eigenstate_amplitudes_roundtrip():
    st = Eigenstate(1.0 + 0.0j, 0.0j, 0.5, -1.0, 0.0)
    np.testing.assert_allclose(st.amplitudes, [1.0, 0.0])


# ---------------------------------------------------------------------------
# properties over the whole parameter range

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

couplings = st.floats(-9.0, 1.0).map(lambda e: 10.0**e)
biases = st.one_of(st.floats(-10.0, 10.0), st.just(0.0), st.floats(-1e-3, 1e-3))
nonlinearities = st.floats(0.0, 10.0)


def _astroid_side(R, c, v):
    """-1 inside |R|^(2/3) + v^(2/3) = c^(2/3), +1 outside, 0 within 1e-6 of it."""
    gap = abs(R) ** (2.0 / 3.0) + v ** (2.0 / 3.0) - c ** (2.0 / 3.0)
    if abs(gap) <= 1e-6 * c ** (2.0 / 3.0):
        return 0
    return -1 if gap < 0.0 else 1


@_PROPERTY
@given(R=biases, c=nonlinearities, v=couplings)
def test_four_states_inside_astroid_two_outside(R, c, v):
    side = _astroid_side(R, c, v)
    assume(side != 0)
    fam = stationary_states(ModelParams(R=R, c=c, v=v))
    assert len(fam) == (4 if side < 0 else 2)
    assert all(s.residual < 1e-9 for s in fam.states)


@_PROPERTY
@given(R=biases, c=nonlinearities, v=couplings, phi=st.floats(0.0, 6.28))
def test_phi_rotates_states_and_keeps_energies(R, c, v, phi):
    assume(_astroid_side(R, c, v) != 0)
    base = stationary_states(ModelParams(R=R, c=c, v=v)).states
    turned = stationary_states(ModelParams(R=R, c=c, v=v, phi=phi)).states
    assert [s.energy for s in turned] == [s.energy for s in base]
    for a, b in zip(base, turned):
        assert b.amp1 == a.amp1
        assert abs(b.amp2 - a.amp2 * cmath.exp(-1j * phi)) < 1e-12


@_PROPERTY
@given(R=biases, c=nonlinearities, v=couplings)
def test_bias_reversal_keeps_energies(R, c, v):
    assume(_astroid_side(R, c, v) != 0)
    plus = stationary_states(ModelParams(R=R, c=c, v=v)).energies
    minus = stationary_states(ModelParams(R=-R, c=c, v=v)).energies
    np.testing.assert_allclose(minus, plus, rtol=1e-12, atol=0.0)


@_PROPERTY
@given(c=nonlinearities, v=couplings)
def test_self_trapped_pair_shares_energy_and_starts_at_negative_imbalance(c, v):
    assume(c > v * (1.0 + 1e-6))
    states = stationary_states(ModelParams(R=0.0, c=c, v=v)).states
    assert states[0].energy == states[1].energy
    assert states[0].imbalance < 0.0


def test_uncoupled_bias_beyond_nonlinearity_is_fully_polarized():
    fam = stationary_states(ModelParams(R=-1.8, c=1.0, v=0.0))
    assert fam.energies == pytest.approx([-1.4, 0.4], abs=1e-15)
    assert [s.imbalance for s in fam.states] == [-1.0, 1.0]


@pytest.mark.parametrize(("R", "count"), [(0.3, 4), (5.0, 2)])
def test_tiny_coupling_keeps_every_state(R, count):
    fam = stationary_states(ModelParams(R=R, c=1.0, v=1e-8))
    assert len(fam) == count


def test_tiny_coupling_resolves_the_inner_pair():
    fam = stationary_states(ModelParams(R=0.3, c=1.0, v=1e-6))
    assert len(fam) == 4
    np.testing.assert_allclose(fam.energies[2:], [-5.2414e-7, 5.2414e-7], rtol=1e-4)


def test_near_full_polarization_keeps_self_trapped_state():
    fam = stationary_states(ModelParams(R=0.0013683897444756177, c=1.0141692229906407, v=0.04))
    assert len(fam) == 4
    assert min(s.imbalance for s in fam.states) == pytest.approx(-0.9992, abs=1e-4)


def test_self_trapped_pair_order_at_loop_point():
    states = stationary_states(ModelParams(R=0.0, c=2.068564590147837, v=0.9128062876453995)).states
    assert states[0].energy == states[1].energy
    assert states[0].imbalance < 0.0 < states[1].imbalance


# ---------------------------------------------------------------------------
# the array kernel: every row is the single-point solve, whatever the batch


@st.composite
def kernel_points(draw):
    """(R, c, v, phi) from a mix of regimes: uncoupled, triple root, near the astroid."""
    c = draw(nonlinearities)
    phi = draw(st.one_of(st.just(0.0), st.floats(0.0, 6.28)))
    kind = draw(st.sampled_from(["generic", "uncoupled", "triple", "astroid"]))
    if kind == "uncoupled":
        return draw(biases), c, 0.0, phi
    if kind == "triple":
        return 0.0, c, c, phi
    if kind == "astroid":
        # |R|^(2/3) + v^(2/3) = c^(2/3) at s, moved off it by a relative 1e-6 at most.
        s = draw(st.floats(0.0, 1.0))
        nudge = 1.0 + draw(st.floats(-1e-6, 1e-6))
        R = math.copysign(c * s**1.5, draw(st.sampled_from([-1.0, 1.0])))
        return R, c, c * (1.0 - s) ** 1.5 * nudge, phi
    return draw(biases), c, draw(couplings), phi


kernel_batches = st.lists(kernel_points(), min_size=1, max_size=24)

_BATCH_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def _columns(R, c, v, phi):
    return [np.array(x, dtype=float) for x in (R, c, v, phi)]


@_BATCH_PROPERTY
@given(points=kernel_batches)
def test_kernel_rows_equal_single_point_solves(points):
    R, c, v, phi = _columns(*zip(*points))
    states = stationary_arrays(R, v, phi, c)
    for k, point in enumerate(points):
        params = ModelParams(*point)
        if not (params.v > 0.0 or params.R != 0.0):
            assert states.count[k] == 0 and not states.failed[k]
            continue
        if states.failed[k]:
            with pytest.raises(ArithmeticError):
                stationary_states(params)
            continue
        n = states.count[k]
        row = states.take([k] * n, list(range(n)))
        single = stationary_states(params).states
        # == on floats would pass 0.0 for -0.0; repr tells them apart.
        fields = [(s.energy, s.imbalance, s.amp1, s.amp2) for s in row]
        assert repr(fields) == repr([(s.energy, s.imbalance, s.amp1, s.amp2) for s in single])


def _per_root_states(params, tol=1e-9):
    """States from one reconstruct_states call per root, merged and sorted in Python."""
    roots = solve_quartic_real_roots(_quartic(params.R, params.c, params.v), tol)
    if params.v == 0.0:
        roots = [(t, mult) for t, mult in roots if t >= 0.0]
    states = [s for t, _ in roots for s in reconstruct_states(params, t, tol)]
    states.sort(key=lambda s: s.energy)
    for i in range(1, len(states)):
        low, high = states[i - 1].energy, states[i].energy
        if high - low <= 1e-12 * max(abs(low), abs(high)):
            states[i] = dataclasses.replace(states[i], energy=low)
    return sorted(states, key=lambda s: (s.energy, s.imbalance))


@_BATCH_PROPERTY
@given(points=kernel_batches)
@example(points=[(-2.4795559846832345, 7.866182352955087, 3.093996481405873, 5.828747570784426)])
def test_kernel_rows_equal_per_root_reconstruction(points):
    R, c, v, phi = _columns(*zip(*points))
    states = stationary_arrays(R, v, phi, c)
    for k, point in enumerate(points):
        params = ModelParams(*point)
        if not (params.v > 0.0 or params.R != 0.0) or states.failed[k]:
            continue
        n = states.count[k]
        got = [(s.energy, s.imbalance, s.amp1, s.amp2) for s in states.take([k] * n, range(n))]
        ref = [(s.energy, s.imbalance, s.amp1, s.amp2) for s in _per_root_states(params)]
        assert repr(got) == repr(ref)


@_BATCH_PROPERTY
@given(points=kernel_batches, block=st.integers(1, 8), data=st.data())
def test_kernel_ignores_block_size_and_order(points, block, data):
    R, c, v, phi = _columns(*zip(*points))
    order = np.array(data.draw(st.permutations(range(len(points)))))

    def fields(states, rows=slice(None)):
        arrays = (states.energy, states.amp1, states.amp2, states.imbalance, states.count)
        return [a[rows].tobytes() for a in arrays] + [states.failed[rows].tolist()]

    whole = stationary_arrays(R, v, phi, c)
    shuffled = stationary_arrays(R[order], v[order], phi[order], c[order])
    assert fields(shuffled) == fields(whole, order)
    for start in range(0, len(points), block):
        rows = slice(start, start + block)
        part = stationary_arrays(R[rows], v[rows], phi[rows], c[rows])
        assert fields(part) == fields(whole, rows)


@pytest.mark.parametrize(
    "R, v, c", [(math.nan, 1.0, 1.0), (0.0, math.inf, 1.0), (0.0, -1.0, 1.0), (0.0, 1.0, -1.0)]
)
def test_kernel_rejects_bad_parameters(R, v, c):
    with pytest.raises(ValueError):
        stationary_arrays([0.0, R], [1.0, v], 0.0, c)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_kernel_rejects_bad_tolerance(tol):
    # tol = inf would keep all four roots at (R, v, c) = (0, 1.5, 1), where two
    # states exist; -1 and nan would reject every state and blame the physics.
    with pytest.raises(ValueError, match="tol"):
        stationary_arrays(0.0, 1.5, 0.0, 1.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        stationary_states(ModelParams(R=0.0, c=1.0, v=1.5), tol=tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_marks_overflowing_points_failed_and_solves_the_rest():
    # 2 (R - c) overflows at R = 1e308; 2 R / v overflows the companion
    # matrix at v = 1e-300; at v = 1.7e308 the polish's slope coefficients
    # overflow.  None may warn or stop the other points of the batch.
    R, v = [1e308, 1e308, 1e10, 0.0, 1e10], [0.0, 1.0, 1e-300, 1.7e308, 1.0]
    states = stationary_arrays(R, v, 0.0, 1.0)
    assert states.failed.tolist() == [True, True, True, True, False]
    assert states.count.tolist()[4] == 2
