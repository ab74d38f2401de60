"""Stationary-state machinery: quartic, reconstruction, families, tracking."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dimerphase import (
    BranchLostError,
    Eigenstate,
    InvalidStateError,
    ModelParams,
    ParamPath,
    continue_branch,
    hamiltonian_apply,
    linear_path,
    phi_loop,
    quartic_coefficients,
    reconstruct_states,
    solve_quartic_real_roots,
    state_overlap,
    stationary_states,
)

ROOT3_OVER_2 = math.sqrt(3.0) / 2.0


def test_params_reject_negative_coupling():
    with pytest.raises(ValueError):
        ModelParams(R=0.0, c=1.0, v=-0.5)
    with pytest.raises(ValueError):
        ModelParams(R=0.0, c=-1.0, v=0.5)


def test_params_reduce_phi():
    p = ModelParams(R=0.0, c=1.0, v=1.0, phi=5.0 * math.pi)
    assert 0.0 <= p.phi < 2.0 * math.pi
    assert p.phi == pytest.approx(math.pi)


def test_hamiltonian_apply_offdiagonal_flip():
    out = hamiltonian_apply(ModelParams(R=0.0, c=0.0, v=2.0), (1.0, 0.0))
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)


def test_hamiltonian_apply_diagonal():
    out = hamiltonian_apply(ModelParams(R=2.0, c=0.0, v=0.0), (1.0, 0.0))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-15)


def test_hamiltonian_apply_balanced_state():
    amp = 1.0 / math.sqrt(2.0)
    out = hamiltonian_apply(ModelParams(R=0.0, c=1.0, v=2.0), (amp, amp))
    np.testing.assert_allclose(out, [amp, amp], atol=1e-15)


def test_hamiltonian_apply_rejects_unnormalized():
    with pytest.raises(InvalidStateError):
        hamiltonian_apply(ModelParams(R=0.0, c=0.0, v=1.0), (1.0, 1.0))


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
    np.testing.assert_allclose(quartic_coefficients(params), expected, atol=1e-15)


def test_quartic_phi_independent():
    a = quartic_coefficients(ModelParams(R=0.3, c=1.1, v=0.7, phi=0.0))
    b = quartic_coefficients(ModelParams(R=0.3, c=1.1, v=0.7, phi=2.1))
    assert a == b


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
    coeffs = quartic_coefficients(ModelParams(R=0.0, c=2.0, v=0.5))
    roots = solve_quartic_real_roots(coeffs)
    values = [r for r, _ in roots]
    mults = [m for _, m in roots]
    root15 = math.sqrt(15.0)
    np.testing.assert_allclose(values, [-1.0, 4.0 - root15, 1.0, 4.0 + root15], rtol=1e-12)
    assert mults == [1, 1, 1, 1]


def test_quartic_triple_root_at_critical_coupling():
    coeffs = quartic_coefficients(ModelParams(R=0.0, c=1.0, v=1.0))
    roots = solve_quartic_real_roots(coeffs)
    assert roots == [(-1.0, 1), (1.0, 3)]


def test_quartic_root_at_infinity_without_coupling():
    coeffs = quartic_coefficients(ModelParams(R=-1.8, c=1.0, v=0.0))
    assert solve_quartic_real_roots(coeffs) == [(0.0, 1), (math.inf, 1)]


def test_quartic_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve_quartic_real_roots((1.0, 0.0, -1.0, 0.0))


def test_quartic_matches_companion_roots_randomly():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        R, c, v = rng.uniform(0.0, 3.0, size=3)
        coeffs = quartic_coefficients(ModelParams(R=float(R), c=float(c), v=float(v)))
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
    roots = [t for t, _ in solve_quartic_real_roots(quartic_coefficients(params))]
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
            out = hamiltonian_apply(params, st.amplitudes)
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
    p = ModelParams(R=0.0, c=1.0, v=1.0)
    with pytest.raises(ValueError):
        ParamPath(points=(p,), closed=False)
    with pytest.raises(ValueError):
        ParamPath(points=(p, ModelParams(R=1.0, c=1.0, v=1.0)), closed=True)
    loop = phi_loop(p, 8)
    assert loop.closed and len(loop.points) == 9


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
    # below ~1/sqrt(2); exercise the guard with a family collapsed onto the
    # ray orthogonal to the seed.
    import dimerphase.model as model_mod

    params = ModelParams(R=0.0, c=0.0, v=2.0)
    seed = Eigenstate(0.0j, 1.0 + 0.0j, -1.0, 1.0, 0.0)
    lost = model_mod.StationaryFamily(
        params=params,
        states=(Eigenstate(1.0 + 0.0j, 0.0j, -1.0, -1.0, 0.0),),
    )
    monkeypatch.setattr(model_mod, "stationary_states", lambda p, tol=1e-9: lost)
    with pytest.raises(BranchLostError):
        continue_branch(phi_loop(params, 8), seed)


def test_continue_branch_coarse_bias_sweep_reattaches():
    start = ModelParams(R=0.0, c=2.0, v=1.0)
    seed = [s for s in stationary_states(start).states if s.imbalance < -0.5][0]
    coarse = continue_branch(
        linear_path(start, ModelParams(R=2.0, c=2.0, v=1.0), 3), seed
    )
    fine = continue_branch(
        linear_path(start, ModelParams(R=0.4, c=2.0, v=1.0), 100),
        [s for s in stationary_states(start).states if s.imbalance > 0.5][0],
    )
    # the rising branch folds away: a coarse sweep silently lands elsewhere
    assert abs(state_overlap(seed, coarse[-1])) > 0.5
    # while the surviving branch tracks smoothly
    deltas = [
        abs(a.imbalance - b.imbalance) for a, b in zip(fine[:-1], fine[1:])
    ]
    assert max(deltas) < 0.02


def test_state_overlap_hermitian_symmetry():
    fam = stationary_states(ModelParams(R=0.3, c=1.0, v=0.7, phi=0.4))
    a, b = fam.states[0], fam.states[1]
    assert state_overlap(a, b) == pytest.approx(state_overlap(b, a).conjugate())
    assert abs(state_overlap(a, a)) == pytest.approx(1.0, abs=1e-12)


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
