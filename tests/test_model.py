"""Stationary-state machinery: quartic, reconstruction, families, tracking."""

import cmath
import dataclasses
import math
import os
import re
import struct
import subprocess
import sys
import unittest.mock
from pathlib import Path

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
import dimerphase.model as model_mod
from dimerphase._batch import real_roots
from dimerphase.model import (
    TOL,
    TWO_PI,
    Branch,
    StationaryArrays,
    _amplitudes,
    _apply_half,
    _expected_count,
    _has_states,
    _overlap,
    _overlap_parts,
    _phase_factor,
    _point,
    _require_states,
    _residual,
    _states_at_roots,
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
    """H(psi) psi of real amplitudes a1, a2 through the model's kernel."""
    coup = 0.5 * params.v * cmath.exp(1j * params.phi)
    f = _apply_half(0.5 * params.R, 0.5 * params.c, coup.real, coup.imag, a1, 0.0, a2, 0.0)
    return np.array([complex(f[0], f[1]), complex(f[2], f[3])])


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
    # Every root the solver gives is a root of the quartic with these coefficients,
    # and it gives each real root of that quartic.
    roots = solve_quartic_real_roots((params.R, params.c, params.v))
    for t, _ in roots:
        assert abs(np.polyval(expected, t)) <= 1e-14 * np.polyval(np.abs(expected), abs(t))
    real = [z.real for z in np.roots(expected) if abs(z.imag) <= 1e-8]
    assert sum(m for _, m in roots) == len(real)


def test_quartic_phi_independent():
    # The quartic ignores phi: both points share one solve, so their energies
    # agree to the bit.
    states = stationary_arrays([0.3, 0.3], [0.7, 0.7], [0.0, 2.1], [1.1, 1.1])
    assert states.energy[0].tobytes() == states.energy[1].tobytes()


def test_quartic_roots_linear_limit():
    # At c = 0 the quartic is (t^2 + 1)(v (t^2 - 1) + 2 R t): the real roots
    # (-R -+ sqrt(R^2 + v^2)) / v are the two states of the linear problem.
    roots = solve_quartic_real_roots((3.0, 0.0, 4.0))
    assert [(round(r, 12), m) for r, m in roots] == [(-2.0, 1), (0.5, 1)]
    # At v = 0 and R = -c it is 2 (R - c) t^3: a triple root at 0, and one at infinity.
    assert solve_quartic_real_roots((-1.0, 1.0, 0.0)) == [(0.0, 3), (math.inf, 1)]


def test_quartic_roots_double_at_half():
    # (-27, 125, 64) lies on the astroid: 27^(2/3) + 64^(2/3) = 9 + 16 = 125^(2/3).
    # Its double root is tan(beta/2) = 1/2, at cos beta = 3/5, sin beta = 4/5;
    # the quartic is 4 (2t - 1)^2 (4 - 15 t - 16 t^2).
    roots = solve_quartic_real_roots((-27.0, 125.0, 64.0))
    values = [r for r, _ in roots]
    mults = [m for _, m in roots]
    root481 = math.sqrt(481.0)
    expected = [-32.0 / (15.0 + root481), 0.5, 32.0 / (root481 - 15.0)]
    np.testing.assert_allclose(values, expected, rtol=1e-12)
    assert mults == [1, 2, 1]


def test_quartic_roots_from_model_coefficients():
    # R = 0: t = -1 and 1 are the m = 0 states, t = 4 -+ sqrt(15) the
    # self-trapped pair, whose two roots have product 1.
    roots = solve_quartic_real_roots((0.0, 2.0, 0.5))
    values = [r for r, _ in roots]
    mults = [m for _, m in roots]
    root15 = math.sqrt(15.0)
    np.testing.assert_allclose(values, [-1.0, 4.0 - root15, 1.0, 4.0 + root15], rtol=1e-12)
    assert mults == [1, 1, 1, 1]


def test_quartic_triple_root_at_critical_coupling():
    roots = solve_quartic_real_roots((0.0, 1.0, 1.0))
    assert roots == [(-1.0, 1), (1.0, 3)]


def test_quartic_root_at_infinity_without_coupling():
    assert solve_quartic_real_roots((-1.8, 1.0, 0.0)) == [(0.0, 1), (math.inf, 1)]


_ROOT_VALUES = (-2.0, -1.0, -0.5, 0.5, 1.0, 3.0)


@st.composite
def constructed_quartics(draw):
    """A point (R, c, v) whose t-quartic has known real roots, each with its multiplicity.

    For v > 0 two roots r1, r2 are drawn.  The quartic's roots have product -1
    and its t^2 coefficient vanishes, which fixes the other two: the roots of
    x^2 - S x + P with P = -1/(r1 r2) and S = -(r1 r2 + P)/(r1 + r2).  Equal
    roots lie on the astroid (a double root) or at its cusp (t = 1, triple).
    For v = 0 the roots are 0, math.inf and a drawn s > 0, at R = c (s^2 - 1)/(s^2 + 1).
    """
    scale = draw(st.floats(1e-3, 1e3))
    if draw(st.booleans()):
        s = draw(st.sampled_from([t for t in _ROOT_VALUES if t > 0.0]))
        point = (scale * (s * s - 1.0) / (s * s + 1.0), scale, 0.0)
        return point, [(0.0, 1), (s, 1), (math.inf, 1)]
    r1, r2 = draw(st.sampled_from(_ROOT_VALUES)), draw(st.sampled_from(_ROOT_VALUES))
    assume(r1 + r2 != 0.0)
    P = -1.0 / (r1 * r2)
    S = -(r1 * r2 + P) / (r1 + r2)
    assume(S * S >= 4.0 * P)
    half = math.sqrt(S * S - 4.0 * P) / 2.0
    roots = [r1, r2, S / 2.0 - half, S / 2.0 + half]
    e1 = sum(roots)
    e3 = r1 * r2 * (roots[2] + roots[3]) + P * (r1 + r2)
    # p / v = t^4 - e1 t^3 - e3 t - 1, so 2 (R - c) = -e1 v and 2 (R + c) = -e3 v.
    R, c = -(e1 + e3) * scale / 4.0, (e1 - e3) * scale / 4.0
    assume(c >= 0.0)
    distinct = sorted(set(round(t, 9) for t in roots))
    return (R, c, scale), [(t, sum(round(r, 9) == t for r in roots)) for t in distinct]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(quartic=constructed_quartics())
def test_quartic_roots_of_constructed_quartics(quartic):
    point, expected = quartic
    roots = solve_quartic_real_roots(point)
    assert [m for _, m in roots] == [m for _, m in expected]
    np.testing.assert_allclose([t for t, _ in roots], [t for t, _ in expected], rtol=0, atol=1e-9)


def test_quartic_rejects_wrong_length():
    for point in [(1.0, 0.0), (1.0, 0.0, -1.0, 0.0), (1.0, 0.0, -1.0, 0.0, 0.0)]:
        with pytest.raises(ValueError):
            solve_quartic_real_roots(point)


@pytest.mark.parametrize(
    "point", [(1.0, 1.0, math.inf), (0.0, -1.0, 1.0), (0.0, 1.0, -1.0), (math.nan, 1.0, 1.0)]
)
def test_quartic_refuses_what_stationary_arrays_refuses(point):
    # A non-finite point or a negative c or v has no roots to make up.
    R, c, v = point
    with pytest.raises(ValueError) as refused:
        stationary_arrays(R, v, 0.0, c)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        solve_quartic_real_roots(point)


def test_quartic_matches_companion_roots_randomly():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        R, c, v = (float(x) for x in rng.uniform(0.0, 3.0, size=3))
        polished = solve_quartic_real_roots((R, c, v))
        raw = np.roots((v, 2.0 * (R - c), 0.0, 2.0 * (R + c), -v))
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
    roots = [t for t, _ in solve_quartic_real_roots((params.R, params.c, params.v))]
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
    np.testing.assert_allclose([s.energy for s in fam.states], [-1.0, 1.0], atol=1e-12)


def test_family_four_states_strong_nonlinearity():
    fam = stationary_states(ModelParams(R=0.0, c=1.0, v=0.5))
    assert len(fam) == 4
    energies = [s.energy for s in fam.states]
    np.testing.assert_allclose(energies, [-0.5, -0.5, -0.25, 0.25], atol=1e-12)
    pair = [s for s in fam.states if abs(s.energy + 0.5) < 1e-9]
    np.testing.assert_allclose(
        [s.imbalance for s in pair],
        [-math.sqrt(0.75), math.sqrt(0.75)],
        atol=1e-12,
    )


def test_family_critical_coupling_collapses_to_two():
    fam = stationary_states(ModelParams(R=0.0, c=1.0, v=1.0))
    assert len(fam) == 2
    np.testing.assert_allclose([s.energy for s in fam.states], [-0.5, 0.5], atol=1e-12)
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
        np.testing.assert_allclose([s.energy for s in fam.states], expected, atol=1e-9)


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
            amps = np.array([st.amp1, st.amp2])
            resid = np.linalg.norm(_hamiltonian_matrix(params, m) @ amps - st.energy * amps)
            assert resid < 1e-9
            assert 4.0 * st.energy**2 >= params.v**2 - 1e-9
            # gauge: first amplitude real and nonnegative
            assert abs(st.amp1.imag) < 1e-12 and st.amp1.real >= 0.0


def test_energies_phi_independent():
    a = [s.energy for s in stationary_states(ModelParams(R=0.4, c=1.5, v=0.8, phi=0.0)).states]
    b = [s.energy for s in stationary_states(ModelParams(R=0.4, c=1.5, v=0.8, phi=1.9)).states]
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


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    scale=st.floats(0.0, 4.0) | st.sampled_from([1.0 - 2e-6, 1.0 - 5e-7, 1.0 + 5e-7, 1.0 + 2e-6]),
    spoiled=st.none() | st.tuples(st.integers(0, 3), _NON_FINITE),
)
@example(scale=0.0, spoiled=None)
@example(scale=0.4, spoiled=None)
@example(scale=1.0, spoiled=(0, math.nan))
@example(scale=1.0, spoiled=(3, math.inf))
def test_continue_branch_checks_its_seed(scale, spoiled):
    # A seed with a non-finite part or a norm off 1 by more than 1e-6 is
    # refused by its norm, as evolve_nonlinear refuses such an initial state,
    # before any overlap is taken; one within 1e-6 walks as the state itself.
    params = ModelParams(R=0.3, c=2.0, v=0.5)
    lowest = stationary_states(params).states[0]
    parts = [lowest.amp1.real, lowest.amp1.imag, lowest.amp2.real, lowest.amp2.imag]
    parts = [scale * x for x in parts]
    if spoiled is not None:
        parts[spoiled[0]] = spoiled[1]
    seed = dataclasses.replace(
        lowest, amp1=complex(parts[0], parts[1]), amp2=complex(parts[2], parts[3])
    )
    norm = math.hypot(*parts)
    path = phi_loop(params, 16)
    if abs(norm - 1.0) <= 1e-6:
        branch = continue_branch(path, seed)
        assert branch.energy.tobytes() == continue_branch(path, lowest).energy.tobytes()
    else:
        message = f"^seed state has norm {re.escape(repr(norm))},"
        with pytest.raises(InvalidStateError, match=message):
            continue_branch(path, seed)


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
    assert abs(_python_overlap(seed, end)) > 0.5
    # while the surviving branch tracks smoothly
    deltas = [
        abs(a.imbalance - b.imbalance) for a, b in zip(fine[:-1], fine[1:])
    ]
    assert max(deltas) < 0.02


def test_branch_is_a_sequence_of_records():
    params = ModelParams(R=0.5, c=1.0, v=0.7, phi=0.3)
    seed = stationary_states(params).states[0]
    branch = continue_branch(phi_loop(params, 16), seed)
    assert isinstance(branch, Branch) and len(branch) == 17
    records = list(branch)
    assert records[0] == branch[0] and records[-1] == branch[-1] == branch[16]
    assert branch[::-1] == records[::-1] and branch[3:5] == records[3:5]
    assert records.index(branch[4]) == 4
    for k, state in enumerate(records):
        assert isinstance(state.amp1, complex) and isinstance(state.energy, float)
        assert (state.amp1, state.energy) == (branch.amp1[k], branch.energy[k])
    with pytest.raises(IndexError):
        branch[17]


def test_state_columns_are_eigenstate_fields_in_its_order():
    # Branch and StationaryArrays build records as Eigenstate(*columns).
    names = [f.name for f in dataclasses.fields(Eigenstate)]
    for columns in (Branch, StationaryArrays):
        assert [f.name for f in dataclasses.fields(columns)][:5] == names


def test_branch_min_overlap_is_the_smallest_accepted_step():
    # The seed's step counts: a seed off the path's states lowers the minimum.
    params = ModelParams(R=0.3, c=2.0, v=0.5)
    states = stationary_states(params).states
    off = stationary_states(ModelParams(R=0.3, c=2.0, v=0.45)).states[0]
    for path, seed in [
        (phi_loop(params, 64), states[0]),
        (phi_loop(params, 64), off),
        (_bias_sweep(params, 1.5, 9), states[-1]),
    ]:
        branch = continue_branch(path, seed)
        steps = zip([seed, *branch[:-1]], branch)
        assert branch.min_overlap == min(abs(_python_overlap(a, b)) for a, b in steps)
    assert continue_branch(phi_loop(params, 64), off).min_overlap < 1.0 - 1e-6


def _reference_walk(path, seed):
    """The per-point walk continue_branch replaced: the reference for its choices.

    Returns the chosen states and the smallest overlap accepted.
    """
    states = model_mod.stationary_arrays(path.R, path.v, path.phi, path.c)
    bad = (states.failed | ~_has_states(path.R, path.v)).tolist()
    a1, a2 = seed.amp1, seed.amp2
    chosen, accepted = [], []
    for k, n in enumerate(states.count.tolist()):
        if bad[k]:
            _require_states(states, k, _point(path, k))
        cands = list(zip(states.amp1[k, :n].tolist(), states.amp2[k, :n].tolist()))
        best, best_ov = None, -1.0
        for j, (b1, b2) in enumerate(cands):
            ov = abs(a1.conjugate() * b1 + a2.conjugate() * b2)
            if ov > best_ov:
                best, best_ov = j, ov
        if best is None or best_ov < 0.5:
            raise BranchLostError(
                f"best overlap {best_ov:.3f} at {_point(path, k)}; refine the path or stop earlier"
            )
        chosen.append(best)
        accepted.append(best_ov)
        a1, a2 = cands[best]
    return states.take(np.arange(len(path.R)), chosen), min(accepted)


def _walk_outcome(walk):
    """What a walk gave: its states and minimum overlap, or its error's type and text."""
    try:
        states, least = walk()
    except (ArithmeticError, BranchLostError, InvalidStateError) as err:
        return type(err), str(err)
    return repr([(s.amp1, s.amp2, s.energy, s.imbalance, s.residual) for s in states]), least


def _walks_agree(path, seed):
    """Assert continue_branch does what the reference walk does; return that outcome."""

    def walk():
        branch = continue_branch(path, seed)
        return branch, branch.min_overlap

    got = _walk_outcome(walk)
    assert got == _walk_outcome(lambda: _reference_walk(path, seed))
    return got


@st.composite
def walk_paths(draw):
    """Coupling-phase loops and bias sweeps, R = 0, c = v and v = 0 among them."""
    c = draw(nonlinearities)
    v = draw(st.one_of(couplings, st.just(c), st.just(0.0)))
    R = draw(biases)
    phi = draw(st.floats(0.0, 6.28))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        return phi_loop(ModelParams(R, c, v, phi), n)
    stop = draw(st.one_of(biases, st.just(-R)))
    return ParamPath(np.linspace(R, stop, n), *(np.full(n, x) for x in (c, v, phi)))


def _seed_state(path, pick):
    """State pick (cyclically) of the path's first point, or (1, 0) where it has none."""
    try:
        states = stationary_states(_point(path, 0)).states
    except (ArithmeticError, InvalidStateError):
        return Eigenstate(1.0 + 0.0j, 0.0j, 0.0, -1.0, 0.0)
    return states[pick % len(states)]


_WALK_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@_WALK_PROPERTY
@given(path=walk_paths(), pick=st.integers(0, 3))
@example(path=phi_loop(ModelParams(0.0, 1.0, 1.0), 8), pick=1)
@example(path=_bias_sweep(ModelParams(-1.0, 1.0, 0.0), 1.0, 5), pick=0)
# At the loop benchmark's size, 1,024 segments, where the strategy draws at
# most 40: a loop with two states, one with four, and a sweep of the lowest
# state across the astroid at |R| = 0.936, where it folds away (overlap 0.61).
@example(path=phi_loop(ModelParams(0.0, 0.5, 1.0), 1024), pick=0)
@example(path=phi_loop(ModelParams(0.3, 2.0, 0.5), 1024), pick=2)
@example(path=_bias_sweep(ModelParams(-2.0, 2.0, 0.5, 1.0), 2.0, 1025), pick=0)
def test_walk_chooses_as_the_per_point_reference(path, pick):
    _walks_agree(path, _seed_state(path, pick))


def _faulty_solver(failed_at, lost_at, toward, mix):
    """stationary_arrays with point failed_at marked failed, and every state of
    point lost_at replaced by one whose overlap with toward is mix < 0.5."""
    real = model_mod.stationary_arrays

    def solve(*args):
        states = real(*args)
        amp1, amp2, failed = states.amp1.copy(), states.amp2.copy(), states.failed.copy()
        if failed_at is not None:
            failed[failed_at] = True
        if lost_at is not None:
            t1, t2 = toward.amp1, toward.amp2
            rest = math.sqrt(1.0 - mix * mix)
            n = states.count[lost_at]
            amp1[lost_at, :n] = mix * t1 - rest * t2.conjugate()
            amp2[lost_at, :n] = mix * t2 + rest * t1.conjugate()
        return dataclasses.replace(states, amp1=amp1, amp2=amp2, failed=failed)

    return solve


def _faulty_walks_agree(path, seed, failed_at, lost_at, mix):
    """Corrupt the solve at failed_at and lost_at, and compare both walks on it."""
    toward = seed
    if lost_at:
        # The state the reference reaches just before lost_at, where it gets there.
        try:
            toward = _reference_walk(path, seed)[0][lost_at - 1]
        except (ArithmeticError, BranchLostError, InvalidStateError):
            pass
    solver = _faulty_solver(failed_at, lost_at, toward, mix)
    with unittest.mock.patch.object(model_mod, "stationary_arrays", solver):
        return _walks_agree(path, seed)


@_WALK_PROPERTY
@given(
    path=walk_paths(),
    pick=st.integers(0, 3),
    mix=st.floats(0.0, 0.49),
    data=st.data(),
)
def test_walk_raises_as_the_reference_at_the_earlier_fault(path, pick, mix, data):
    point = st.none() | st.integers(0, len(path.R) - 1)
    failed_at, lost_at = data.draw(point), data.draw(point)
    _faulty_walks_agree(path, _seed_state(path, pick), failed_at, lost_at, mix)


@pytest.mark.parametrize(
    ("failed_at", "lost_at", "error"),
    [
        (3, 5, ArithmeticError),
        (5, 3, BranchLostError),
        (4, 4, ArithmeticError),
        (None, 0, BranchLostError),
        (0, None, ArithmeticError),
    ],
)
def test_walk_raises_at_the_earlier_of_a_failed_and_a_lost_point(failed_at, lost_at, error):
    params = ModelParams(R=0.2, c=1.0, v=0.6)
    seed = stationary_states(params).states[0]
    kind, message = _faulty_walks_agree(phi_loop(params, 8), seed, failed_at, lost_at, 0.25)
    assert kind is error
    if error is BranchLostError:
        assert message.startswith("best overlap 0.250 at ")


def _python_overlap(a, b):
    """<a|b> of two states in Python complex arithmetic."""
    return a.amp1.conjugate() * b.amp1 + a.amp2.conjugate() * b.amp2


def _state_overlap(a, b):
    """<a|b> of two states through _overlap_parts, on their real parts."""
    parts = (a.amp1.real, a.amp1.imag, a.amp2.real, a.amp2.imag)
    parts += (b.amp1.real, b.amp1.imag, b.amp2.real, b.amp2.imag)
    return complex(*_overlap_parts(*parts))


def test_state_overlap_hermitian_symmetry():
    fam = stationary_states(ModelParams(R=0.3, c=1.0, v=0.7, phi=0.4))
    a, b = fam.states[0], fam.states[1]
    ab = _state_overlap(a, b)
    assert ab == pytest.approx(_state_overlap(b, a).conjugate())
    assert abs(_state_overlap(a, a)) == pytest.approx(1.0, abs=1e-12)


_amplitude_parts = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0, 1e-300, -1e-170])


def _python_inner(a1, a2, b1, b2):
    """Hex of the parts and modulus of <a|b> in Python complex arithmetic."""
    want = a1.conjugate() * b1 + a2.conjugate() * b2
    return want.real.hex(), want.imag.hex(), abs(want).hex()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    parts=st.lists(st.tuples(*[_amplitude_parts] * 8), min_size=1, max_size=8),
    columns=st.lists(st.tuples(*[_amplitude_parts] * 16), min_size=2, max_size=6),
)
def test_overlap_parts_round_as_python_complex(parts, columns):
    # One formula for scalars and arrays, bit for bit Python's complex product
    # and sum; np.hypot of the parts is Python's complex abs.  Each drawn row
    # is (x1, y1, x2, y2, u1, w1, u2, w2): a1 = x1 + i y1, ..., b2 = u2 + i w2.
    # _overlap takes the same pairs (a1, a2, b1, b2) as complex numbers or arrays.
    re, im = _overlap_parts(*(np.array(column) for column in zip(*parts)))
    pairs = [[complex(x, y) for x, y in zip(p[::2], p[1::2])] for p in parts]
    by_pairs = _overlap(*(np.array(column) for column in zip(*pairs)))
    assert (by_pairs[0].tobytes(), by_pairs[1].tobytes()) == (re.tobytes(), im.tobytes())
    moduli = np.hypot(re, im).tolist()
    for p, pair, x, y, modulus in zip(parts, pairs, re.tolist(), im.tolist(), moduli):
        want = _python_inner(*pair)
        for got in ((x, y), _overlap_parts(*p), _overlap(*pair)):
            assert (got[0].hex(), got[1].hex()) == want[:2]
        assert modulus.hex() == want[2]

    # The walk's table: parts (4, n + 1) of candidates by points, whose
    # columns k and k + 1 meet at table[i, j, k], as (4, 1, n) against (1, 4, n).
    # Each drawn column holds part p of candidate i at index 4 p + i.
    grid = np.array(columns).T.reshape(4, 4, len(columns))
    before, after = grid[:, :, :-1], grid[:, :, 1:]
    re, im = _overlap_parts(*before[:, :, None], *after[:, None, :])
    assert re.shape == im.shape == (4, 4, len(columns) - 1)
    moduli = np.hypot(re, im)
    for i, j, k in np.ndindex(re.shape):
        a1, a2 = (complex(*grid[p : p + 2, i, k].tolist()) for p in (0, 2))
        b1, b2 = (complex(*grid[p : p + 2, j, k + 1].tolist()) for p in (0, 2))
        got = (float(re[i, j, k]).hex(), float(im[i, j, k]).hex(), float(moduli[i, j, k]).hex())
        assert got == _python_inner(a1, a2, b1, b2)
    # continue_branch builds it one row i at a time, (n,) against (4, n).
    for i in range(4):
        row = _overlap_parts(*before[:, i], *after)
        assert (row[0].tobytes(), row[1].tobytes()) == (re[i].tobytes(), im[i].tobytes())


def _python_kernel(hR, hc, coup, a1, a2):
    """The kernel's formula on complex numbers, in Python complex arithmetic."""
    m = (a2.real * a2.real + a2.imag * a2.imag) - (a1.real * a1.real + a1.imag * a1.imag)
    diag = hR + hc * m
    return diag * a1 + coup * a2, coup.conjugate() * a1 - diag * a2


def _bits(*values):
    """The bytes of some floats: signed zeros count."""
    return struct.pack(f"{len(values)}d", *values)


def _complex_array(re, im):
    """re + i im with both parts kept as they are (re + 1j * im rounds a -0.0 or inf part)."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


# O(1) values with full mantissas, whose products round and cancel in sums;
# and zeros of both signs, subnormals, and magnitudes from 1e-300 to 1e300,
# whose products overflow to inf and whose sums of infs are nan.
_generic_part = st.floats(-2.0, 2.0).map(lambda x: x * math.pi)
_kernel_part = (
    _generic_part
    | st.floats(-1e300, 1e300)
    | st.floats(-1e-300, 1e-300)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300, 1e300, 1.0, -1.0])
)


def _parts(n, part=_kernel_part):
    """n floats: all O(1), where rounding shows, or any mix of the kinds above."""
    return st.tuples(*[_generic_part] * n) | st.tuples(*[part] * n)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rows=st.lists(_parts(8), min_size=1, max_size=8))
def test_apply_half_rounds_as_python_complex(rows):
    # The real-part kernel, on scalars and on arrays, is bit for bit the
    # complex formula in Python's complex arithmetic.
    columns = [np.array(column) for column in zip(*rows)]
    with np.errstate(all="ignore"):
        on_arrays = np.stack(_apply_half(*columns), axis=1).tolist()
    for (hR, hc, gr, gi, x1, y1, x2, y2), array_row in zip(rows, on_arrays):
        f1, f2 = _python_kernel(hR, hc, complex(gr, gi), complex(x1, y1), complex(x2, y2))
        want = _bits(f1.real, f1.imag, f2.real, f2.imag)
        assert _bits(*_apply_half(hR, hc, gr, gi, x1, y1, x2, y2)) == want
        assert _bits(*array_row) == want


_residual_point = st.tuples(
    _parts(5),  # R, c, v and the parts of the phase factor
    # x1, y1, x2, y2, E of four states, infinite parts among them
    st.lists(_parts(5, _kernel_part | st.sampled_from([math.inf, -math.inf])), min_size=4, max_size=4),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(points=st.lists(_residual_point, min_size=1, max_size=6))
def test_residual_rounds_as_python_complex(points):
    # _residual on (n, 4) arrays against its complex form, d = H(psi) psi - E psi
    # and |d| by np.hypot, with H(psi) psi and E psi in Python's complex
    # arithmetic.  (numpy's complex product may fuse a multiply and an add.)
    # Infinite amplitude parts check that leaving out E psi's 0.0 * y terms
    # keeps every residual.
    R, c, v, phase_re, phase_im = (np.array(column)[:, None] for column in zip(*(p for p, _ in points)))
    x1, y1, x2, y2, E = (np.array(column) for column in zip(*(zip(*rows) for _, rows in points)))
    a1, a2, phase = _complex_array(x1, y1), _complex_array(x2, y2), _complex_array(phase_re, phase_im)
    with np.errstate(all="ignore"):
        got = _residual(R, c, v, phase, a1, a2, E)
        coup = 0.5 * v * phase
    d = np.empty((4,) + E.shape)
    for k, j in np.ndindex(E.shape):
        A1, A2, e = complex(a1[k, j]), complex(a2[k, j]), E[k, j].item()
        h1, h2 = _python_kernel(0.5 * R[k, 0].item(), 0.5 * c[k, 0].item(), complex(coup[k, 0]), A1, A2)
        d1, d2 = h1 - e * A1, h2 - e * A2
        d[:, k, j] = d1.real, d1.imag, d2.real, d2.imag
    want = np.hypot(np.hypot(d[0], d[1]), np.hypot(d[2], d[3]))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# properties over the whole parameter range

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

couplings = st.floats(-300.0, 1.0).map(lambda e: 10.0**e)
biases = st.one_of(st.floats(-10.0, 10.0), st.just(0.0), st.floats(-1e-3, 1e-3))
nonlinearities = st.floats(0.0, 10.0)


def _astroid_side(R, c, v):
    """-1 inside |R|^(2/3) + v^(2/3) = c^(2/3), +1 outside, 0 in its band: the kernel's rule."""
    expected, band = _expected_count(R, c, v)
    return 0 if band else (-1 if expected == 4 else 1)


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
    plus = [s.energy for s in stationary_states(ModelParams(R=R, c=c, v=v)).states]
    minus = [s.energy for s in stationary_states(ModelParams(R=-R, c=c, v=v)).states]
    np.testing.assert_allclose(minus, plus, rtol=1e-12, atol=0.0)


@_PROPERTY
@given(c=nonlinearities, v=couplings)
def test_self_trapped_pair_shares_energy_and_starts_at_negative_imbalance(c, v):
    assume(c > v * (1.0 + 1e-6))
    states = stationary_states(ModelParams(R=0.0, c=c, v=v)).states
    assert states[0].energy == states[1].energy
    assert states[0].imbalance < 0.0


@_PROPERTY
@given(R=st.floats(-3.0, 3.0), c=st.floats(0.0, 3.0), v=couplings)
@example(R=0.0, c=1.0, v=1e-23)
@example(R=0.3, c=1.0, v=1e-300)
def test_state_count_is_the_astroids(R, c, v):
    # Every point has the astroid's count of states or is marked failed, and
    # only a point in the band around the astroid may be failed.
    states = stationary_arrays(R, v, 0.0, c)
    expected, band = _expected_count(R, c, v)
    count, failed = int(states.count[0]), bool(states.failed[0])
    assert failed or count == expected or (band and 2 <= count <= 4)
    assert band or not failed


@_PROPERTY
@given(
    R=st.floats(-3.0, 3.0),
    c=st.floats(0.1, 3.0),
    v=couplings,
    k=st.floats(-300.0, 0.0, exclude_max=True).map(lambda e: 10.0**e),
)
@example(R=0.3, c=1.0, v=0.5, k=1e-30)
def test_four_states_inside_the_astroid_at_any_smaller_coupling(R, c, v, k):
    # A coupling so small that 2 (|R| + c) / v overflows marks the point failed.
    assume(_astroid_side(R, c, v) < 0 and k * v > 0.0)
    assume(math.isfinite(2.0 * (abs(R) + c) / (k * v)))
    states = stationary_arrays(R, [v, k * v], 0.0, c)
    assert states.count.tolist() == [4, 4]
    assert not states.failed.any()


def _mp_quartic(mpmath, R, c, v):
    """The t-quartic's coefficients at 40 digits, from the floats as they are."""
    R, c, v = (mpmath.mpf(x) for x in (R, c, v))
    return [v, 2 * (R - c), mpmath.mpf(0), 2 * (R + c), -v]


def _mp_derivative(coeffs):
    return [(len(coeffs) - 1 - i) * a for i, a in enumerate(coeffs[:-1])]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    theta=st.floats(-40.0, 0.0).map(lambda e: 10.0**e * math.pi / 2.0),
    mirror=st.booleans(),
    c=st.floats(0.1, 10.0),
    offset=st.floats(-8.0, -3.0).map(lambda e: 10.0**e) | st.just(0.0),
    outside=st.booleans(),
)
@example(theta=1e-10, mirror=False, c=1.0, offset=1e-8, outside=False)
@example(theta=math.pi / 2.0, mirror=False, c=1.0, offset=1e-8, outside=False)
@example(theta=math.pi / 2.0, mirror=False, c=3.0, offset=0.0, outside=False)
def test_roots_agree_with_mpmath_near_the_astroid_and_at_its_cusp(
    theta, mirror, c, offset, outside
):
    # Points a relative 1e-8 to 1e-3 off the astroid, tiny couplings and the
    # neighbourhood of the cusp (theta = pi/2) included.  Every real root is
    # found, simple, and within rounding of the 40-digit one: 64 eps times its
    # condition number sum |a_i t^i| / |p'(t)|.  At the cusp itself (offset 0),
    # R = 0 and c = v: the roots are -1, simple, and 1, triple, and at 40 digits
    # p vanishes at both, p' only at 1, and p'' at 1 too, but not p'''.
    mpmath = pytest.importorskip("mpmath")
    if offset == 0.0:
        assert solve_quartic_real_roots((0.0, c, c)) == [(-1.0, 1), (1.0, 3)]
        with mpmath.workdps(40):
            p = _mp_quartic(mpmath, 0.0, c, c)
            d1 = _mp_derivative(p)
            d2 = _mp_derivative(d1)
            assert mpmath.polyval(p, -1) == 0 and mpmath.polyval(d1, -1) != 0
            at_one = [mpmath.polyval(q, 1) == 0 for q in (p, d1, d2, _mp_derivative(d2))]
            assert at_one == [True, True, True, False]
        return
    theta = math.pi - theta if mirror else theta
    scale = c * (1.0 + offset if outside else 1.0 - offset)
    R, v = scale * math.cos(theta) ** 3, scale * math.sin(theta) ** 3
    assume(v > 0.0 and _astroid_side(R, c, v) != 0)
    roots = solve_quartic_real_roots((R, c, v))
    with mpmath.workdps(40):
        coeffs = _mp_quartic(mpmath, R, c, v)
        # The roots span up to 240 decades; 1000 extra bits resolve the smallest.
        ref = mpmath.polyroots(coeffs, maxsteps=500, cleanup=False, extraprec=1000)
        ref = sorted(z.real for z in ref if abs(z.imag) <= mpmath.mpf(10) ** -20 * abs(z))
        assert [m for _, m in roots] == [1] * len(ref)
        for (t, _), r in zip(roots, ref):
            size = mpmath.polyval([abs(a) for a in coeffs], abs(r))
            slope = abs(mpmath.polyval(_mp_derivative(coeffs), r))
            assert abs(mpmath.mpf(t) - r) <= 64 * np.finfo(float).eps * size / slope


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    f=st.floats(0.0, 1.0, exclude_max=True),
    c=st.floats(0.5, 2.0),
    v=st.floats(-3.0, 0.3).map(lambda e: 10.0**e),
)
@example(f=0.5, c=1.0, v=0.7)
@example(f=0.96, c=1.0, v=0.02)
@example(f=0.04, c=1.0, v=1.0)
def test_root_short_of_the_inflection_agrees_with_mpmath(f, c, v):
    # Outside the astroid with 0 <= R < c, where p(-A/2) > 0 (A = 2 (R - c)/v), the
    # one positive root lies short of p's inflection at -A/2 > 0.  Newton from
    # beyond the roots need not reach it there; the kernel climbs to it from
    # t = 0.  The loop point (0.5, 1, 0.7) and the seed-0 grid's rows at R = 0.04
    # to 0.96 are such points.  Both roots are simple and within rounding of the
    # 40-digit ones, as in the test above.
    mpmath = pytest.importorskip("mpmath")
    R, v = f * c, v * c
    A, B = 2.0 * (R - c) / v, 2.0 * (R + c) / v
    assume(_astroid_side(R, c, v) > 0 and A * A / 16.0 + B / (2.0 * A) + 1.0 / (A * A) < 0.0)
    roots = solve_quartic_real_roots((R, c, v))
    with mpmath.workdps(40):
        coeffs = _mp_quartic(mpmath, R, c, v)
        ref = mpmath.polyroots(coeffs, maxsteps=500, cleanup=False, extraprec=200)
        ref = sorted(z.real for z in ref if abs(z.imag) <= mpmath.mpf(10) ** -20 * abs(z))
        assert [m for _, m in roots] == [1, 1] and len(ref) == 2
        for (t, _), r in zip(roots, ref):
            size = mpmath.polyval([abs(a) for a in coeffs], abs(r))
            slope = abs(mpmath.polyval(_mp_derivative(coeffs), r))
            assert abs(mpmath.mpf(t) - r) <= 64 * np.finfo(float).eps * size / slope


# The benchmark's twelve loop points (R, c, v), the two cusps (0, 0.5, 0.5) and
# (0, 2, 2) among them.
_LOOP_POINTS = [(0.0, c, v) for c in (0.0, 0.5, 2.0) for v in (0.5, 1.0, 2.0)]
_LOOP_POINTS += [(0.5, 1.0, 0.7), (-0.8, 1.5, 0.6), (0.3, 2.0, 0.5)]


def test_kernel_needs_no_eigenvalue_solver(monkeypatch):
    # The t-quartic is rooted with +, -, *, / and sqrt: no companion matrix.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    R, v = np.repeat(np.linspace(-2.0, 2.0, 101), 101), np.tile(np.linspace(0.0, 2.0, 101), 101)
    states = stationary_arrays(R, v, 0.0, 1.0)
    assert not states.failed.any()
    assert (states.count[v > 0.0] >= 2).all()
    for R, c, v in _LOOP_POINTS:
        states = stationary_arrays(R, v, 0.0, c)
        assert not states.failed[0] and states.count[0] >= 2


def test_uncoupled_bias_beyond_nonlinearity_is_fully_polarized():
    fam = stationary_states(ModelParams(R=-1.8, c=1.0, v=0.0))
    assert [s.energy for s in fam.states] == pytest.approx([-1.4, 0.4], abs=1e-15)
    assert [s.imbalance for s in fam.states] == [-1.0, 1.0]


# |R| and c log-uniform up to the top of the float range, from the subnormals.
_uncoupled_scales = st.floats(-323.0, math.log10(1.78e308)).map(lambda e: 10.0**e)


@st.composite
def uncoupled_points(draw):
    """(R, c) at v = 0, R != 0 of either sign; c drawn alone, 0, or a few ulps from |R|."""
    R = draw(st.sampled_from([-1.0, 1.0])) * draw(_uncoupled_scales)
    kind = draw(st.sampled_from(["apart", "zero", "near"]))
    if kind == "apart":
        return R, draw(_uncoupled_scales)
    c, steps = abs(R), draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        c = math.nextafter(c, math.copysign(math.inf, steps))
    return R, 0.0 if kind == "zero" else max(c, 0.0)


@_PROPERTY
@given(point=uncoupled_points())
@example(point=(-1.0231437333429191e308, 1.0231437333429191e308))
@example(point=(1e308, 1e308))
def test_uncoupled_point_keeps_both_polarized_states(point):
    # At v = 0 the polarized states m = +1 and -1 exist at every bias, at the
    # diagonal of the halved H, -(R/2 + c/2) and R/2 - c/2, which are floats
    # wherever R and c are; where |R| < c the free-phase state m = -R/c is a third.
    R, c = point
    states = stationary_arrays(R, 0.0, 0.0, c)
    assert not states.failed[0]
    assert states.count[0] == 2 + (abs(R) < c)
    energy = states.energy[0, : states.count[0]].tolist()
    for want in (-(R / 2 + c / 2), R / 2 - c / 2):
        # Exact, unless the 1e-12 relative level merge joined the two.
        assert min(abs(e - want) for e in energy) <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    ("R", "v", "count"),
    [
        pytest.param(0.3, 1e-8, 4, id="0.3-4"),
        pytest.param(5.0, 1e-8, 2, id="5.0-2"),
        pytest.param(5.0, 1e-154, 2, id="5.0-1e-154-2"),
        pytest.param(-5.0, 1e-300, 2, id="-5.0-1e-300-2"),
    ],
)
def test_tiny_coupling_keeps_every_state(R, v, count):
    # Below v ~ 1e-154 the far root's t^2 overflows; its state comes from 1/t.
    fam = stationary_states(ModelParams(R=R, c=1.0, v=v))
    assert len(fam) == count


def test_tiny_coupling_resolves_the_inner_pair():
    fam = stationary_states(ModelParams(R=0.3, c=1.0, v=1e-6))
    assert len(fam) == 4
    energies = [s.energy for s in fam.states[2:]]
    np.testing.assert_allclose(energies, [-5.2414e-7, 5.2414e-7], rtol=1e-4)


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


# 0.0 == -0.0, so the two biases share one quartic solve in a batch; each row
# must still be what its own point gives, the sign of zero included.
_SIGNED_ZEROS = [
    (R, c, v, 0.0)
    for c, v in [(1.0, 0.5), (0.0, 1.0), (1.0, 1.0), (2.0, 1.2), (1.0, 0.0)]
    for R in (0.0, -0.0)
]


@_BATCH_PROPERTY
@given(points=kernel_batches)
@example(points=_SIGNED_ZEROS)
@example(points=_SIGNED_ZEROS[::-1])
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


def _per_root_states(params):
    """States from one reconstruct_states call per root, merged and sorted in Python."""
    roots = solve_quartic_real_roots((params.R, params.c, params.v))
    states = [s for t, _ in roots for s in reconstruct_states(params, t)]
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


@_BATCH_PROPERTY
@given(points=kernel_batches, perm=st.permutations(range(4)))
@example(
    points=[(0.0, 0.0, 5e-324, 0.7), (5e-324, 0.0, 5e-324, 0.0), (0.0, 5e-324, 5e-324, 0.0)],
    perm=[3, 2, 1, 0],
)
def test_kernel_reads_no_root_order(points, perm):
    # real_roots returns each row's roots in no set order: the states built
    # from them are the same bytes whatever order each row's roots come in.
    # At subnormal v the energies -+v/2 round to -0.0 and 0.0, one level,
    # and the states tie in imbalance too: only the roots can order them.
    R, c, v, phi = _columns(*zip(*points))
    roots = real_roots(R, c, v)[0]
    roots[~_has_states(R, v)] = np.nan
    at = np.arange(len(points))
    want = _states_at_roots(R, c, v, roots, at, phi)
    got = _states_at_roots(R, c, v, roots[:, perm], at, phi)
    for name in ("energy", "amp1", "amp2", "imbalance", "residual", "count", "failed"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_kernel_of_no_points_is_empty():
    states = stationary_arrays(np.array([]), np.array([]), 0.0, 1.0)
    for name in ("energy", "amp1", "amp2", "imbalance", "residual"):
        assert getattr(states, name).shape == (0, 4)
    assert states.count.shape == states.failed.shape == (0,)


# The gauge's hard cases: in the astroid's band, at its cusp, uncoupled, and the origin.
_GAUGE_POINTS = [(0.25**1.5, 1.0, 0.75**1.5 * (1.0 + 1e-13)), (0.0, 1.0, 1.0), (0.3, 1.0, 0.0)]
_GAUGE_POINTS += [(-1.8, 1.0, 0.0), (0.0, 1.0, 0.0)]


@_BATCH_PROPERTY
@given(points=kernel_batches)
@example(points=[(R, c, v, phi) for R, c, v in _GAUGE_POINTS for phi in (0.7, 3.0, 6.28)])
def test_phi_is_a_gauge_that_turns_only_amp2(points):
    # U = diag(1, e^{-i phi}) takes the states at phi = 0 to those at phi: the
    # energy, imbalance and residual are those at phi = 0 to the bit, and only
    # amp2 turns, where amp1 > 0; at amp1 = 0 the gauge keeps amp2 = 1.
    R, c, v, phi = _columns(*zip(*points))
    turned, states = stationary_arrays(R, v, phi, c), stationary_arrays(R, v, 0.0, c)
    for name in ("energy", "amp1", "imbalance", "residual", "count", "failed"):
        assert getattr(turned, name).tobytes() == getattr(states, name).tobytes()
    moved = states.amp1.real > 0.0
    rotated = states.amp2 * _phase_factor(phi)[:, None].conjugate()
    assert (turned.amp2[moved] == rotated[moved]).all()
    assert turned.amp2[~moved].tobytes() == states.amp2[~moved].tobytes()


@pytest.mark.parametrize(
    "R, v, c", [(math.nan, 1.0, 1.0), (0.0, math.inf, 1.0), (0.0, -1.0, 1.0), (0.0, 1.0, -1.0)]
)
def test_kernel_rejects_bad_parameters(R, v, c):
    with pytest.raises(ValueError):
        stationary_arrays([0.0, R], [1.0, v], 0.0, c)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(phis=st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=16))
@example(phis=[0.0])
def test_phase_factor_rounds_as_cmath(phis):
    # The kernel rotates amplitudes by the conjugate, e^{-i phi}; both must be
    # cmath's values bit for bit, the sign of a zero imaginary part included.
    phase = _phase_factor(np.array(phis))
    for phi, e, rot in zip(phis, phase.tolist(), phase.conjugate().tolist()):
        for got, want in ((e, cmath.exp(1j * phi)), (rot, cmath.exp(-1j * phi))):
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


_decades = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_signs = st.sampled_from([-1.0, 1.0])
# (R, c, v) over 600 decades, R of either sign, and couplings down to 1e-300 at
# |R|, c = O(1), where the far root t ~ 2 max(|R|, c) / v squares past the
# largest float.  The kernel's A and B are 2 (R -+ c) / v, which must stay finite.
scaled_points = st.one_of(
    st.tuples(st.builds(lambda sign, x: sign * x, _signs, _decades), _decades, _decades),
    st.tuples(
        st.builds(lambda sign, x: sign * x, _signs, st.floats(0.1, 10.0)),
        st.floats(0.0, 10.0),
        st.floats(-300.0, -100.0).map(lambda e: 10.0**e),
    ),
).filter(lambda p: math.isfinite(2.0 * max(abs(p[0]), p[1]) / p[2]))


@_BATCH_PROPERTY
@given(points=st.lists(scaled_points, min_size=1, max_size=24))
@example(points=[(1e8, 1.0, 1.0), (0.0, 1.0, 1e8), (0.0, 1e12, 1.0), (-3e60, 2e-40, 5e-20)])
@example(points=[(1.0, 0.0, 1e-154), (1.0, 0.0, 1e-200), (-2.0, 1.0, 1e-300)])
def test_kernel_keeps_every_state_at_any_scale(points):
    # Rounding in H(psi) psi grows with max(|R|, c, v), and so does the residual
    # test: a large scale must not reject true states and fail the point.
    R, c, v = (np.array(x) for x in zip(*points))
    states = stationary_arrays(R, v, 0.0, c)
    scale = np.maximum(np.maximum(1.0, np.abs(R)), np.maximum(c, v))
    assert not states.failed.any()
    assert ((2 <= states.count) & (states.count <= 4)).all()
    for k, n in enumerate(states.count.tolist()):
        assert (states.residual[k, :n] < TOL * scale[k]).all()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(points=kernel_batches, below=st.integers(0, 8) | st.integers(0, 1100))
@example(points=[(-1.0, 0.0, 1.0, 0.0), (0.0, 1.5, 1.0, 0.0), (0.3, 1.0, 0.2, 0.0)], below=1)
def test_kernel_is_exact_under_power_of_two_scaling(points, below):
    # Scaling R, c and v by 2^k scales every energy by 2^k and keeps every
    # other column's bytes, up to where the inputs and energies are floats:
    # real_roots brings a row at or above 2^1020 below it before rooting.
    # Values below 1e-300 are taken as 0: there the unscaled point rounds
    # through subnormals, which the scaled one does not.
    R, c, v, phi = _columns(*zip(*points))
    R, c, v = (np.where(np.abs(x) < 1e-300, 0.0, x) for x in (R, c, v))
    # below = 0 takes the largest input to [2^1022, 2^1023).
    k = max(0, 1023 - np.frexp(np.max([np.abs(R), c, v]))[1] - below)
    states = stationary_arrays(R, v, phi, c)
    with np.errstate(over="ignore"):
        energy = np.ldexp(states.energy, k)
    assume(not np.isinf(energy).any())
    scaled = stationary_arrays(np.ldexp(R, k), np.ldexp(v, k), phi, np.ldexp(c, k))
    for name in ("amp1", "amp2", "imbalance", "count", "failed"):
        assert getattr(scaled, name).tobytes() == getattr(states, name).tobytes()
    assert scaled.energy.tobytes() == energy.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernel_marks_overflowing_points_failed_and_solves_the_rest():
    # The quartic's 2 R / v overflows at v = 1 and R = 1e308, at v = 1e-300
    # and R = 1e10, and at v = 5e-324 and R = 2.  None may warn or stop the
    # other points of the batch.  At R = 1e308, v = 0, 2 (R - c) would
    # overflow, but the row is scaled below 2^1020 first: its two states are
    # at E = -(R + c)/2 and (R - c)/2.  At v = 1.7e308 the polish's slope
    # coefficients and v (1 + t^2) overflow, yet both states are found, at
    # E = -+v/2.  At R = c = v = 1.7e308 an energy overflows, and the point fails.
    R = [1e308, 1e308, 1e10, 2.0, 0.0, 1e10, 1.7e308]
    v = [0.0, 1.0, 1e-300, 5e-324, 1.7e308, 1.0, 1.7e308]
    states = stationary_arrays(R, v, 0.0, [1.0] * 6 + [1.7e308])
    assert states.failed.tolist() == [False, True, True, True, False, False, True]
    assert states.count.tolist()[4:6] == [2, 2]
    assert states.energy[0, :2].tolist() == [-5e307, 5e307]
    assert states.energy[4, :2].tolist() == [-0.85e308, 0.85e308]


def test_kernel_keeps_apart_two_levels_whose_difference_overflows():
    # At R = 8.5e307, c = 0, v = 1.7e308 the energies are -+hypot(R/2, v/2) =
    # -+9.5e307, and their difference overflows to inf: the degenerate-level
    # merge must not warn (warnings are errors here), and the levels stay two.
    states = stationary_arrays(8.5e307, 1.7e308, 0.0, 0.0)
    assert not states.failed.any()
    assert states.count.tolist() == [2]
    level = math.hypot(4.25e307, 0.85e308)
    assert states.energy[0, :2].tolist() == pytest.approx([-level, level], rel=1e-12)


def test_amplitude_moduli_match_mpmath_from_tiny_to_huge_roots():
    # Built from w = min(|t|, 1/|t|), whose square neither over- nor underflows,
    # both moduli keep full precision at roots far below and above 1.
    mpmath = pytest.importorskip("mpmath")
    t = 10.0 ** np.linspace(-320.0, 300.0, 1241)
    t = np.concatenate([t, -t])
    with np.errstate(over="ignore"):  # 1/t overflows below |t| ~ 5.6e-309.
        amp1, amp2 = _amplitudes(t)
    with mpmath.workdps(40):
        for x, a1, a2 in zip(t.tolist(), np.abs(amp1).tolist(), np.abs(amp2).tolist()):
            root = mpmath.sqrt(1 + mpmath.mpf(x) ** 2)
            assert abs(a1 * root / abs(mpmath.mpf(x)) - 1) <= 4e-16
            assert abs(a2 * root - 1) <= 4e-16


# The states of the seed-0 101x101 spectrum grid at two coupling phases, of
# points around the astroid and along the benchmark's loops, one digest per array.
_GRID_DIGESTS = f"""
import hashlib
import numpy as np
from dimerphase.model import ModelParams, phi_loop, stationary_arrays
R, v = np.meshgrid(np.linspace(-2.0, 2.0, 101), np.linspace(0.0, 2.0, 101), indexing="ij")
# 40,000 points a relative 1e-12 to 1e-6 off the astroid |R|^(2/3) + v^(2/3) = 1,
# 19,012 of them in its band, built with exact operations only.
u = np.linspace(0.0005, 0.9995, 20000)
rel = np.array([(-1.0) ** k * 10.0 ** (-6.0 - 6.0 * k / 20000) for k in range(20000)])
bias, coupling = u * np.sqrt(u) * (1.0 + rel), (1.0 - u) * np.sqrt(1.0 - u) * (1.0 + rel)
runs = [(R.ravel(), v.ravel(), phi, 1.0) for phi in (0.0, 0.7)]
runs.append((np.r_[bias, -bias], np.r_[coupling, coupling], 0.0, 1.0))
# The benchmark's twelve phi loops of 1,025 points, where amp2 turns row by row.
for point in {_LOOP_POINTS!r}:
    path = phi_loop(ModelParams(*point), 1024)
    runs.append((path.R, path.v, path.phi, path.c))
for k, run in enumerate(runs):
    states = stationary_arrays(*run)
    for name in ("energy", "amp1", "amp2", "imbalance", "residual", "count", "failed"):
        print(k, name, hashlib.sha256(getattr(states, name).tobytes()).hexdigest())
"""


def test_state_arrays_do_not_depend_on_the_cpu_path():
    """The grid's state arrays, and those of points around the astroid, are
    bit-identical with every SIMD feature that numpy dispatches to turned off,
    the feature list built as CI builds it.
    Where numpy dispatches nothing, both runs take one path and the test
    checks nothing."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    features = " ".join(f for f in core.__cpu_dispatch__ if core.__cpu_features__.get(f))
    env = {**os.environ, "PYTHONPATH": str(Path(model_mod.__file__).parents[1])}
    runs = [
        subprocess.run(
            [sys.executable, "-c", _GRID_DIGESTS],
            env={**env, "NPY_DISABLE_CPU_FEATURES": off},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for off in ("", features)
    ]
    assert runs[1] == runs[0]
