"""Headline acceptance checks, one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each test asserts its criterion at the stated tolerance and prints PASS only
after every assertion held.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from dimerphase import (
    ModelParams,
    berry_phase_closed_form,
    berry_phase_constant_theta,
    berry_phase_discrete,
    berry_phase_perturbative,
    berry_phase_small_overlap,
    berry_phase_unit_overlap,
    circular_drive,
    continue_branch,
    eigenvector_rows,
    evolve_nonlinear,
    frame_loop,
    loschmidt_adiabatic,
    loschmidt_adiabatic_limit,
    loschmidt_dynamical,
    nonlinearity_witness,
    phi_loop,
    solid_angle,
    stationary_states,
    trace_mean,
    transport_sign,
    triple_eigensystem,
    triple_frame,
    zero_drive,
    delta_matrix,
)
from dimerphase.model import Eigenstate

TWO_PI = 2.0 * math.pi


def _verdict(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS - {text}")


def _mod_distance(a: float, b: float) -> float:
    return abs(math.remainder(a - b, TWO_PI))


def _ground_branch(params: ModelParams, n_points: int):
    seed = stationary_states(params).states[0]
    return continue_branch(phi_loop(params, n_points), seed)


def test_criterion_01_root_count_transition():
    for v in (1.2, 1.5, 2.0):
        assert len(stationary_states(ModelParams(R=0.0, c=1.0, v=v))) == 2
    for v in (0.3, 0.5, 0.9):
        assert len(stationary_states(ModelParams(R=0.0, c=1.0, v=v))) == 4
    _verdict(1, "stationary-state count steps 2 -> 4 across v = c")


def test_criterion_02_phase_extremes():
    params = ModelParams(R=0.0, c=1.0, v=2.0)
    ground = stationary_states(params).states[0]
    gamma = berry_phase_closed_form(params.v, ground.energy, ground.imbalance)
    assert abs(gamma - math.pi) < 1e-9
    discrete = berry_phase_discrete(_ground_branch(params, 4096))
    assert _mod_distance(discrete, math.pi) < 1e-5

    weak = ModelParams(R=0.0, c=1.0, v=0.05)
    ground_weak = stationary_states(weak).states[0]
    assert berry_phase_closed_form(weak.v, ground_weak.energy, ground_weak.imbalance) < 0.05 * math.pi
    _verdict(2, "loop phase is pi at weak nonlinearity, collapses at strong")


def test_criterion_03_closed_form_vs_discrete_loop():
    worst = 0.0
    for c in (0.0, 0.5, 2.0):
        for v in (0.5, 1.0, 2.0):
            params = ModelParams(R=0.0, c=c, v=v)
            branch = _ground_branch(params, 4096)
            expected = berry_phase_closed_form(v, branch[0].energy, branch[0].imbalance)
            got = berry_phase_discrete(branch)
            worst = max(worst, _mod_distance(got, expected))
    assert worst < 1e-5
    _verdict(3, f"discrete loop matches closed form on 9 combos (worst {worst:.2e})")


def test_criterion_04_perturbative_reduction():
    rng = np.random.default_rng(101)
    for _ in range(50):
        a = rng.uniform(-0.4, 0.4, size=3)
        b = rng.uniform(-0.4, 0.4, size=3)
        base = rng.uniform(0.8, math.pi - 0.8)

        def theta(phi):
            t = base
            for k in range(3):
                t += a[k] * math.cos((k + 1) * phi) + b[k] * math.sin((k + 1) * phi)
            return min(math.pi - 0.1, max(0.1, t))

        thetas = [theta(p) for p in np.linspace(0.0, 2.0 * math.pi, 1025)]
        loop = frame_loop(thetas, 0.0, n_points=1024)
        om = solid_angle(loop)
        pair = berry_phase_perturbative(loop)
        assert _mod_distance(pair.gamma_n, 0.5 * om) < 1e-8
        assert _mod_distance(pair.gamma_n1, -0.5 * om) < 1e-8

    for s in (0.0, 0.3, 0.9):
        pair = berry_phase_perturbative(frame_loop(0.5 * math.pi, s))
        assert abs(pair.gamma_n - math.pi) < 1e-10
        assert abs(pair.gamma_n1 - math.pi) < 1e-10
    _verdict(4, "full quadrature reduces to half solid angle; equator pins (pi, pi)")


def test_criterion_05_asymptotic_scaling():
    theta = math.pi / 3.0

    def err(s):
        loop = frame_loop(theta, s, n_points=512)
        approx = berry_phase_small_overlap(loop)
        exact = berry_phase_perturbative(loop)
        return abs(approx.gamma_n - exact.gamma_n)

    ratio = err(0.02) / err(0.01)
    assert ratio >= 3.5

    for t in (math.pi / 6.0, math.pi / 3.0, 2.5):
        got = berry_phase_unit_overlap(frame_loop(t, 1.0, n_points=256))
        ref = berry_phase_constant_theta(t, 1.0)
        assert abs(got.gamma_n - ref.gamma_n) < 1e-10
        assert abs(got.gamma_n1 - ref.gamma_n1) < 1e-10
    _verdict(5, f"small-overlap error is O(s^2) (ratio {ratio:.2f}); s=1 limit exact")


def test_criterion_06_witness_step():
    for v in np.arange(0.1, 0.95, 0.1):
        rep = nonlinearity_witness(ModelParams(R=0.0, c=1.0, v=float(v)))
        assert abs(rep.witness - v) < 1e-9
    for v in np.arange(1.1, 2.05, 0.1):
        rep = nonlinearity_witness(ModelParams(R=0.0, c=1.0, v=float(v)))
        assert abs(rep.witness) < 1e-9

    biased = [
        nonlinearity_witness(ModelParams(R=2.0, c=1.0, v=float(v))).witness
        for v in np.linspace(2.0, 10.0, 9)
    ]
    assert all(later < earlier for earlier, later in zip(biased, biased[1:]))
    assert biased[-1] < 0.05
    _verdict(6, "witness steps v -> 0 at v = c and decays smoothly off the line")


def test_criterion_07_echo_convergence():
    assert loschmidt_adiabatic(0.5 * math.pi, 0.0) == 0.5

    base = ModelParams(R=0.0, c=0.0, v=0.0)
    initial = Eigenstate(1.0 + 0.0j, 0.0j, 0.0, -1.0, 0.0)

    def err(T):
        drive = circular_drive(base, 1.0, 0.5 * math.pi, T)
        trace = loschmidt_dynamical(initial, drive, 0.002)
        return abs(trace_mean(trace) - 0.5)

    e50, e100, e200 = err(50.0), err(100.0), err(200.0)
    assert e100 <= 0.5 * e50
    assert e200 <= 0.5 * e100

    assert loschmidt_adiabatic_limit(0.3, -1.0) == pytest.approx(0.09, rel=1e-12)
    assert loschmidt_adiabatic_limit(0.3, +1.0) == 1.0
    _verdict(
        7,
        f"windowed echo converges (err {e50:.1e} -> {e100:.1e} -> {e200:.1e}); limits s^2 and 1",
    )


def test_criterion_08_triple_transport():
    assert [transport_sign("phi", lvl) for lvl in (-1, 0, 1)] == [1, 1, 1]
    assert [transport_sign("theta", lvl) for lvl in (-1, 0, 1)] == [-1, 1, -1]

    rng = np.random.default_rng(103)
    checked = 0
    while checked < 500:
        d, p, q = rng.uniform(-3.0, 3.0, size=3)
        if d * d + p * p + q * q < 1e-4:
            continue
        checked += 1
        frame = triple_frame(d, p, q)
        system = triple_eigensystem(frame)
        dh = delta_matrix(frame)
        for lam, vec in zip(system.eigenvalues, system.vectors):
            assert np.max(np.abs(dh @ vec - lam * vec)) < 1e-10

    for _ in range(100):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, TWO_PI)
        now = eigenvector_rows(theta, phi)
        shifted = eigenvector_rows(theta + math.pi, phi)
        assert np.max(np.abs(shifted[0] - now[2])) < 1e-12
        assert np.max(np.abs(shifted[2] + now[0])) < 1e-12
        assert np.max(np.abs(shifted[1] - now[1])) < 1e-12
    _verdict(8, "transport sign table exact; eigensystem and half-period identities hold")


def test_criterion_09_integrator_quality():
    base = ModelParams(R=0.7, c=0.0, v=1.3, phi=0.9)
    initial = Eigenstate(1.0 + 0.0j, 0.0j, 0.0, -1.0, 0.0)
    times, traj = evolve_nonlinear(initial, zero_drive(base, 10.0), 1e-3)
    h = 0.5 * base.v * np.exp(1j * base.phi)
    H = np.array([[0.5 * base.R, h], [np.conj(h), -0.5 * base.R]])
    oracle = scipy.linalg.expm(-1j * H * times[-1]) @ np.array([1.0, 0.0])
    assert np.max(np.abs(traj[-1] - oracle)) < 1e-8

    _, long_traj = evolve_nonlinear(initial, zero_drive(base, 200.0), 0.002)
    drift = np.max(np.abs(np.sum(np.abs(long_traj) ** 2, axis=1) - 1.0))
    assert drift < 1e-9
    _verdict(9, f"matrix-exponential match at 1e-8; norm drift {drift:.1e} over T=200")


def test_criterion_10_cli_determinism():
    commands = [
        ("spectrum", "--R", "0:2:5", "--v", "1.3", "--c", "0.8"),
        ("berry", "--R", "0", "--v", "0.5:1.5:3", "--c", "2"),
        ("witness", "--R", "0", "--v", "0.5", "--c", "1"),
        ("echo", "--R", "0", "--v", "0.5", "--c", "1", "--T", "2", "--dt", "0.01"),
        ("triple",),
    ]
    for args in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "dimerphase", *args],
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
    _verdict(10, "all five subcommands rerun byte-identical")
