"""Lambda-coupled triple: frames, eigensystems, transport signs, loop winding."""

import math

import numpy as np
import pytest

from dimerphase import (
    AtDegeneracyError,
    NonCoplanarLoopError,
    delta_matrix,
    eigenvector_rows,
    encloses_degeneracy,
    transport_sign,
    triple_eigensystem,
    triple_frame,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# frames


def test_frame_pure_transverse():
    f = triple_frame(0.0, 1.0, 0.0)
    assert f.omega == pytest.approx(2.0)
    assert f.theta == pytest.approx(math.pi / 2.0)
    assert f.phi_angle == pytest.approx(0.0)


def test_frame_pure_diagonal():
    f = triple_frame(2.0, 0.0, 0.0)
    assert f.omega == pytest.approx(2.0)
    assert f.theta == pytest.approx(0.0)
    assert f.phi_angle == 0.0


def test_frame_mixed():
    f = triple_frame(1.0, 1.0, 1.0)
    assert f.omega == pytest.approx(3.0)
    assert math.cos(f.theta) == pytest.approx(1.0 / 3.0)
    assert f.phi_angle == pytest.approx(math.pi / 4.0)


def test_frame_rejects_degeneracy():
    with pytest.raises(AtDegeneracyError):
        triple_frame(0.0, 0.0, 0.0)


def test_frame_invariants_random():
    rng = np.random.default_rng(41)
    for _ in range(500):
        d, p, q = rng.uniform(-3.0, 3.0, size=3)
        if d * d + p * p + q * q < 1e-6:
            continue
        f = triple_frame(d, p, q)
        assert f.omega == pytest.approx(math.sqrt(d * d + 4 * p * p + 4 * q * q))
        assert 0.0 <= f.theta <= math.pi
        assert 0.0 <= f.phi_angle < TWO_PI
        assert f.omega * math.cos(f.theta) == pytest.approx(d, abs=1e-12)
        assert f.omega * math.sin(f.theta) * math.cos(f.phi_angle) == pytest.approx(
            2.0 * p, abs=1e-12
        )
        assert f.omega * math.sin(f.theta) * math.sin(f.phi_angle) == pytest.approx(
            2.0 * q, abs=1e-12
        )


# ---------------------------------------------------------------------------
# eigensystem


def test_delta_matrix_layout():
    f = triple_frame(1.0, 2.0, 3.0)
    np.testing.assert_array_equal(
        delta_matrix(f),
        [[0.0, 0.0, 3.0], [0.0, 0.0, 2.0], [3.0, 2.0, 1.0]],
    )


def test_eigensystem_diagonal_frame():
    sys = triple_eigensystem(triple_frame(2.0, 0.0, 0.0))
    assert sys.eigenvalues == pytest.approx((0.0, 0.0, 2.0))
    np.testing.assert_allclose(sys.vectors[0], [0.0, -1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sys.vectors[1], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(sys.vectors[2], [0.0, 0.0, 1.0], atol=1e-15)


def test_eigensystem_middle_level_always_dark():
    rng = np.random.default_rng(43)
    for _ in range(50):
        d, p, q = rng.uniform(-2.0, 2.0, size=3)
        if d * d + p * p + q * q < 1e-6:
            continue
        sys = triple_eigensystem(triple_frame(d, p, q))
        assert sys.eigenvalues[1] == 0.0


def test_eigensystem_random_frames():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 500:
        d, p, q = rng.uniform(-3.0, 3.0, size=3)
        if d * d + p * p + q * q < 1e-4:
            continue
        checked += 1
        f = triple_frame(d, p, q)
        sys = triple_eigensystem(f)
        dh = delta_matrix(f)
        # Exact eigen relations and orthonormality.
        for lam, vec in zip(sys.eigenvalues, sys.vectors):
            np.testing.assert_allclose(dh @ vec, lam * vec, atol=1e-10)
        np.testing.assert_allclose(sys.vectors @ sys.vectors.T, np.eye(3), atol=1e-12)
        # Cross-check the spectrum against a dense solver.
        np.testing.assert_allclose(
            np.sort(np.array(sys.eigenvalues)), np.linalg.eigvalsh(dh), atol=1e-10
        )
        lo, mid, hi = sys.eigenvalues
        assert lo == pytest.approx(0.5 * (f.d - f.omega), abs=1e-12)
        assert hi == pytest.approx(0.5 * (f.d + f.omega), abs=1e-12)


def test_half_period_relations():
    rng = np.random.default_rng(53)
    for _ in range(100):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, TWO_PI)
        a = eigenvector_rows(theta, phi)
        b = eigenvector_rows(theta + math.pi, phi)
        np.testing.assert_allclose(b[0], a[2], atol=1e-12)
        np.testing.assert_allclose(b[2], -a[0], atol=1e-12)
        np.testing.assert_allclose(b[1], a[1], atol=1e-12)


def test_half_period_swaps_outer_levels_with_unit_overlap():
    theta = 0.7
    a = eigenvector_rows(theta, 1.3)
    b = eigenvector_rows(theta + math.pi, 1.3)
    assert abs(float(np.dot(b[0], a[2]))) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# transport signs


def test_transport_sign_table():
    assert transport_sign("phi", -1) == +1
    assert transport_sign("phi", 0) == +1
    assert transport_sign("phi", +1) == +1
    assert transport_sign("theta", -1) == -1
    assert transport_sign("theta", 0) == +1
    assert transport_sign("theta", +1) == -1


@pytest.mark.parametrize("loop_angle", ["phi", "theta"])
@pytest.mark.parametrize("level", [-1, 0, +1])
def test_transport_sign_resolution_independent(loop_angle, level):
    assert transport_sign(loop_angle, level, samples=16) == transport_sign(
        loop_angle, level, samples=4096
    )


def test_transport_sign_validation():
    with pytest.raises(ValueError):
        transport_sign("phi", 2)
    with pytest.raises(ValueError):
        transport_sign("phi", 0, samples=8)
    with pytest.raises(ValueError):
        transport_sign("diag", 0)


# ---------------------------------------------------------------------------
# loop winding


def _circle(center, radius, n=64, endpoint=False, doubled=False):
    turns = 2.0 if doubled else 1.0
    ts = np.linspace(0.0, turns * TWO_PI, n, endpoint=endpoint)
    pts = np.zeros((n, 3))
    pts[:, 1] = center[0] + radius * np.cos(ts)
    pts[:, 2] = center[1] + radius * np.sin(ts)
    return pts


def test_encloses_degeneracy_centered_circle():
    assert encloses_degeneracy(_circle((0.0, 0.0), 1.0), [1.0, 0.0, 0.0])


def test_encloses_degeneracy_far_circle():
    assert not encloses_degeneracy(_circle((3.0, 0.0), 1.0), [1.0, 0.0, 0.0])


def test_encloses_degeneracy_duplicated_closing_point():
    pts = _circle((0.0, 0.0), 1.0, n=65, endpoint=True)
    assert encloses_degeneracy(pts, [1.0, 0.0, 0.0])


def test_encloses_degeneracy_double_winding():
    assert encloses_degeneracy(_circle((0.0, 0.0), 1.0, doubled=True), [1.0, 0.0, 0.0])


def test_encloses_degeneracy_loop_through_origin():
    with pytest.raises(AtDegeneracyError):
        encloses_degeneracy(_circle((1.0, 0.0), 1.0, n=64), [1.0, 0.0, 0.0])


def test_encloses_degeneracy_requires_plane():
    ts = np.linspace(0.0, TWO_PI, 32, endpoint=False)
    pts = np.stack([0.1 * ts, np.cos(ts), np.sin(ts)], axis=1)
    with pytest.raises(NonCoplanarLoopError):
        encloses_degeneracy(pts, [1.0, 0.0, 0.0])


def test_encloses_degeneracy_validation():
    with pytest.raises(ValueError):
        encloses_degeneracy(np.zeros((2, 3)), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        encloses_degeneracy(_circle((0.0, 0.0), 1.0), [0.0, 0.0, 0.0])
