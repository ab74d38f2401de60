"""Lambda-coupled triple: frames, eigensystems, transport signs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimerphase import (
    AtDegeneracyError,
    delta_matrix,
    eigenvector_rows,
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


@pytest.mark.parametrize("name", ["d", "p", "q"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_frame_rejects_non_finite(name, value):
    args = {"d": 0.0, "p": 0.0, "q": 0.0, name: value}
    with pytest.raises(ValueError, match=name):
        triple_frame(**args)


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


def _rows_reference(theta, phi):
    """eigenvector_rows at one pair of angles through math.cos and math.sin."""
    ch, sh, cp, sp = math.cos(0.5 * theta), math.sin(0.5 * theta), math.cos(phi), math.sin(phi)
    return np.array([[-ch * sp, -ch * cp, sh], [cp, -sp, 0.0], [sh * sp, sh * cp, ch]])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    thetas=st.lists(st.floats(-TWO_PI, 2.0 * TWO_PI), min_size=1, max_size=8),
    phis=st.lists(st.floats(-TWO_PI, 2.0 * TWO_PI), min_size=1, max_size=8),
)
def test_eigenvector_rows_on_arrays_equal_scalar_reference(thetas, phis):
    # Broadcast angle arrays of shape S give S + (3, 3), bit for bit the
    # math.cos / math.sin values, signed zeros included.
    got = eigenvector_rows(np.array(thetas)[:, None], np.array(phis))
    assert got.shape == (len(thetas), len(phis), 3, 3)
    for i, theta in enumerate(thetas):
        for j, phi in enumerate(phis):
            assert got[i, j].tobytes() == _rows_reference(theta, phi).tobytes()


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


def test_transport_sign_validation():
    with pytest.raises(ValueError):
        transport_sign("phi", 2)
    with pytest.raises(ValueError):
        transport_sign("diag", 0)
