"""Three-fold degeneracy with Lambda-type coupling: frames, eigenstates, transport.

The perturbation couples one distinguished level (n-1 here, by the basis
ordering below) to the other two and carries a single diagonal element d:

            n-1  n  n+1
    dH = [[  d,  p,  q ],      (rows/columns ordered n-1, n, n+1)
          [  p,  0,  0 ],
          [  q,  0,  0 ]]

Its spectrum is {(d - Omega)/2, 0, (d + Omega)/2} with
Omega^2 = d^2 + 4 p^2 + 4 q^2, and the eigenvectors depend only on two
angles: sin(theta) cos(phi) = 2p/Omega, sin(theta) sin(phi) = 2q/Omega,
cos(theta) = d/Omega.  Closed angle loops transport each eigenvector back
onto +/- itself; the sign pattern distinguishes azimuthal from polar loops.

Eigenvector coefficients are stored over the basis (n+1, n, n-1), in that
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AtDegeneracyError, NonCoplanarLoopError
from .model import TWO_PI

# Map a level offset relative to n onto its row in the eigensystem tables.
_LEVEL_ROW = {-1: 0, 0: 1, +1: 2}


@dataclass(frozen=True)
class TripleFrame:
    """Perturbation data (d, p, q) with splitting Omega and frame angles."""

    d: float
    p: float
    q: float
    omega: float
    theta: float
    phi_angle: float


@dataclass(frozen=True)
class TripleEigensystem:
    """Eigenpairs ordered (n-1, n, n+1); vectors are rows over basis (n+1, n, n-1)."""

    eigenvalues: tuple[float, float, float]
    vectors: np.ndarray


def triple_frame(d: float, p: float, q: float) -> TripleFrame:
    """Frame for a Lambda-coupled triple; errors exactly at the degeneracy."""
    d, p, q = float(d), float(p), float(q)
    omega2 = d * d + 4.0 * p * p + 4.0 * q * q
    if omega2 == 0.0:
        raise AtDegeneracyError("(d, p, q) = 0: no splitting, no frame")
    omega = math.sqrt(omega2)
    theta = math.atan2(2.0 * math.hypot(p, q), d)
    phi_angle = math.atan2(q, p) % TWO_PI if (p, q) != (0.0, 0.0) else 0.0
    return TripleFrame(d, p, q, omega, theta, phi_angle)


def eigenvector_rows(theta: float, phi: float) -> np.ndarray:
    """The three eigenvectors as rows (n-1, n, n+1) over basis (n+1, n, n-1).

    Row n-1: -cos(theta/2) (sin phi, cos phi, 0) + sin(theta/2) (0, 0, 1)
    Row n:   (cos phi, -sin phi, 0)
    Row n+1:  sin(theta/2) (sin phi, cos phi, 0) + cos(theta/2) (0, 0, 1)
    """
    ct, st = math.cos(0.5 * theta), math.sin(0.5 * theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array(
        [
            [-ct * sp, -ct * cp, st],
            [cp, -sp, 0.0],
            [st * sp, st * cp, ct],
        ]
    )


def delta_matrix(frame: TripleFrame) -> np.ndarray:
    """The perturbation matrix over the same (n+1, n, n-1) basis as the eigenvectors."""
    return np.array(
        [
            [0.0, 0.0, frame.q],
            [0.0, 0.0, frame.p],
            [frame.q, frame.p, frame.d],
        ]
    )


def triple_eigensystem(frame: TripleFrame) -> TripleEigensystem:
    """Eigenvalues ((d - Omega)/2, 0, (d + Omega)/2) with their angle-form vectors."""
    lo = 0.5 * (frame.d - frame.omega)
    hi = 0.5 * (frame.d + frame.omega)
    vecs = eigenvector_rows(frame.theta, frame.phi_angle)
    return TripleEigensystem((lo, 0.0, hi), vecs)


def transport_sign(loop_angle: str, level: int, samples: int = 256) -> int:
    """Sign picked up by one eigenvector around a closed angle loop.

    loop_angle 'phi' winds the azimuth once at theta = pi/2; 'theta' winds the
    polar angle once at fixed azimuth.  level is -1, 0, or +1 relative to n.
    The vector is followed sample to sample with sign continuity, and the
    result is the sign of its overlap with the starting vector.
    """
    if samples < 16:
        raise ValueError("need at least 16 samples around the loop")
    row = _LEVEL_ROW.get(level)
    if row is None:
        raise ValueError("level must be -1, 0, or +1")

    alphas = np.linspace(0.0, TWO_PI, samples + 1)
    if loop_angle == "phi":
        angle_pairs = [(0.5 * math.pi, a) for a in alphas]
    elif loop_angle == "theta":
        angle_pairs = [(a, 0.0) for a in alphas]
    else:
        raise ValueError("loop_angle must be 'phi' or 'theta'")

    # With 16 or more samples a step turns the vector by at most pi/8, so each
    # neighbour overlap has modulus >= cos(pi/8) and its sign marks a flip.
    rows = np.array([eigenvector_rows(*pair)[row] for pair in angle_pairs])
    dots = np.sum(rows[:-1] * rows[1:], axis=1)
    closure = np.prod(np.sign(dots)) * float(np.dot(rows[0], rows[-1]))
    return 1 if closure > 0.0 else -1


def encloses_degeneracy(
    points: np.ndarray, normal: np.ndarray, tol: float = 1e-9
) -> bool:
    """Whether a closed planar loop in (d, p, q) space winds around the degeneracy.

    points is an (N, 3) array tracing the loop (a duplicated closing point is
    accepted); normal is the loop plane's normal.  The points must be coplanar
    within tol, or NonCoplanarLoopError is raised.  A loop running through the
    degeneracy itself (within tol) raises AtDegeneracyError.  Returns True when
    the winding number about the degeneracy's in-plane projection is nonzero.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise ValueError("need an (N, 3) array with N >= 3")
    n = np.asarray(normal, dtype=float)
    nn = np.linalg.norm(n)
    if nn == 0.0:
        raise ValueError("normal must be nonzero")
    n = n / nn

    scale = 1.0 + float(np.max(np.abs(pts)))
    heights = pts @ n
    if np.max(heights) - np.min(heights) > tol * scale:
        raise NonCoplanarLoopError("loop points do not lie in one plane")

    # In-plane coordinates relative to the degeneracy's projection onto the plane.
    seed = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(seed, n)) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    u = seed - np.dot(seed, n) * n
    u = u / np.linalg.norm(u)
    w = np.cross(n, u)
    xs = pts @ u
    ys = pts @ w

    radii = np.hypot(xs, ys)
    if np.min(radii) < tol * scale:
        raise AtDegeneracyError("loop passes through the degeneracy")

    closed = np.hypot(xs[0] - xs[-1], ys[0] - ys[-1]) < tol * scale
    angles = np.arctan2(ys, xs)
    if not closed:
        angles = np.append(angles, angles[0])
    steps = np.diff(angles)
    winding = np.sum(steps - TWO_PI * np.round(steps / TWO_PI))
    return abs(round(winding / TWO_PI)) != 0
