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

from .errors import AtDegeneracyError
from .model import TWO_PI, _check_finite

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
    _check_finite(d=d, p=p, q=q)
    omega2 = d * d + 4.0 * p * p + 4.0 * q * q
    if omega2 == 0.0:
        raise AtDegeneracyError("(d, p, q) = 0: no splitting, no frame")
    omega = math.sqrt(omega2)
    theta = math.atan2(2.0 * math.hypot(p, q), d)
    phi_angle = math.atan2(q, p) % TWO_PI if (p, q) != (0.0, 0.0) else 0.0
    return TripleFrame(d, p, q, omega, theta, phi_angle)


def eigenvector_rows(theta, phi) -> np.ndarray:
    """The three eigenvectors as rows (n-1, n, n+1) over basis (n+1, n, n-1).

    Row n-1: -cos(theta/2) (sin phi, cos phi, 0) + sin(theta/2) (0, 0, 1)
    Row n:   (cos phi, -sin phi, 0)
    Row n+1:  sin(theta/2) (sin phi, cos phi, 0) + cos(theta/2) (0, 0, 1)

    Elementwise: angles of broadcast shape S give an array of shape S + (3, 3).
    """
    half, phi = np.broadcast_arrays(0.5 * np.asarray(theta, dtype=float), phi)
    ct, st = np.cos(half), np.sin(half)
    cp, sp = np.cos(phi), np.sin(phi)
    rows = [[-ct * sp, -ct * cp, st], [cp, -sp, np.zeros_like(cp)], [st * sp, st * cp, ct]]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


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


def transport_sign(loop_angle: str, level: int) -> int:
    """Sign picked up by one eigenvector around a closed angle loop.

    loop_angle 'phi' winds the azimuth once at theta = pi/2; 'theta' winds the
    polar angle once at fixed azimuth.  level is -1, 0, or +1 relative to n.
    The vector is followed over 256 equal steps with sign continuity, and the
    result is the sign of its overlap with the starting vector.
    """
    row = _LEVEL_ROW.get(level)
    if row is None:
        raise ValueError("level must be -1, 0, or +1")

    alphas = np.linspace(0.0, TWO_PI, 257)
    if loop_angle == "phi":
        rows = eigenvector_rows(0.5 * math.pi, alphas)
    elif loop_angle == "theta":
        rows = eigenvector_rows(alphas, 0.0)
    else:
        raise ValueError("loop_angle must be 'phi' or 'theta'")

    # A step turns the vector by at most pi/128, so each neighbour overlap has
    # modulus >= cos(pi/128) and its sign marks a flip.
    vecs = rows[:, row]
    dots = np.sum(vecs[:-1] * vecs[1:], axis=1)
    closure = np.prod(np.sign(dots)) * float(np.dot(vecs[0], vecs[-1]))
    return 1 if closure > 0.0 else -1
