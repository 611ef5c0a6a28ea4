"""Mass-scaled Jacobi coordinates and the internal (shape) coordinates.

The three-body system is reduced to a single point of effective mass
mu0 = sqrt(m1*m2*m3 / (m1+m2+m3)).  Positions enter through the scaled
Jacobi pair (r, R): r is the 2-3 separation, R runs from body 1 to the
center of mass of the pair (2,3), both rescaled so the kinetic energy is
isotropic with the single mass mu0.  The shape of the body triangle is
carried by the internal coordinates

    x1 = |r|,  x2 = |R|,  x3 = sqrt(x1^2 - 2 x1 x2 cos(theta) + x2^2),

which always satisfy the triangle inequality |x1 - x2| <= x3 <= x1 + x2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError, DomainError

__all__ = [
    "Masses",
    "JacobiCoords",
    "InternalCoords",
    "reduced_mass",
    "mass_scaled_jacobi",
    "internal_from_jacobi",
    "pair_matrix",
    "separations",
    "pair_distances",
]

_EPS = 1e-14


@dataclass(frozen=True)
class Masses:
    """The three body masses (any consistent unit system)."""

    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        for name in ("m1", "m2", "m3"):
            m = getattr(self, name)
            if not (math.isfinite(m) and m > 0.0):
                raise DomainError(f"mass {name} must be finite and > 0, got {m}")

    @property
    def total(self) -> float:
        return self.m1 + self.m2 + self.m3


@dataclass(frozen=True)
class JacobiCoords:
    """Norms of the scaled Jacobi vectors and the angle between them."""

    r: float
    R: float
    theta: float

    def __post_init__(self):
        if self.r < 0 or self.R < 0:
            raise DomainError(f"Jacobi lengths must be nonnegative, got r={self.r}, R={self.R}")
        if not -_EPS <= self.theta <= math.pi + _EPS:
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")


@dataclass(frozen=True)
class InternalCoords:
    """Shape coordinates (x1, x2, x3) of the body triangle."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        if min(self.x1, self.x2, self.x3) < 0:
            raise DomainError("internal coordinates must be nonnegative")
        lo = abs(self.x1 - self.x2)
        hi = self.x1 + self.x2
        slack = _EPS * max(1.0, hi)
        if not (lo - slack <= self.x3 <= hi + slack):
            raise DomainError(
                f"triangle inequality violated: |x1-x2|={lo} <= x3={self.x3} <= x1+x2={hi}"
            )


def reduced_mass(m: Masses) -> float:
    """Effective mass of the imaginary point, sqrt(m1*m2*m3 / (m1+m2+m3))."""
    return math.sqrt(m.m1 * m.m2 * m.m3 / m.total)


def mass_scaled_jacobi(r1, r2, r3, m: Masses) -> JacobiCoords:
    """Scaled Jacobi coordinates (|r|, |R|, theta) of three 3D positions.

    r-vector = sqrt(mu23/mu0) * (r2 - r3)
    R-vector = sqrt(mu1_23/mu0) * (r1 - cm(2,3))

    with mu23 = m2*m3/(m2+m3) and mu1_23 = m1*(m2+m3)/(m1+m2+m3).  This is
    the unique scaling for which the kinetic energy of relative motion is
    (mu0/2) * (|r'|^2 + |R'|^2).
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    r3 = np.asarray(r3, dtype=float)
    if not (np.all(np.isfinite(r1)) and np.all(np.isfinite(r2)) and np.all(np.isfinite(r3))):
        raise DomainError("positions must be finite")

    mu0 = reduced_mass(m)
    m23 = m.m2 + m.m3
    mu23 = m.m2 * m.m3 / m23
    mu1_23 = m.m1 * m23 / m.total

    rvec = math.sqrt(mu23 / mu0) * (r2 - r3)
    cm23 = (m.m2 * r2 + m.m3 * r3) / m23
    Rvec = math.sqrt(mu1_23 / mu0) * (r1 - cm23)

    rn = float(np.linalg.norm(rvec))
    Rn = float(np.linalg.norm(Rvec))
    scale = max(np.linalg.norm(r1), np.linalg.norm(r2), np.linalg.norm(r3), 1.0)
    if rn <= _EPS * scale or Rn <= _EPS * scale:
        raise DegenerateConfigurationError(
            "coincident bodies: a Jacobi vector vanishes, scattering angle undefined"
        )
    c = float(np.dot(rvec, Rvec)) / (rn * Rn)
    theta = math.acos(min(1.0, max(-1.0, c)))
    return JacobiCoords(rn, Rn, theta)


def internal_from_jacobi(j: JacobiCoords) -> InternalCoords:
    """Map (r, R, theta) to the shape coordinates (x1, x2, x3)."""
    x3sq = j.r * j.r - 2.0 * j.r * j.R * math.cos(j.theta) + j.R * j.R
    return InternalCoords(j.r, j.R, math.sqrt(max(x3sq, 0.0)))


def pair_matrix(m: Masses) -> np.ndarray:
    """Matrix C with d_p^2 = sum_i C[p, i] x_i^2, row p - 1 being the pair
    without body p: (2,3), (1,3), (1,2).  Written out,

        d23^2 = c1^2*x1^2
        d13^2 = c2^2*x2^2 + k2^2*c1^2*x1^2 + k2*c1*c2*(x1^2 + x2^2 - x3^2)
        d12^2 = c2^2*x2^2 + k3^2*c1^2*x1^2 - k3*c1*c2*(x1^2 + x2^2 - x3^2)

    with c1 = sqrt(mu0/mu23), c2 = sqrt(mu0/mu1_23), k2 = m2/(m2+m3),
    k3 = m3/(m2+m3); x1^2 + x2^2 - x3^2 = 2*x1*x2*cos(theta).
    """
    mu0 = reduced_mass(m)
    m23 = m.m2 + m.m3
    c1 = math.sqrt(mu0 * m23 / (m.m2 * m.m3))
    c2 = math.sqrt(mu0 * m.total / (m.m1 * m23))
    k2 = m.m2 / m23
    k3 = m.m3 / m23
    return np.array(
        [
            [c1 * c1, 0.0, 0.0],
            [(k2 * c1) ** 2 + k2 * c1 * c2, c2 * c2 + k2 * c1 * c2, -k2 * c1 * c2],
            [(k3 * c1) ** 2 - k3 * c1 * c2, c2 * c2 - k3 * c1 * c2, k3 * c1 * c2],
        ]
    )


def separations(x, C) -> np.ndarray:
    """Pair separations sqrt(sum_i C[p, i] x_i^2) of x (..., 3) for a
    pair matrix C.  An elementwise sum, not a matmul, so a batch row and
    the same point on its own give bit-identical results."""
    d_sq = (C * (x * x)[..., None, :]).sum(-1)
    return np.sqrt(np.maximum(d_sq, 0.0))


def pair_distances(x, m: Masses) -> np.ndarray:
    """Physical pair separations (d23, d13, d12) from internal coordinates
    x of shape (..., 3); column p - 1 is the pair without body p."""
    return separations(np.asarray(x, dtype=float), pair_matrix(m))
