"""Conformal metric on the energy hypersurface and related quantities.

The configuration space is curved by the conformal factor

    g(x) = (E - U(x)) / U0 > 0,

so the classical motion becomes geodesic flow on the region g > 0.  This
module evaluates g, its logarithmic gradient a_i = -(1/2) d_i ln g, the
centrifugal term Lambda^2 = (J/g)^2, the reduced Hamiltonian, and the 6x6
tensor gamma over the full coordinate set (r, R, theta, Theta, Phi, Psi).
The point-wise quantities take internal coordinates of shape (..., 3) and
all come from one kernel, flow_coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ForbiddenRegionError
from .potentials import PotentialModel

__all__ = [
    "EnergySurface",
    "RhoCoords",
    "flow_coefficients",
    "conformal_factor",
    "log_gradient",
    "lambda_sq",
    "gamma_rho",
    "reduced_hamiltonian",
]

DEFAULT_G_MIN = 1e-12


@dataclass(frozen=True)
class EnergySurface:
    """Total energy E, depth scale U0 and the interaction potential."""

    E: float
    U0: float
    potential: PotentialModel
    g_min: float = DEFAULT_G_MIN

    def __post_init__(self):
        if not (self.U0 > 0.0):
            raise DomainError(f"U0 must be positive, got {self.U0}")


@dataclass(frozen=True)
class RhoCoords:
    """Full coordinate set (r, R, theta, Theta, Phi, Psi)."""

    r: float
    R: float
    theta: float
    Theta: float
    Phi: float
    Psi: float

    def __post_init__(self):
        if not (-math.pi < self.Theta <= math.pi and -math.pi < self.Phi <= math.pi):
            raise DomainError("Theta and Phi must lie in (-pi, pi]")
        if not (0.0 <= self.Psi <= math.pi):
            raise DomainError("Psi must lie in [0, pi]")


def flow_coefficients(x, surf: EnergySurface, J: float):
    """(g, a, Lambda^2) of the momentum flow at internal points x (..., 3).

    g = (E - U) / U0, a_i = (1/2) (d_i U) / (E - U) and Lambda^2 = (J/g)^2,
    with no floor check, so that integrator trial points past the boundary
    give finite values; each caller applies its own forbidden-region policy.
    """
    e_minus_u = np.subtract(surf.E, surf.potential.evaluate(x))
    g = e_minus_u / surf.U0
    a = 0.5 * surf.potential.gradient(x) / e_minus_u[..., None]
    return g, a, (J / g) ** 2


def _allowed_coefficients(x, surf: EnergySurface, J: float):
    """flow_coefficients, raising once g falls to the configured floor."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g, a, lam2 = flow_coefficients(x, surf, J)
    if np.any(g <= surf.g_min):
        k = np.argmin(g)
        raise ForbiddenRegionError(
            f"g = {np.ravel(g)[k]} <= g_min = {surf.g_min} at x = {np.reshape(x, (-1, 3))[k]}"
        )
    return g, a, lam2


def conformal_factor(x, surf: EnergySurface):
    """g = (E - U(x)) / U0; raises once g falls to the configured floor."""
    return _allowed_coefficients(x, surf, 0.0)[0]


def log_gradient(x, surf: EnergySurface) -> np.ndarray:
    """a_i = -(1/2) d_i ln g = (1/2) (d_i U) / (E - U), analytic gradient."""
    return _allowed_coefficients(x, surf, 0.0)[1]


def lambda_sq(g, J: float):
    """Centrifugal term Lambda^2 = (J/g)^2 of the reduced internal system."""
    if np.any(np.asarray(g) <= 0.0):
        raise DomainError(f"g must be positive, got {g}")
    return (J / g) ** 2


def reduced_hamiltonian(x, xdot, J: float, surf: EnergySurface, mu0: float):
    """H = (mu0/2) g(x) [ sum_i (xdot_i)^2 + (J/g(x))^2 ] at points (..., 3)."""
    g, _, lam2 = _allowed_coefficients(x, surf, J)
    xdot = np.asarray(xdot, dtype=float)
    return 0.5 * mu0 * g * (np.sum(xdot * xdot, axis=-1) + lam2)


def gamma_rho(rho: RhoCoords) -> np.ndarray:
    """The 6x6 tensor gamma over (r, R, theta, Theta, Phi, Psi).

    Transcribed component by component; the gamma55 term r^2*sin(Theta) is
    kept exactly as written even though its siblings carry squared sines.
    Block structure: identity 2x2, gamma33 = R^2, dense external 3x3.
    """
    r, R = rho.r, rho.R
    th, Th, Ps = rho.theta, rho.Theta, rho.Psi

    gam = np.zeros((6, 6))
    gam[0, 0] = gam[1, 1] = 1.0
    gam[2, 2] = R**2
    gam[3, 3] = r**2 + R**2 * math.cos(Ps) ** 2 * math.cos(th) ** 2
    gam[4, 4] = r**2 * math.sin(Th) + R**2 * (
        math.sin(Th) ** 2 * math.sin(Ps) ** 2 * math.cos(th) ** 2
        + math.cos(Th) ** 2 * math.sin(th) ** 2
        - 0.5 * math.sin(2 * Th) * math.sin(2 * th) * math.sin(Ps)
    )
    gam[5, 5] = R**2 * math.sin(th) ** 2
    gam[3, 4] = gam[4, 3] = R**2 * (
        math.sin(Th) * math.sin(2 * Ps) * math.cos(th) ** 2
        - 2.0 * math.cos(Th) * math.cos(Ps) * math.sin(2 * th)
    )
    gam[3, 5] = gam[5, 3] = R**2 * math.sin(2 * th) * math.cos(Ps)
    gam[4, 5] = gam[5, 4] = R**2 * (
        math.sin(Th) * math.sin(Ps) * math.sin(2 * th) - 2.0 * math.cos(Th) * math.sin(th) ** 2
    )
    return gam
