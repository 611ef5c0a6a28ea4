"""Conformal metric on the energy hypersurface and related quantities.

The configuration space is curved by the conformal factor

    g(x) = (E - U(x)) / U0 > 0,

so the classical motion becomes geodesic flow on the region g > 0.  This
module evaluates g, its logarithmic gradient a_i = -(1/2) d_i ln g, the
centrifugal term Lambda^2 = (J/g)^2 and the reduced Hamiltonian.  The
point-wise quantities take internal coordinates of shape (..., 3) and
all come from one kernel, flow_coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ForbiddenRegionError
from .potentials import PotentialModel

__all__ = [
    "EnergySurface",
    "flow_coefficients",
    "conformal_factor",
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


def reduced_hamiltonian(x, xdot, J: float, surf: EnergySurface, mu0: float):
    """H = (mu0/2) g(x) [ sum_i (xdot_i)^2 + (J/g(x))^2 ] at points (..., 3)."""
    g, _, lam2 = _allowed_coefficients(x, surf, J)
    xdot = np.asarray(xdot, dtype=float)
    return 0.5 * mu0 * g * (np.sum(xdot * xdot, axis=-1) + lam2)
