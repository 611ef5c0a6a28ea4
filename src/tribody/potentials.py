"""Interaction potentials over the internal (shape) coordinates.

Every model maps internal coordinates x = (x1, x2, x3) to a total energy
and its analytic gradient dU/dx_i.  Points may be batched: x of shape
(..., 3) gives energies of shape (...) and gradients of shape (..., 3); a
single point (3,) gives a float energy.  The built-in pairwise models go
through the physical pair separations (d23, d13, d12), whose squares are
linear in (x1^2, x2^2, x3^2), so the chain rule stays closed-form.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .kinematics import Masses, pair_matrix, separations

__all__ = [
    "PotentialModel",
    "FreePotential",
    "CallablePotential",
    "PairwisePotential",
    "GravityPotential",
    "MorsePotential",
]


class PotentialModel(ABC):
    """Potential energy U(x) on the internal space and its gradient."""

    @abstractmethod
    def evaluate(self, x):
        """Total potential energy at internal coordinates x of shape (..., 3);
        a float for a single point."""

    @abstractmethod
    def gradient(self, x) -> np.ndarray:
        """Analytic dU/dx_i at x, same shape as x."""


class FreePotential(PotentialModel):
    """U identically zero (free motion)."""

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])

    def gradient(self, x):
        return np.zeros(np.shape(x))


class CallablePotential(PotentialModel):
    """Wrap plain point-wise callables f(x) and grad(x) as a potential model.

    The callables see one point (3,) at a time; batched input is mapped
    over its rows here, so they need not broadcast.
    """

    def __init__(self, f, grad):
        self._f = f
        self._grad = grad

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self._f(x))
        return np.array([float(self._f(p)) for p in x.reshape(-1, 3)]).reshape(x.shape[:-1])

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        rows = [np.asarray(self._grad(p), dtype=float) for p in x.reshape(-1, 3)]
        return np.array(rows).reshape(x.shape)


class PairwisePotential(PotentialModel):
    """Sum of pair terms v(d) over the three physical separations.

    Subclasses supply pair_energy(d) and its derivative pair_energy_dd(d)
    for separations d of shape (..., 3) in pair order (2,3), (1,3), (1,2),
    matching kinematics.pair_distances, whose pair matrix C gives the
    geometry; the chain rule lives here.
    """

    def __init__(self, masses: Masses):
        self.masses = masses
        self._C = pair_matrix(masses)

    @abstractmethod
    def pair_energy(self, d: np.ndarray) -> np.ndarray:
        """Energies of the three pairs at separations d (..., 3)."""

    @abstractmethod
    def pair_energy_dd(self, d: np.ndarray) -> np.ndarray:
        """Derivatives of the pair energies with respect to d (..., 3)."""

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        u = self.pair_energy(separations(x, self._C)).sum(-1)
        return float(u) if x.ndim == 1 else u

    def gradient(self, x):
        # dU/dx_i = x_i * sum_p C[p,i] * v'(d_p) / d_p; a pair at d_p = 0
        # contributes nothing
        x = np.asarray(x, dtype=float)
        d = separations(x, self._C)
        live = d > 0.0
        d = np.where(live, d, 1.0)
        w = np.where(live, self.pair_energy_dd(d) / d, 0.0)
        return (w[..., None] * self._C).sum(-2) * x


class GravityPotential(PairwisePotential):
    """Softened pairwise gravity, v = -G*mi*mj / sqrt(d^2 + delta^2)."""

    def __init__(self, masses: Masses, G: float = 1.0, softening: float = 0.0):
        super().__init__(masses)
        self.G = G
        self.softening = softening
        # mi*mj in pair order (2,3), (1,3), (1,2)
        self._mm = np.array([masses.m2 * masses.m3, masses.m1 * masses.m3,
                             masses.m1 * masses.m2])

    def pair_energy(self, d):
        return -self.G * self._mm / np.sqrt(d * d + self.softening**2)

    def pair_energy_dd(self, d):
        den = (d * d + self.softening**2) ** 1.5
        return self.G * self._mm * d / den


class MorsePotential(PairwisePotential):
    """Pairwise Morse wells, v = D*[(1 - exp(-alpha*(d - d0)))^2 - 1]."""

    def __init__(self, masses: Masses, D: float = 1.0, alpha: float = 1.0, d0: float = 1.0):
        super().__init__(masses)
        self.D = D
        self.alpha = alpha
        self.d0 = d0

    def pair_energy(self, d):
        # (1 - e)^2 - 1 written as e*(e - 2), without the cancellation at small e
        e = np.exp(-self.alpha * (d - self.d0))
        return self.D * e * (e - 2.0)

    def pair_energy_dd(self, d):
        e = np.exp(-self.alpha * (d - self.d0))
        return 2.0 * self.D * self.alpha * e * (1.0 - e)
