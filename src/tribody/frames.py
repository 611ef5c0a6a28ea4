"""Local transformation frames between the flat and conformal coordinates.

The 21-equation / 36-unknown compatibility system splits, under the
block sparsity of the Jacobian, into two independent algebraic systems:
an internal one for the rows (x_mu, y_mu, z_mu) and an external one for
(u_mu, v_mu, w_mu).  Both are underdetermined; the solution family is
parameterized by one orthogonal gauge matrix per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "FrameGauge",
    "InternalFrame",
    "ExternalFrame",
    "internal_frame",
    "external_frame",
    "frame_residual",
]


@dataclass(frozen=True)
class FrameGauge:
    """Orthogonal 3x3 matrix selecting one member of the solution family."""

    O: np.ndarray

    def __post_init__(self):
        O = np.asarray(self.O, dtype=float).reshape(3, 3)
        if np.max(np.abs(O.T @ O - np.eye(3))) > 1e-12:
            raise DomainError("gauge matrix is not orthogonal to 1e-12")
        object.__setattr__(self, "O", O)

    @classmethod
    def random(cls, rng: np.random.Generator) -> "FrameGauge":
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        return cls(q * np.sign(np.diag(r)))


@dataclass(frozen=True)
class InternalFrame:
    """Rows (x_mu, y_mu, z_mu), mu = 1..3, of the internal Jacobian block."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def as_matrix(self) -> np.ndarray:
        """3x3 matrix with rows (x, y, z); column mu differentiates by x^mu."""
        return np.vstack([self.x, self.y, self.z])


@dataclass(frozen=True)
class ExternalFrame:
    """Rows (u_mu, v_mu, w_mu), mu = 4..6, of the external Jacobian block."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def as_matrix(self) -> np.ndarray:
        return np.vstack([self.u, self.v, self.w])


def internal_frame(g: float, gamma33: float, gauge: FrameGauge) -> InternalFrame:
    """Solve the internal block: columns V_mu = (x_mu, y_mu, sqrt(gamma33)*z_mu)
    form an orthogonal triad of norm sqrt(g), i.e. V = sqrt(g) * O."""
    if not g > 0.0:
        raise DomainError(f"g must be positive, got {g}")
    if not gamma33 > 0.0:
        raise DomainError(f"gamma33 must be positive, got {gamma33}")
    V = math.sqrt(g) * gauge.O
    return InternalFrame(x=V[0].copy(), y=V[1].copy(), z=V[2] / math.sqrt(gamma33))


def external_frame(g: float, Gamma, gauge: FrameGauge) -> ExternalFrame:
    """Solve the external block: W = sqrt(g) * L^(-T) * O with Gamma = L L^T,
    so that W_mu^T Gamma W_nu = g * delta_(mu nu)."""
    if not g > 0.0:
        raise DomainError(f"g must be positive, got {g}")
    Gamma = np.asarray(Gamma, dtype=float).reshape(3, 3)
    if not np.isfinite(Gamma).all():
        raise DomainError("external metric block must be finite")
    try:
        L = np.linalg.cholesky(Gamma)
    except np.linalg.LinAlgError as exc:
        raise DomainError(
            "external metric block is not positive definite "
            "(expected near collinear configurations)"
        ) from exc
    W = math.sqrt(g) * np.linalg.solve(L.T, gauge.O)
    return ExternalFrame(u=W[0].copy(), v=W[1].copy(), w=W[2].copy())


def frame_residual(internal: InternalFrame, external: ExternalFrame, gamma, g: float) -> float:
    """Max |gamma^{ab} rho_{a;mu} rho_{b;nu} - g delta_{mu nu}| over all mu, nu,
    with the block sparsity of the Jacobian imposed."""
    gamma = np.asarray(gamma, dtype=float).reshape(6, 6)
    D = np.zeros((6, 6))
    D[:3, :3] = internal.as_matrix()
    D[3:, 3:] = external.as_matrix()
    res = D.T @ gamma @ D - g * np.eye(6)
    return float(np.max(np.abs(res)))
