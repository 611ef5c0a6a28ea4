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

from .errors import DegenerateMetricError, DomainError, ForbiddenRegionError
from .metric import flow_coefficients

__all__ = [
    "FrameGauge",
    "InternalFrame",
    "ExternalFrame",
    "internal_frame",
    "external_frame",
    "frame_residual",
    "reconstruct_rho",
    "RhoSeries",
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
    def identity(cls) -> "FrameGauge":
        return cls(np.eye(3))

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
        raise DegenerateMetricError(f"gamma33 must be positive, got {gamma33}")
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
        raise DegenerateMetricError(
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


@dataclass
class RhoSeries:
    """Reconstructed internal rho coordinates along a trajectory."""

    s: np.ndarray
    rho: np.ndarray  # (N, 3)
    complete: bool
    stop_reason: str = ""


def reconstruct_rho(
    traj,
    rho0,
    surf,
    dx_cap: float = 0.5,
) -> RhoSeries:
    """Integrate d(rho_i) = x_i dx1 + y_i dx2 + z_i dx3 along a trajectory.

    The frame is re-solved at every step, in the identity gauge, from the
    current gamma33 = rho2^2 and the local g; a midpoint pass keeps the
    quadrature second order.  The transformation is differential, so
    closed loops may show holonomy.
    """
    gauge = FrameGauge.identity()
    x = np.asarray(traj.x, dtype=float)
    s = np.asarray(traj.s, dtype=float)
    n = len(s)
    rho = np.full((n, 3), np.nan)
    rho[0] = np.asarray(rho0, dtype=float).reshape(3)
    # g at the samples and the step midpoints; a forbidden one ends the
    # series at its step
    with np.errstate(divide="ignore", invalid="ignore"):
        g = flow_coefficients(x, surf, 0.0)[0]
        g_mid = flow_coefficients(0.5 * (x[:-1] + x[1:]), surf, 0.0)[0]

    for k in range(n - 1):
        dx = x[k + 1] - x[k]
        if np.linalg.norm(dx) > dx_cap:
            raise DomainError(
                f"per-step |dx| = {np.linalg.norm(dx)} exceeds cap {dx_cap}; sample more densely"
            )
        try:
            if min(g[k], g_mid[k]) <= surf.g_min:
                raise ForbiddenRegionError(
                    f"g = {min(g[k], g_mid[k])} <= g_min = {surf.g_min} near x = {x[k]}"
                )
            frame = internal_frame(g[k], rho[k, 1] ** 2, gauge)
            # predictor half-step, then full step with the midpoint frame
            rho_mid = rho[k] + frame.as_matrix() @ (0.5 * dx)
            frame_mid = internal_frame(g_mid[k], rho_mid[1] ** 2, gauge)
        except (DegenerateMetricError, ForbiddenRegionError) as exc:
            return RhoSeries(
                s=s[: k + 1], rho=rho[: k + 1], complete=False,
                stop_reason=f"{exc.__class__.__name__} at step {k}: {exc}",
            )
        rho[k + 1] = rho[k] + frame_mid.as_matrix() @ dx
    return RhoSeries(s=s, rho=rho, complete=True)
