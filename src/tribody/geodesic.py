"""Deterministic integration of the reduced geodesic system.

State is (x, xi) with xi_i = dx_i/ds.  The momentum equations are the
quadratic (Riccati-type) system dxi/ds = B(xi; Lambda^2) a, where

    B(xi; Lambda^2) v = 2 (xi . v) xi - (|xi|^2 + Lambda^2) v

is linear in v, a_i is the logarithmic metric gradient and
Lambda^2 = (J/g)^2; the langevin module applies the same map to the
noise.  The three external (Euler-angle) rates decouple exactly,
dx_mu/ds = J_(mu-3)/g, and are recovered by quadrature.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy

from .errors import DomainError
from .metric import EnergySurface, conformal_factor, flow_coefficients, reduced_hamiltonian

__all__ = [
    "GeodesicState",
    "TrajectoryRecord",
    "momentum_rhs",
    "external_rates",
    "integrate",
    "conservation_report",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

TRAJECTORY_COLUMNS = ["s", "x1", "x2", "x3", "xi1", "xi2", "xi3", "g", "H"]


@dataclass(frozen=True)
class GeodesicState:
    """Internal coordinates, their s-derivatives, and the motion parameter."""

    x: np.ndarray
    xi: np.ndarray
    s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(3))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float).reshape(3))


@dataclass
class TrajectoryRecord:
    """Dense samples of one geodesic plus the exact angular integrals."""

    s: np.ndarray
    x: np.ndarray          # (N, 3)
    xi: np.ndarray         # (N, 3)
    g: np.ndarray          # (N,)
    a: np.ndarray          # (N, 3)
    lam_sq: np.ndarray     # (N,)
    J: tuple[float, float, float]
    termination: str = "s_end"
    mu0: float = 1.0
    meta: dict = field(default_factory=dict)

    @property
    def J_total(self) -> float:
        return float(np.sqrt(sum(j * j for j in self.J)))


def momentum_rhs(xi, a, lam2, out=None):
    """Right-hand side of the quadratic momentum system: B(xi; lam2) a,
    i.e. 2 (xi . a) xi - (|xi|^2 + lam2) a, which is linear in a.

    Broadcasts over leading axes: xi and a may be (..., 3), lam2 (...,).
    Shared with the stochastic drift and noise coupling, which apply the
    same map to scheduled coefficients and noise increments.  The result
    is written to out when it is given (the broadcast shape, sharing no
    memory with xi or a); besides it the kernel allocates only two
    scratch arrays of the batch shape.

    The two dot products are written out component by component: a numpy
    reduction over a length-3 last axis runs a 3-element inner loop per
    point and is the slowest part of the kernel on large batches.  The
    terms are added left to right, the order np.sum uses over that axis,
    so the result is bit-identical to the reduction.
    """
    xi = np.asarray(xi, dtype=float)
    a = np.asarray(a, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(xi.shape, a.shape, np.shape(lam2) + (3,)))
    q, t = np.empty(out.shape[:-1]), np.empty(out.shape[:-1])
    # 2 (xi . a) is kept in the last component until that one is written
    s = out[..., 2]
    np.multiply(xi[..., 0], a[..., 0], out=s)
    np.multiply(xi[..., 0], xi[..., 0], out=q)
    for i in (1, 2):
        s += np.multiply(xi[..., i], a[..., i], out=t)
        q += np.multiply(xi[..., i], xi[..., i], out=t)
    q += lam2
    s *= 2.0
    for i in range(3):
        np.multiply(s, xi[..., i], out=out[..., i])
        out[..., i] -= np.multiply(q, a[..., i], out=t)
    return out


def external_rates(g, J1, J2, J3):
    """Exact Euler-angle rates dx_mu/ds = J_(mu-3)/g, mu = 4..6."""
    g = np.asarray(g, dtype=float)
    if np.any(g <= 0.0):
        raise DomainError("g must be positive")
    return np.stack(np.broadcast_arrays(J1 / g, J2 / g, J3 / g), axis=-1)


def integrate(
    state0: GeodesicState,
    surf: EnergySurface,
    J: tuple[float, float, float] = (0.0, 0.0, 0.0),
    s_end: float = 10.0,
    tol: float = 1e-9,
    n_samples: int = 512,
    mu0: float = 1.0,
    max_steps: int = 1_000_000,
) -> TrajectoryRecord:
    """Integrate the reduced system with an adaptive RK 5(4) pair.

    Dense output is sampled at n_samples points; integration stops at
    s_end, on contact with the g <= g_min boundary (recorded, not raised),
    or when the step count budget runs out.
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    if s_end <= state0.s:
        raise DomainError("s_end must exceed the initial s")

    J1, J2, J3 = J
    J_tot = float(np.sqrt(J1 * J1 + J2 * J2 + J3 * J3))

    def rhs(s, y):
        # no floor check here: trial steps may probe past the boundary,
        # the terminal event below owns the stop
        _, a, lam2 = flow_coefficients(y[:3], surf, J_tot)
        return np.concatenate([y[3:], momentum_rhs(y[3:], a, lam2)])

    nfev = [0]

    def boundary(s, y):
        # doubles as the step budget guard: force a terminal crossing once
        # the RHS evaluation budget (~7 per step) is exhausted
        nfev[0] += 1
        if nfev[0] > 7 * max_steps:
            return -1.0
        return flow_coefficients(y[:3], surf, 0.0)[0] - surf.g_min

    boundary.terminal = True
    boundary.direction = -1

    y0 = np.concatenate([state0.x, state0.xi])
    s_eval = np.linspace(state0.s, s_end, n_samples)
    conformal_factor(state0.x, surf)  # raises on a forbidden initial state

    # scipy.integrate loads on this first access, so only the stages
    # that integrate pay for its import
    sol = scipy.integrate.solve_ivp(
        rhs,
        (state0.s, s_end),
        y0,
        method="RK45",
        rtol=tol,
        atol=tol * 1e-3,
        t_eval=s_eval,
        events=boundary,
        dense_output=False,
    )

    if sol.status == 1:
        termination = "max_steps" if nfev[0] > 7 * max_steps else "boundary"
    elif sol.status == 0:
        termination = "s_end"
    else:
        # step-size underflow near the boundary is recorded, not raised
        termination = f"solver_stop: {sol.message}"

    s_arr = sol.t
    x_arr = sol.y[:3].T.copy()
    xi_arr = sol.y[3:].T.copy()
    g_arr, a_arr, lam_arr = flow_coefficients(x_arr, surf, J_tot)
    lam_arr = np.where(g_arr > 0, lam_arr, np.nan)

    return TrajectoryRecord(
        s=s_arr, x=x_arr, xi=xi_arr, g=g_arr, a=a_arr, lam_sq=lam_arr,
        J=(J1, J2, J3), termination=termination, mu0=mu0,
        meta={"tol": tol, "nfev": sol.nfev},
    )


def external_coordinates(traj: TrajectoryRecord, x0_ext=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Euler angles x4..x6 by trapezoidal quadrature of the exact rates."""
    rates = external_rates(traj.g, *traj.J)  # (N, 3)
    ds = np.diff(traj.s)
    out = np.empty_like(rates)
    out[0] = np.asarray(x0_ext, dtype=float)
    increments = 0.5 * (rates[1:] + rates[:-1]) * ds[:, None]
    out[1:] = out[0] + np.cumsum(increments, axis=0)
    return out


def conservation_report(traj: TrajectoryRecord, surf: EnergySurface, mu0: float) -> dict:
    """Max relative drift of H and of the conformal speed along a trajectory."""
    if len(traj.s) == 0:
        raise DomainError("empty trajectory")
    H = reduced_hamiltonian(traj.x, traj.xi, traj.J_total, surf, mu0)
    speed = traj.g * (np.sum(traj.xi**2, axis=1) + traj.lam_sq)
    def drift(v):
        ref = max(abs(v[0]), 1e-300)
        return float(np.max(np.abs(v - v[0])) / ref)
    return {
        "H0": float(H[0]),
        "H_drift": drift(H) if len(H) > 1 else 0.0,
        "speed_drift": drift(speed) if len(speed) > 1 else 0.0,
        "termination": traj.termination,
    }


def write_trajectory_csv(traj: TrajectoryRecord, surf: EnergySurface, mu0: float, path):
    """Export s, x, xi, g, H with a header row, one sample per line."""
    H = reduced_hamiltonian(traj.x, traj.xi, traj.J_total, surf, mu0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for row in np.column_stack([traj.s, traj.x, traj.xi, traj.g, H]):
            writer.writerow([repr(float(v)) for v in row])


def read_trajectory_csv(path) -> dict:
    """Load a trajectory CSV back into arrays keyed by column name."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    data = np.atleast_1d(data)
    return {name: np.asarray(data[name], dtype=float) for name in data.dtype.names}
