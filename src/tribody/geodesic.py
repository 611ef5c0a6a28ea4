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
import math
from dataclasses import dataclass, field

import numpy as np
# unused by the package: loaded only because perfbench/worker.py reads
# scipy's version from sys.modules["scipy"]; it can go once that stops
import scipy  # noqa: F401

from .errors import DomainError
from .metric import EnergySurface, conformal_factor, flow_coefficients, reduced_hamiltonian

__all__ = [
    "GeodesicState",
    "TrajectoryRecord",
    "momentum_rhs",
    "external_rates",
    "angular_momentum_norm",
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
        return angular_momentum_norm(self.J)


def angular_momentum_norm(J) -> float:
    """|J| of the three body-frame angular momentum components."""
    J1, J2, J3 = J
    return math.sqrt(J1 * J1 + J2 * J2 + J3 * J3)


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


# Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6:19,
# 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.5).  Row k of _DP_A
# forms stage k+1 from stages 0..k; the seventh stage is the derivative at
# the step end (FSAL), reused as the next step's first.  _DP_E is the
# difference of the 5th- and embedded 4th-order weights; _DP_P gives the
# quartic dense output.  The coefficients and the step control below are
# those of scipy's RK45 with max_step = inf, operation for operation, so
# both take the same steps and sample the same values.
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1 / (order of the embedded error estimate + 1)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _rms(v):
    return np.linalg.norm(v) / v.size ** 0.5


class _DormandPrince:
    """Adaptive steps of the autonomous system y' = fun(y) from (t, y)
    forward to t_end > t; step() takes one accepted step, dense(ts)
    interpolates within the last one.  The error of a step is the RMS norm of the
    embedded estimate over atol + rtol * max(|y|, |y_new|)."""

    def __init__(self, fun, t, y, t_end, rtol, atol):
        self.fun, self.t, self.y, self.t_end = fun, t, y, t_end
        self.rtol, self.atol = rtol, atol
        self.nfev = self.accepted = self.rejected = 0
        self.K = np.empty((7, y.size))
        self.f = self._eval(y)
        self.h_abs = self._initial_step()

    def _eval(self, y):
        self.nfev += 1
        return self.fun(y)

    def _initial_step(self):
        """Hairer, Norsett & Wanner II.4: a step whose explicit Euler error
        estimate is about 0.01, at most the whole span."""
        span = abs(self.t_end - self.t)
        scale = self.atol + np.abs(self.y) * self.rtol
        d0, d1 = _rms(self.y / scale), _rms(self.f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, span)
        f1 = self._eval(self.y + h0 * self.f)
        d2 = _rms((f1 - self.f) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT)
        return min(100 * h0, h1, span)

    def step(self) -> bool:
        """Advance by one accepted step, retrying rejected ones with a
        smaller step; False once the step falls below 10 ulp of t."""
        t, y, K = self.t, self.y, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = min(t + h_abs, self.t_end)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = self.f
            for s in range(1, 6):
                K[s] = self._eval(y + np.dot(K[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = f_new = self._eval(y_new)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            self.rejected += 1
        if error_norm == 0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        self.h_abs = h_abs * factor
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, f_new
        self.Q = K.T.dot(_DP_P)
        self.accepted += 1
        return True

    def dense(self, ts):
        """The 4th-order interpolant of the last step at times ts, (n, len(ts))."""
        h = self.t - self.t_old
        p = np.cumprod(np.tile((ts - self.t_old) / h, (4, 1)), axis=0)
        y = h * np.dot(self.Q, p)
        y += self.y_old[:, None]
        return y


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
    """Integrate the reduced system with the adaptive Dormand-Prince 5(4)
    pair at rtol = tol, atol = 1e-3 tol.

    The dense output is sampled at n_samples points evenly spaced over
    [state0.s, s_end].  Integration stops, and the record says why in
    `termination`, at
    - "s_end", the last sample;
    - "boundary", where g falls to surf.g_min: located on the dense output
      by bisection, on the allowed side, and recorded as the last sample
      instead of raised;
    - "max_steps", after that many accepted steps;
    - "solver_stop: ...", when the step size underflows.
    On an early stop the state reached is appended as the last sample.
    meta counts the right-hand-side evaluations (nfev) and the accepted
    and rejected steps.
    """
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol}")
    if not (np.isfinite(s_end) and s_end > state0.s):
        raise DomainError(f"s_end must be finite and exceed the initial s, got {s_end}")
    if n_samples < 2:
        raise DomainError(f"n_samples must be at least 2, got {n_samples}")

    J_tot = angular_momentum_norm(J)

    def rhs(y):
        # no floor check here: trial steps may probe past the boundary,
        # the event below owns the stop
        _, a, lam2 = flow_coefficients(y[:3], surf, J_tot)
        return np.concatenate([y[3:], momentum_rhs(y[3:], a, lam2)])

    def boundary(y):
        return flow_coefficients(y[:3], surf, 0.0)[0] - surf.g_min

    y0 = np.concatenate([state0.x, state0.xi])
    s_eval = np.linspace(state0.s, s_end, n_samples)
    conformal_factor(state0.x, surf)  # raises on a forbidden initial state

    # rtol below 100 ulp is raised to it, as scipy does
    solver = _DormandPrince(rhs, state0.s, y0, s_end, max(tol, 100 * np.finfo(float).eps),
                            tol * 1e-3)
    samples, taken = [], 0
    s_stop, y_stop = state0.s, y0[:, None]
    g_old = boundary(y0)
    for _ in range(max_steps):
        if not solver.step():
            termination = f"solver_stop: {_TOO_SMALL_STEP}"
            break
        s_stop, y_stop, termination = solver.t, solver.y[:, None], None
        g_new = boundary(solver.y)
        if g_old >= 0 >= g_new:
            lo, hi = solver.t_old, solver.t
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if boundary(solver.dense(np.array([mid]))[:, 0]) > 0:
                    lo = mid
                else:
                    hi = mid
            s_stop, y_stop, termination = lo, solver.dense(np.array([lo])), "boundary"
        elif solver.t == s_end:
            termination = "s_end"
        upto = np.searchsorted(s_eval, s_stop, side="right")
        if upto > taken:
            samples.append(solver.dense(s_eval[taken:upto]))
            taken = upto
        if termination:
            break
        g_old = g_new
    else:
        termination = "max_steps"

    s_arr = s_eval[:taken]
    if termination != "s_end" and (taken == 0 or s_arr[-1] < s_stop):
        s_arr = np.append(s_arr, s_stop)
        samples.append(y_stop)
    y_arr = np.hstack(samples)
    x_arr = y_arr[:3].T.copy()
    xi_arr = y_arr[3:].T.copy()
    g_arr, a_arr, lam_arr = flow_coefficients(x_arr, surf, J_tot)
    lam_arr = np.where(g_arr > 0, lam_arr, np.nan)

    return TrajectoryRecord(
        s=s_arr, x=x_arr, xi=xi_arr, g=g_arr, a=a_arr, lam_sq=lam_arr,
        J=tuple(J), termination=termination, mu0=mu0,
        meta={"tol": tol, "nfev": solver.nfev, "accepted_steps": solver.accepted,
              "rejected_steps": solver.rejected},
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
