"""Stochastic momentum dynamics under white-noise forcing.

Quantum fluctuations enter as a random part of the metric's log-gradient,
a_i -> a_i + eta_i, so drift and noise pass through one linear map

    B(xi; Lambda^2) v = 2 (xi . v) xi - (|xi|^2 + Lambda^2) v,

the deterministic momentum right-hand side (geodesic.momentum_rhs) with
coefficients (a, Lambda^2) scheduled along a stored classical trajectory.
The drift is A = B a.  Two noise routes are supported:

* multiplicative -- dxi = B(xi) o (a ds + dW), stepped with a Stratonovich
  Heun predictor-corrector (the density equation pairs with the
  Stratonovich reading of the state-dependent noise);
* additive -- dxi = B(xi) a ds + dW, Euler-Maruyama (interpretation
  independent).

Increments are Gaussian with covariance 2*eps*ds, matching the
correlator <eta_i(s) eta_j(s')> = 2 eps_ij delta(s-s').
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .geodesic import TrajectoryRecord, momentum_rhs

__all__ = [
    "epsilon_matrix",
    "NoiseModel",
    "CoefficientSchedule",
    "EnsembleResult",
    "white_noise_increments",
    "drift",
    "diffusion",
    "run_ensemble",
]


def epsilon_matrix(epsilon) -> np.ndarray:
    """The noise power as a symmetric PSD 3x3 matrix; a scalar means
    scalar * identity."""
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim == 0:
        eps = float(eps) * np.eye(3)
    eps = eps.reshape(3, 3)
    if np.max(np.abs(eps - eps.T)) > 0.0:
        raise ConfigError("epsilon must be symmetric")
    w = np.linalg.eigvalsh(eps)
    if w.min() < -1e-13 * max(1.0, abs(w.max())):
        raise ConfigError(f"epsilon must be positive semidefinite, eigenvalues {w}")
    return eps


@dataclass(frozen=True)
class NoiseModel:
    """Noise power matrix eps_ij (PSD) and the master seed."""

    epsilon: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "epsilon", epsilon_matrix(self.epsilon))

    def scale_matrix(self) -> np.ndarray:
        """S with S S^T = 2*eps; increments are S @ N(0, ds*I)."""
        eps = self.epsilon
        if np.count_nonzero(eps - np.diag(np.diagonal(eps))) == 0:
            return np.diag(np.sqrt(2.0 * np.maximum(np.diagonal(eps), 0.0)))
        w, Q = np.linalg.eigh(2.0 * eps)
        return Q @ np.diag(np.sqrt(np.maximum(w, 0.0)))


@dataclass(frozen=True)
class CoefficientSchedule:
    """Scheduled coefficients (a_bar(s), Lambda_bar^2(s)), linearly interpolated."""

    s: np.ndarray
    a: np.ndarray        # (N, 3)
    lam_sq: np.ndarray   # (N,)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float).reshape(-1)
        a = np.asarray(self.a, dtype=float).reshape(len(s), 3)
        lam = np.asarray(self.lam_sq, dtype=float).reshape(-1)
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(lam)):
            raise DomainError("schedule coefficients must be finite")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam_sq", lam)

    @classmethod
    def from_trajectory(cls, traj: TrajectoryRecord) -> "CoefficientSchedule":
        return cls(s=traj.s, a=traj.a, lam_sq=traj.lam_sq)

    @classmethod
    def constant(cls, a, lam_sq: float, s_span=(0.0, 1.0)) -> "CoefficientSchedule":
        a = np.asarray(a, dtype=float).reshape(3)
        return cls(s=np.array(s_span, dtype=float), a=np.vstack([a, a]),
                   lam_sq=np.array([lam_sq, lam_sq]))

    def check_span(self, s0: float, s1: float) -> None:
        """Raise DomainError unless [s0, s1] lies inside the schedule span."""
        if not (self.s[0] - 1e-12 <= s0 and s1 <= self.s[-1] + 1e-12):
            raise DomainError(f"[{s0}, {s1}] outside schedule span [{self.s[0]}, {self.s[-1]}]")

    def at(self, s: float):
        self.check_span(s, s)
        a = np.array([np.interp(s, self.s, self.a[:, i]) for i in range(3)])
        return a, float(np.interp(s, self.s, self.lam_sq))


def white_noise_increments(ds: float, noise: NoiseModel, rng: np.random.Generator,
                           n: int) -> np.ndarray:
    """A batch (n, 3) of Gaussian increments with covariance 2*eps*ds."""
    if not ds > 0.0:
        raise DomainError(f"ds must be positive, got {ds}")
    shape = (int(n), 3)
    if not np.any(noise.epsilon):
        return np.zeros(shape)
    return rng.standard_normal(shape) @ noise.scale_matrix().T * np.sqrt(ds)


def drift(xi, coeffs) -> np.ndarray:
    """Drift A(xi) = B(xi; Lambda_bar^2) a_bar with the scheduled
    coefficients (a_bar, Lambda_bar^2).  Broadcasts over (..., 3)."""
    a_bar, lam_sq_bar = coeffs
    return momentum_rhs(xi, a_bar, lam_sq_bar)


def diffusion(xi, lam_sq_bar) -> np.ndarray:
    """Noise coupling B(xi; Lambda_bar^2) as a matrix,
    2 xi (x) xi - (|xi|^2 + Lambda_bar^2) I.  Returns (..., 3, 3)."""
    xi = np.asarray(xi, dtype=float)
    q = np.sum(xi * xi, axis=-1) + lam_sq_bar
    return 2.0 * xi[..., :, None] * xi[..., None, :] - q[..., None, None] * np.eye(3)


def _step(xi, ds: float, mode: str, coeffs, dW) -> np.ndarray:
    """One step of a batch xi (n, 3) with increments dW (n, 3): Euler-Maruyama
    (additive) or Stratonovich Heun on dxi = B(xi) o (a ds + dW), whose
    stages are drift calls on the forcing a ds + dW since B is linear in it
    (multiplicative).  Both stages use the same coefficients."""
    if mode == "additive":
        return xi + drift(xi, coeffs) * ds + dW
    if mode == "multiplicative":
        forcing = (coeffs[0] * ds + dW, coeffs[1])
        k = drift(xi, forcing)
        return xi + 0.5 * (k + drift(xi + k, forcing))
    raise ConfigError(f"unknown SDE mode {mode!r}")


@dataclass
class EnsembleResult:
    """Final states and requested snapshots of an SDE ensemble."""

    s_final: float
    xi_final: np.ndarray                 # (n_traj, 3); NaN rows for blown-up paths
    snapshots: list                      # [(s, (n_traj, 3) array), ...]
    blowups: dict = field(default_factory=dict)   # path index -> s of failure
    meta: dict = field(default_factory=dict)


def _step_ends(s0: float, s1: float, ds: float, snapshot_s):
    """Yield the step ends of an ensemble over [s0, s1] in order, as
    (s, on the ds grid, snapshot times taken there).  The grid s0 + k ds
    is cut at the end of the span and at each snapshot time off it.  A
    time whose step count (s - s0) / ds is within 1e-9 relative of an
    integer lies on the grid, and a snapshot that close to the end of the
    span, or past it, is taken there."""
    def position(s):
        # an int for a point on the grid, the float step count otherwise
        m = (s - s0) / ds
        k = round(m)
        return k if abs(m - k) <= 1e-9 * m else m

    end = position(s1)
    taken: dict = {}
    for t in snapshot_s:
        m = position(t)
        taken.setdefault(end if m >= end * (1.0 - 1e-9) else m, []).append(t)
    cuts = {m: ts[0] for m, ts in taken.items() if isinstance(m, float)}
    if isinstance(end, float):
        cuts[end] = s1
    for m in heapq.merge(range(1, math.floor(end) + 1), sorted(cuts)):
        on_grid = isinstance(m, int)
        yield (s0 + m * ds if on_grid else cuts[m]), on_grid, taken.get(m, [])


def run_ensemble(
    n_traj: int,
    schedule: CoefficientSchedule,
    xi0,
    ds: float,
    mode: str,
    noise: NoiseModel,
    s_span=None,
    snapshot_s=(),
) -> EnsembleResult:
    """Propagate n_traj independent paths over the schedule span.

    Noise comes from one sequential Philox stream keyed by the seed, drawn
    step by step for the whole batch; the normal sampler consumes a
    variable number of raw draws, so no increment sits at a fixed offset.
    An ensemble is bit-reproducible for a given (seed, n_traj, ds,
    snapshot times), and path p's noise changes with n_traj.  xi0 may be a
    single 3-vector (all paths start together) or (n_traj, 3).

    Steps are ds long on the grid s0 + k ds.  A step that would cross a
    snapshot time off that grid is cut to end on it (as fpe_evolve does),
    and when ds does not divide the span the last step is shortened so
    that the ensemble ends at s1.  The span must lie inside the schedule
    and the snapshot times in (s0, s1].  Blown-up paths are frozen as NaN
    and recorded, not fatal.
    """
    if n_traj < 1:
        raise DomainError(f"n_traj must be >= 1, got {n_traj}")
    if not ds > 0.0:
        raise DomainError(f"ds must be positive, got {ds}")
    if s_span is None:
        s_span = (float(schedule.s[0]), float(schedule.s[-1]))
    s0, s1 = s_span
    schedule.check_span(s0, s1)
    if not s1 > s0:
        raise DomainError("empty ensemble span")
    snapshot_s = sorted(float(v) for v in snapshot_s)
    if snapshot_s and (snapshot_s[0] <= s0 or snapshot_s[-1] > s1 + 1e-12):
        raise DomainError("snapshot times must lie in (s0, s1]")

    xi = np.broadcast_to(np.asarray(xi0, dtype=float), (n_traj, 3)).copy()
    rng = np.random.Generator(np.random.Philox(key=noise.seed))

    snapshots = []
    blowups: dict[int, float] = {}
    alive = np.ones(n_traj, dtype=bool)

    s, on_grid, n_steps = s0, True, 0
    for s_next, next_on_grid, taken in _step_ends(s0, s1, ds, snapshot_s):
        h = ds if on_grid and next_on_grid else s_next - s
        dW = white_noise_increments(h, noise, rng, n_traj)
        coeffs = schedule.at(s)
        # runaway paths overflow before they are frozen; the non-finite
        # check below is the intended detector, so silence the transient
        with np.errstate(over="ignore", invalid="ignore"):
            xi_new = _step(xi, h, mode, coeffs, dW)

        if np.isfinite(xi_new).all():
            # a frozen path stays NaN, so no path has blown up yet
            xi = xi_new
        else:
            bad = alive & ~np.all(np.isfinite(xi_new), axis=1)
            for p in np.nonzero(bad)[0]:
                blowups[int(p)] = s + h
            alive &= ~bad
            xi = np.where(alive[:, None], xi_new, np.nan)
        s, on_grid, n_steps = s_next, next_on_grid, n_steps + 1
        snapshots.extend((t, xi.copy()) for t in taken)

    return EnsembleResult(
        s_final=s,
        xi_final=xi,
        snapshots=snapshots,
        blowups=blowups,
        meta={"seed": noise.seed, "mode": mode, "ds": ds, "n_steps": n_steps},
    )
