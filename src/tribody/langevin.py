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
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .geodesic import TrajectoryRecord, momentum_rhs

# paths per chunk of the ensemble; each chunk has its own noise stream
CHUNK = 16384
# upper bound on the worker threads of the ensemble and of the density
# solver: the largest count benchmarked so far (on a 2-CPU host)
MAX_WORKERS = 2

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
    _scale: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        eps = epsilon_matrix(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        # the seed is one 64-bit word of each noise stream's Philox key
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if np.count_nonzero(eps - np.diag(np.diagonal(eps))) == 0:
            scale = np.diag(np.sqrt(2.0 * np.maximum(np.diagonal(eps), 0.0)))
        else:
            w, Q = np.linalg.eigh(2.0 * eps)
            scale = Q @ np.diag(np.sqrt(np.maximum(w, 0.0)))
        object.__setattr__(self, "_scale", scale)

    def scale_matrix(self) -> np.ndarray:
        """S with S S^T = 2*eps; increments are S @ N(0, ds*I).  Formed
        once per model, so the caller must not modify it."""
        return self._scale


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
                           n: int, out=None) -> np.ndarray:
    """A batch (n, 3) of Gaussian increments with covariance 2*eps*ds,
    row r made from the r-th triple of normals that rng draws.  Written
    to out (a C-contiguous (n, 3) float array) when it is given; for a
    diagonal eps nothing else is allocated."""
    if not ds > 0.0:
        raise DomainError(f"ds must be positive, got {ds}")
    dW = np.empty((int(n), 3)) if out is None else out
    if not np.any(noise.epsilon):
        dW.fill(0.0)
        return dW
    rng.standard_normal(out=dW)
    # formed term by term, not by a BLAS product, whose last bit can depend
    # on how many rows it multiplies: a row depends only on its own normals
    scale = noise.scale_matrix() * np.sqrt(ds)
    diagonal = np.diagonal(scale)
    off = list(zip(*np.nonzero(scale - np.diag(diagonal))))
    z = dW.copy() if off else dW
    # column by column: a product broadcast over the length-3 axis runs a
    # 3-element inner loop per row
    for i in range(3):
        dW[:, i] *= diagonal[i]
    for i, j in off:
        dW[:, i] += scale[i, j] * z[:, j]
    return dW


def drift(xi, coeffs, out=None) -> np.ndarray:
    """Drift A(xi) = B(xi; Lambda_bar^2) a_bar with the scheduled
    coefficients (a_bar, Lambda_bar^2).  Broadcasts over (..., 3);
    written to out when it is given."""
    a_bar, lam_sq_bar = coeffs
    return momentum_rhs(xi, a_bar, lam_sq_bar, out=out)


def diffusion(xi, lam_sq_bar) -> np.ndarray:
    """Noise coupling B(xi; Lambda_bar^2) as a matrix,
    2 xi (x) xi - (|xi|^2 + Lambda_bar^2) I.  Returns (..., 3, 3).

    B is symmetric.  The density solver keeps B as components on its mesh
    (fokker_planck._coupling) and does not call this; the tensor stays as
    public API, as the reference the tests hold those components to, and
    as the benchmark tracer's `langevin.diffusion` layer."""
    xi = np.asarray(xi, dtype=float)
    q = np.sum(xi * xi, axis=-1) + lam_sq_bar
    return 2.0 * xi[..., :, None] * xi[..., None, :] - q[..., None, None] * np.eye(3)


def _step(xi, ds: float, mode: str, coeffs, dW, work) -> None:
    """One step of a batch xi (n, 3), in place, with increments dW (n, 3):
    Euler-Maruyama (additive) or Stratonovich Heun on
    dxi = B(xi) o (a ds + dW), whose stages are drift calls on the forcing
    a ds + dW since B is linear in it (multiplicative; dW is overwritten
    by the forcing).  Both stages use the same coefficients.  work holds
    the (n, 3) arrays of the drift stages, one (additive) or three
    (multiplicative), so a step allocates nothing of the batch's size
    besides the drift kernel's scratch."""
    if mode == "additive":
        f = drift(xi, coeffs, out=work[0])
        f *= ds
        xi += f
        xi += dW
    elif mode == "multiplicative":
        a_ds = coeffs[0] * ds
        for i in range(3):
            dW[:, i] += a_ds[i]
        forcing = (dW, coeffs[1])
        k = drift(xi, forcing, out=work[0])
        k += drift(np.add(xi, k, out=work[1]), forcing, out=work[2])
        k *= 0.5
        xi += k
    else:
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


def _worker_count(n_parts: int) -> int:
    """Threads for work cut into n_parts parts (the ensemble's chunks, the
    density solver's slabs): one per CPU this process may run on, at most
    MAX_WORKERS, never more than there are parts."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(n_parts, cpus or 1, MAX_WORKERS))


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

    The paths are cut into chunks of CHUNK: chunk c holds paths
    [c CHUNK, min(n_traj, (c+1) CHUNK)).  At step k chunk c draws its
    increments with white_noise_increments from the counter-based stream
    Philox(key=(seed, c), counter=(0, 0, 0, k)) (Salmon et al., "Parallel
    Random Numbers: As Easy as 1, 2, 3", SC'11), one row per path in
    order; the normal sampler is sequential, so a short last chunk gets
    the first rows of a full draw.  Path p's noise therefore depends only
    on (seed, p, step): not on n_traj, nor on how many threads step the
    chunks or in which order, and the result is bit-identical for a
    given (seed, ds, span, snapshot times) whatever the CPU count.  The
    chunks are stepped on one thread per CPU the process may run on, the
    calling thread among them, and at most MAX_WORKERS; a single chunk
    runs in the calling thread alone.  xi0 may be a single 3-vector (all
    paths start together) or (n_traj, 3).

    Steps are ds long on the grid s0 + k ds.  A step that would cross a
    snapshot time off that grid is cut to end on it (as fpe_evolve does),
    and when ds does not divide the span the last step is shortened so
    that the ensemble ends at s1.  The span must lie inside the schedule
    and the snapshot times in (s0, s1].  Blown-up paths are frozen as NaN
    and recorded by step, then by path, not fatal.
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
    xi0 = np.broadcast_to(np.asarray(xi0, dtype=float), (n_traj, 3))

    # the step plan, shared read-only by the workers: per step its length,
    # coefficients at its start, end time and the snapshots taken there
    plan, times = [], []
    s, on_grid = s0, True
    for s_next, next_on_grid, taken in _step_ends(s0, s1, ds, snapshot_s):
        h = ds if on_grid and next_on_grid else s_next - s
        slots = range(len(times), len(times) + len(taken))
        plan.append((h, schedule.at(s), s + h, slots))
        times.extend(taken)
        s, on_grid = s_next, next_on_grid

    xi_final = np.empty((n_traj, 3))
    snaps = [np.empty((n_traj, 3)) for _ in times]

    def run_chunk(c: int, buffers) -> list:
        """Step the paths of chunk c over the plan, in place in their rows
        of xi_final; its blow-ups as (step, path, s)."""
        lo, hi = c * CHUNK, min(n_traj, (c + 1) * CHUNK)
        dW, finite, *work = (b[:hi - lo] for b in buffers)
        xi = xi_final[lo:hi]
        xi[...] = xi0[lo:hi]
        alive = np.ones(hi - lo, dtype=bool)
        blowups = []
        bitgen = np.random.Philox(key=[noise.seed, c])
        rng, start = np.random.Generator(bitgen), bitgen.state
        for k, (h, coeffs, s_end, slots) in enumerate(plan):
            # the stream of step k: Philox(key=(seed, c), counter=(0, 0, 0, k));
            # restoring a state is cheaper than building a generator
            start["state"]["counter"][3] = k
            bitgen.state = start
            white_noise_increments(h, noise, rng, hi - lo, out=dW)
            # runaway paths overflow before they are frozen; the non-finite
            # check below is the intended detector, so silence the
            # transient (errstate is per thread)
            with np.errstate(over="ignore", invalid="ignore"):
                _step(xi, h, mode, coeffs, dW, work)
            # a frozen path stays NaN, so while all is finite no path has
            # blown up yet
            if not np.isfinite(xi, out=finite).all():
                bad = alive & ~finite.all(axis=1)
                blowups.extend((k, lo + int(p), s_end) for p in np.nonzero(bad)[0])
                alive &= ~bad
                xi[~alive] = np.nan
            for j in slots:
                snaps[j][lo:hi] = xi
        return blowups

    n_chunks = -(-n_traj // CHUNK)
    workers = _worker_count(n_chunks)
    # each worker's step buffers (increments, finiteness, drift stages),
    # allocated in the calling thread: what a worker thread allocates stays
    # in its own allocator arena after the ensemble, out of reach of the
    # stages that follow, so a worker allocates only the drift's scratch
    rows = min(n_traj, CHUNK)
    buffers = [[np.empty((rows, 3)), np.empty((rows, 3), dtype=bool)]
               + [np.empty((rows, 3)) for _ in range(1 if mode == "additive" else 3)]
               for _ in range(workers)]

    def run_share(w: int) -> list:
        """Worker w steps chunks w, w + workers, ..."""
        return [b for c in range(w, n_chunks, workers) for b in run_chunk(c, buffers[w])]

    if workers == 1:
        found = run_share(0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        # the calling thread is worker 0
        with ThreadPoolExecutor(workers - 1) as pool:
            shares = [pool.submit(run_share, w) for w in range(1, workers)]
            found = run_share(0) + [b for share in shares for b in share.result()]

    return EnsembleResult(
        s_final=s,
        xi_final=xi_final,
        snapshots=list(zip(times, snaps)),
        blowups={p: t for _, p, t in sorted(found)},
        meta={"seed": noise.seed, "mode": mode, "ds": ds, "n_steps": len(plan)},
    )
