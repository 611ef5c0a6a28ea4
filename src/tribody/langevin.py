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
* additive -- dxi = B(xi) a ds + dW, stepped with Euler.

Both routes draw one law of increments, the two-point values
sqrt(2 eps ds) z, z = +-1 per axis, of the simplified weak schemes
(Kloeden & Platen, Numerical Solution of SDEs, 1992, section 14.1), with
eps the one noise power.  Only the law of the paths matters here (the
density solver evolves it), and these increments match the Gaussian
ones of covariance 2*eps*ds per axis, the correlator <eta_i(s)
eta_j(s')> = 2 eps delta_ij delta(s-s'), in their first three moments:
so both schemes keep their weak order 1 at a fraction of the cost of a
normal draw.  An ensemble steps its paths in
chunks of CHUNK, and at step k chunk c draws from its own SFC64
generator, seeded with SeedSequence((seed, c, k)): numpy's construction
of independent streams from one master seed.  So path p's noise is fixed
by (seed, p, step).  The paths are independent: with at least
2 MIN_SHARE_ROWS of them and two or more usable CPUs, contiguous shares
of rows are stepped in worker processes forked for the call (_fork),
with the same bits as one process stepping every chunk in turn
(run_ensemble).
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _fork
from .errors import ConfigError, DomainError
from .geodesic import TrajectoryRecord, momentum_rhs

# paths per chunk of the ensemble; each chunk has its own noise stream at
# every step, SFC64(SeedSequence((seed, chunk, step)))
CHUNK = 16384
# fewest paths a share of the ensemble may get for a worker to be forked
# for it (measured, see run_ensemble)
MIN_SHARE_ROWS = 2048

__all__ = [
    "noise_power",
    "NoiseModel",
    "CoefficientSchedule",
    "EnsembleResult",
    "two_point_increments",
    "drift",
    "diffusion",
    "run_ensemble",
]


def noise_power(epsilon) -> float:
    """The noise power eps as a float: a finite number >= 0."""
    if isinstance(epsilon, bool) or not isinstance(epsilon, numbers.Real):
        raise ConfigError(f"epsilon must be a number, got {epsilon!r}")
    eps = float(epsilon)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ConfigError(f"epsilon must be a finite number >= 0, got {epsilon!r}")
    return eps


@dataclass(frozen=True)
class NoiseModel:
    """Noise power eps (a number >= 0) and the master seed."""

    epsilon: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "epsilon", noise_power(self.epsilon))
        # the seed is the first of the entropy words (seed, chunk, step) of
        # every noise stream's SeedSequence, which rejects a negative word
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")


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

    def at(self, s):
        """(a of shape s.shape + (3,), Lambda^2 of shape s.shape) at s, a time
        or an array of times inside the span (else DomainError), from one
        np.interp per column: the same bits for a time alone or in an array."""
        s = np.asarray(s, dtype=float)
        self.check_span(s.min(), s.max())
        a = np.stack([np.interp(s, self.s, self.a[:, i]) for i in range(3)], axis=-1)
        return a, np.interp(s, self.s, self.lam_sq)


def _increment_scale(noise: NoiseModel, ds: float):
    """The increments' factor sqrt(2 eps) sqrt(ds), or None for a zero eps."""
    if noise.epsilon == 0.0:
        return None
    return np.sqrt(2.0 * noise.epsilon) * np.sqrt(ds)


def _two_point(rng: np.random.Generator, scale, out, skip: int = 0) -> np.ndarray:
    """Two-point increments into out ((n, 3), any layout): z_ri = +1 where
    bit 3 (skip + r) + i of the ceil(3 (skip + n) / 64) words
    rng.bit_generator.random_raw draws is set, -1 where it is clear (bit b
    of word w is bit 64 w + b, least significant first, on any host), times
    the factor of _increment_scale, so exactly +-sqrt(2 eps) sqrt(ds); zeros,
    drawing nothing, for a zero eps (scale None).  So rows [skip, skip + n)
    of a draw of skip + n rows, bit for bit."""
    if scale is None:
        out.fill(0.0)
        return out
    n = len(out)
    words = rng.bit_generator.random_raw(-(-3 * (skip + n) // 64))
    first, lead = divmod(3 * skip, 64)
    bits = np.unpackbits(words[first:].astype("<u8", copy=False).view(np.uint8),
                         bitorder="little")
    # an assignment casts across layouts faster than a ufunc with out=
    out[...] = bits[lead:lead + 3 * n].reshape(n, 3)
    out *= 2.0
    out -= 1.0
    out *= scale
    return out


def two_point_increments(ds: float, noise: NoiseModel, rng: np.random.Generator,
                         n: int) -> np.ndarray:
    """A batch (n, 3) of two-point increments sqrt(2 eps ds) z, z = +-1
    per axis, with covariance 2*eps*ds per axis: the law of the ensemble.
    Component i of row r has sign bit 3r + i of the raw words that
    rng's bit generator draws, least significant bit first."""
    if not ds > 0.0:
        raise DomainError(f"ds must be positive, got {ds}")
    return _two_point(rng, _increment_scale(noise, ds), np.empty((int(n), 3)))


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
    """One step of a batch xi (n, 3), in place: the Euler drift step
    (additive; dW is not used, and the caller adds the increments after
    the step) or Stratonovich Heun on dxi = B(xi) o (a ds + dW) with
    increments dW (n, 3), whose stages are drift calls on the forcing
    a ds + dW since B is linear in it (multiplicative; dW is overwritten
    by the forcing).  Both stages use the same coefficients.  work starts
    with the (n, 3) arrays of the drift stages, one (additive) or three
    (multiplicative), so a step allocates nothing of the batch's size
    besides the drift kernel's scratch.  The arrays may be transposed
    views of component-major (3, n) storage, as the ensemble passes them."""
    if mode == "additive":
        f = drift(xi, coeffs, out=work[0])
        f *= ds
        xi += f
    else:
        a_ds = coeffs[0] * ds
        for i in range(3):
            dW[:, i] += a_ds[i]
        forcing = (dW, coeffs[1])
        k = drift(xi, forcing, out=work[0])
        k += drift(np.add(xi, k, out=work[1]), forcing, out=work[2])
        k *= 0.5
        xi += k


@dataclass
class EnsembleResult:
    """Final states and requested snapshots of an SDE ensemble.  When a
    snapshot is taken at the end of the span, xi_final is that snapshot's
    array, not a copy of it."""

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


def _step_plan(schedule, noise, s0: float, s1: float, ds: float, snapshot_s):
    """The steps of an ensemble over [s0, s1], built once: per step its
    start, length, coefficients at its start (from one schedule.at over
    all starts, the bits of schedule.at at each), the slots of
    the snapshots taken at its end and the increments' scale of
    _increment_scale, formed once per distinct length.  Also the snapshot
    times in slot order and the time the last step ends on."""
    steps, times = [], []
    s, on_grid = s0, True
    for s_next, next_on_grid, taken in _step_ends(s0, s1, ds, snapshot_s):
        h = ds if on_grid and next_on_grid else s_next - s
        steps.append((s, h, range(len(times), len(times) + len(taken))))
        times.extend(taken)
        s, on_grid = s_next, next_on_grid
    starts = np.array([start for start, _, _ in steps])
    a, lam_sq = schedule.at(starts)
    lam_sq = lam_sq.tolist()
    scales = {h: _increment_scale(noise, h) for h in {h for _, h, _ in steps}}
    plan = [(start, h, (a[k], lam_sq[k]), slots, scales[h])
            for k, (start, h, slots) in enumerate(steps)]
    return plan, times, s


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
    increments from Generator(SFC64(SeedSequence((seed, c, k)))), one
    row per path in order, as two_point_increments draws them, in either
    mode.  SeedSequence hashes its entropy words into the generator's
    state, so the streams of distinct (seed, c, k) are independent for
    all practical purposes.  The draw is sequential, so a short last
    chunk gets the first rows of a full draw.  Path p's noise therefore
    depends only on (seed, p, step), not on n_traj, and the result is
    bit-identical for a given (seed, ds, span, snapshot times).  The
    state of the rows stepped together is stored component-major,
    (3, rows), so that the elementwise kernels run over contiguous rows;
    its values are those of (rows, 3) storage, bit for bit.  xi0 may be
    a single 3-vector (all paths start together) or (n_traj, 3).

    The paths are independent, so they are stepped in contiguous shares
    of rows, one per CPU usable by the process (os.sched_getaffinity) but
    none of fewer than MIN_SHARE_ROWS paths (_fork.bounds), with
    _fork.parts: the caller steps the last share, the largest, and a
    worker forked for the call each other one, with no interpreter lock
    shared between them.  A share steps its rows one piece of a chunk at
    a time; a piece of rows [r0, r0 + m) of chunk c draws that chunk's
    words for rows [0, r0 + m) at each step and keeps the rows' own bits
    (_two_point's skip), so a share boundary inside a chunk changes no
    path's noise.  The snapshots and the final states lie in one shared
    anonymous mmap, which each share writes its rows of in place; a
    share's blow-ups are its result.  With one share, on one CPU or
    below 2 MIN_SHARE_ROWS paths, the caller steps every chunk, one after
    another, and nothing is forked.  The result is the same bits either
    way.  MIN_SHARE_ROWS keeps ensembles of up to ~4000 paths, such as
    the sample's 500, in one process: on a 2-vCPU VM a fork for them cost
    about as much as it saved (CHANGES.md).

    Steps are ds long on the grid s0 + k ds.  A step that would cross a
    snapshot time off that grid is cut to end on it (as fpe_evolve does),
    and when ds does not divide the span the last step is shortened so
    that the ensemble ends at s1.  The span must lie inside the schedule
    and the snapshot times in (s0, s1].  Blown-up paths are frozen as NaN
    and recorded by step, then by path, not fatal.
    """
    if mode not in ("additive", "multiplicative"):
        raise ConfigError(f"unknown SDE mode {mode!r}")
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

    plan, times, s_final = _step_plan(schedule, noise, s0, s1, ds, snapshot_s)
    # the final states are the last snapshot's when that is taken at the
    # end of the last step
    end_taken = bool(times) and len(times) - 1 in plan[-1][3]
    # the snapshots, then the final states unless they are the last
    # snapshot's, in one shared block, which forked workers write their
    # rows of in place
    out = _fork.shared((len(times) + (not end_taken), n_traj, 3))
    snaps, xi_final = out[:len(times)], out[-1]
    # after the block, whose size check turns too many paths into a MemoryError
    xi0 = np.broadcast_to(np.asarray(xi0, dtype=float), (n_traj, 3))
    additive = mode == "additive"

    def step_rows(lo: int, hi: int, _command) -> list:
        """Step paths [lo, hi) into out, the rows of one chunk at a time;
        return their blow-ups as (step, path, s)."""
        # a piece's component-major state, its finiteness and the drift
        # stages: one in additive mode, which forms the increments in it
        # once the step is done with it; in multiplicative mode the three
        # Heun stages and the increments, which the step turns into its
        # forcing
        rows = min(hi - lo, CHUNK)
        state = [np.empty((3, rows)), np.empty((3, rows), dtype=bool)] \
            + [np.empty((3, rows)) for _ in range(1 if additive else 4)]
        found = []
        # the pieces of [lo, hi) that the chunk bounds cut it into
        cuts = [lo, *range((lo // CHUNK + 1) * CHUNK, hi, CHUNK), hi]
        # runaway paths overflow before they are frozen; the non-finite
        # check after each step is the intended detector, so silence the
        # transient
        with np.errstate(over="ignore", invalid="ignore"):
            for p_lo, p_hi in zip(cuts[:-1], cuts[1:]):
                # chunk c's rows [skip, skip + p_hi - p_lo)
                c, skip = divmod(p_lo, CHUNK)
                # the (rows, 3) views of the piece's component-major arrays
                xi, finite, *work = (b[:, :p_hi - p_lo].T for b in state)
                xi[...] = xi0[p_lo:p_hi]
                alive = np.ones(p_hi - p_lo, dtype=bool)
                for k, (start, h, coeffs, slots, scale) in enumerate(plan):
                    seeded = np.random.SeedSequence((noise.seed, c, k))
                    rng = np.random.Generator(np.random.SFC64(seeded))
                    if additive:
                        _step(xi, h, mode, coeffs, None, work)
                        if scale is not None:
                            xi += _two_point(rng, scale, work[0], skip)
                    else:
                        _step(xi, h, mode, coeffs, _two_point(rng, scale, work[3], skip), work)
                    # a frozen path stays NaN, so while all is finite no
                    # path has blown up yet
                    if not np.isfinite(xi, out=finite).all():
                        bad = alive & ~finite.all(axis=1)
                        found.extend((k, p_lo + int(p), start + h) for p in np.nonzero(bad)[0])
                        alive &= ~bad
                        xi[~alive] = np.nan
                    for j in slots:
                        snaps[j][p_lo:p_hi] = xi
                if not end_taken:
                    xi_final[p_lo:p_hi] = xi
        return found

    with _fork.parts(_fork.bounds(n_traj, n_traj // MIN_SHARE_ROWS), step_rows) as run:
        found = [f for share in run(None, last=True) for f in share]
    return EnsembleResult(
        s_final=s_final,
        xi_final=xi_final,
        snapshots=list(zip(times, snaps)),
        blowups={p: t for _, p, t in sorted(found)},
        meta={"seed": noise.seed, "mode": mode, "ds": ds, "n_steps": len(plan),
              "noise_stream": "SFC64(SeedSequence((seed, chunk, step)))",
              "increments": "two_point", "chunk": CHUNK},
    )
