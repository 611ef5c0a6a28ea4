"""Momentum-space density evolution on a 3D grid.

The density P(xi, s) obeys

    dP/ds = sign * sum_i d_i(A_i P)
            + sum_{i,j,l,k} eps_ij d_l [ B_il d_k ( B_kj P ) ]

with the coupling B(xi; Lambda^2) v = 2 (xi . v) xi - (|xi|^2 + Lambda^2) v
and the drift A = B a of the stochastic module; this pairs with the
Stratonovich SDE dxi = B(xi) o (a ds + dW).  The printed operator carries
+d_i(A_i P); the continuity form matching the SDE needs the minus sign.
Both are available ("verbatim" vs "conventional"); the conventional sign
is the default and the one validated against ensembles.

For additive noise, dxi = B(xi) a ds + dW, the noise coupling is the
identity and the diffusion term collapses to sum_ij eps_ij d_i d_j P,
discretized with compact stencils.  Boundary density is pinned to zero;
mass loss is audited, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, EmptyDensityError, ResolutionError
from .langevin import CoefficientSchedule, diffusion, drift, epsilon_matrix

DS_FLOOR = 1e-9   # smallest admissible step
SAFETY = 0.5      # fraction of the CFL bound taken per step
MASS_TOL = 1e-6   # allowed mass change per unit s in the audit

__all__ = [
    "MomentumGrid",
    "FpeConfig",
    "quantum_epsilon",
    "fpe_rhs",
    "fpe_evolve",
    "density_from_ensemble",
    "total_mass",
    "pin_boundary",
    "write_density",
    "read_density",
]


@dataclass
class MomentumGrid:
    """Cell-centered density over a regular box in (xi1, xi2, xi3)."""

    mins: np.ndarray
    maxs: np.ndarray
    shape: tuple
    P: np.ndarray = None

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=float).reshape(3)
        self.maxs = np.asarray(self.maxs, dtype=float).reshape(3)
        self.shape = tuple(int(n) for n in self.shape)
        if any(n < 8 for n in self.shape):
            raise DomainError(f"need >= 8 cells per axis, got {self.shape}")
        if np.any(self.maxs <= self.mins):
            raise DomainError("grid maxs must exceed mins")
        if self.P is None:
            self.P = np.zeros(self.shape)
        else:
            self.P = np.asarray(self.P, dtype=float).reshape(self.shape)

    @property
    def h(self) -> np.ndarray:
        return (self.maxs - self.mins) / np.array(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def centers(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        return self.mins[axis] + h * (np.arange(self.shape[axis]) + 0.5)

    def mesh(self) -> np.ndarray:
        """Cell-center coordinates, shape (n1, n2, n3, 3)."""
        grids = np.meshgrid(*(self.centers(i) for i in range(3)), indexing="ij")
        return np.stack(grids, axis=-1)

    def same_spec(self, other: "MomentumGrid") -> bool:
        return (
            self.shape == other.shape
            and np.allclose(self.mins, other.mins)
            and np.allclose(self.maxs, other.maxs)
        )

    def copy_with(self, P) -> "MomentumGrid":
        return MomentumGrid(self.mins.copy(), self.maxs.copy(), self.shape, np.array(P))

    def normalize(self) -> None:
        m = total_mass(self)
        if m <= 0.0:
            raise DomainError("cannot normalize a grid with no mass")
        self.P /= m


@dataclass
class FpeConfig:
    """Evolution parameters: noise matrix, drift sign mode, schedule."""

    epsilon: np.ndarray
    schedule: CoefficientSchedule
    sign_mode: str = "conventional"     # or "verbatim"
    multiplicative: bool = False        # False: B = identity (additive noise)

    def __post_init__(self):
        self.epsilon = epsilon_matrix(self.epsilon)
        if self.sign_mode not in ("conventional", "verbatim"):
            raise ConfigError(f"unknown sign mode {self.sign_mode!r}")

    @property
    def drift_sign(self) -> float:
        return -1.0 if self.sign_mode == "conventional" else 1.0


def quantum_epsilon(hbar_scale: float, omega_sq_mean: float) -> float:
    """Quantum noise power, eps = hbar * sqrt(<omega^2>) / 2."""
    if hbar_scale < 0.0 or omega_sq_mean < 0.0:
        raise DomainError("hbar scale and <omega^2> must be nonnegative")
    return 0.5 * hbar_scale * math.sqrt(omega_sq_mean)


def total_mass(grid: MomentumGrid) -> float:
    """Sum of P times the cell volume."""
    return float(np.sum(grid.P) * grid.cell_volume)


def _at(axis, index):
    """Index tuple selecting `index` along one of the three grid axes."""
    sel = [slice(None)] * 3
    sel[axis] = index
    return tuple(sel)


def _d(F, axis, h):
    """Central first difference with zero ghost cells (pinned boundary)."""
    out = np.empty_like(F)
    hi, mid, lo = (_at(axis, slice(2, None)), _at(axis, slice(1, -1)),
                   _at(axis, slice(None, -2)))
    out[mid] = (F[hi] - F[lo]) / (2.0 * h)
    out[_at(axis, 0)] = F[_at(axis, 1)] / (2.0 * h)
    out[_at(axis, -1)] = -F[_at(axis, -2)] / (2.0 * h)
    return out


def _d2(F, axis, h):
    """Compact second difference with zero ghost cells."""
    out = np.empty_like(F)
    hi, mid, lo = (_at(axis, slice(2, None)), _at(axis, slice(1, -1)),
                   _at(axis, slice(None, -2)))
    out[mid] = (F[hi] - 2.0 * F[mid] + F[lo]) / (h * h)
    out[_at(axis, 0)] = (F[_at(axis, 1)] - 2.0 * F[_at(axis, 0)]) / (h * h)
    out[_at(axis, -1)] = (F[_at(axis, -2)] - 2.0 * F[_at(axis, -1)]) / (h * h)
    return out


def _fields(mesh, coeffs, cfg):
    """Drift A (n1, n2, n3, 3) and, for multiplicative noise, the coupling
    B (n1, n2, n3, 3, 3) on the mesh at coeffs; B is None for additive noise."""
    return drift(mesh, coeffs), (diffusion(mesh, coeffs[1]) if cfg.multiplicative else None)


def fpe_rhs(grid: MomentumGrid, coeffs, cfg: FpeConfig, *, fields=None) -> np.ndarray:
    """Discrete right-hand side dP/ds on the grid (second-order stencils).

    `fields` is the (A, B) pair of `_fields` for these coeffs on the grid's
    mesh; fpe_evolve passes it for both stages, and the first stage's is
    the pair its step bound has read.  It is evaluated here when omitted.
    """
    if fields is None:
        fields = _fields(grid.mesh(), coeffs, cfg)
    A, B = fields
    P = grid.P
    h = grid.h
    eps = cfg.epsilon

    rhs = np.zeros_like(P)
    for i in range(3):
        rhs += cfg.drift_sign * _d(A[..., i] * P, i, h[i])

    if not cfg.multiplicative:
        # B = identity: sum_ij eps_ij d_i d_j P with compact stencils
        for i in range(3):
            if eps[i, i] != 0.0:
                rhs += eps[i, i] * _d2(P, i, h[i])
            for j in range(i + 1, 3):
                if eps[i, j] != 0.0:
                    rhs += 2.0 * eps[i, j] * _d(_d(P, j, h[j]), i, h[i])
        return rhs

    # F_j = sum_k d_k (B_kj P); then rhs += sum_l d_l [ sum_i B_il (eps F)_i ]
    F = sum(_d(B[..., k, :] * P[..., None], k, h[k]) for k in range(3))
    BG = np.einsum("...il,...i->...l", B, F @ eps)
    for l in range(3):
        rhs += _d(BG[..., l], l, h[l])
    return rhs


def _stable_ds(grid, cfg, fields):
    """CFL step bound from the step-start fields (A, B) of _fields."""
    A, B = fields
    amax = float(np.max(np.abs(A)))
    h = grid.h
    ds = np.inf
    if amax > 0.0:
        ds = min(ds, float(np.min(h)) / amax)
    tr_eps = float(np.trace(cfg.epsilon))
    if tr_eps > 0.0:
        bmax = max(float(np.max(np.abs(B))), 1.0) if cfg.multiplicative else 1.0
        ds = min(ds, float(np.min(h)) ** 2 / (2.0 * tr_eps * bmax * bmax))
    return SAFETY * ds


def pin_boundary(P):
    """Zero the outermost cells of a density array in place."""
    P[0, :, :] = P[-1, :, :] = 0.0
    P[:, 0, :] = P[:, -1, :] = 0.0
    P[:, :, 0] = P[:, :, -1] = 0.0


@dataclass
class FpeResult:
    """Snapshots plus mass and positivity diagnostics."""

    snapshots: list                      # [(s, MomentumGrid), ...]
    mass_series: list                    # [(s, mass), ...]
    diagnostics: dict = field(default_factory=dict)


def fpe_evolve(grid0: MomentumGrid, s_span, cfg: FpeConfig, snapshot_s=()) -> FpeResult:
    """Explicit RK2 (midpoint) evolution with a CFL-bounded step.

    The initial density must be normalized to 1e-9, the span must lie
    inside the schedule and the snapshot times in (s0, s1].  Boundary
    cells are pinned to zero every stage; snapshots are deep copies.
    """
    if abs(total_mass(grid0) - 1.0) > 1e-9:
        raise DomainError(f"initial density not normalized: mass = {total_mass(grid0)}")
    s0, s1 = float(s_span[0]), float(s_span[1])
    if s1 <= s0:
        raise DomainError("empty evolution span")
    cfg.schedule.check_span(s0, s1)

    mesh = grid0.mesh()
    P = grid0.P.copy()
    work = grid0.copy_with(P)

    targets = sorted({float(v) for v in snapshot_s} | {s1})
    if targets[0] <= s0 or targets[-1] > s1 + 1e-12:
        raise DomainError("snapshot times must lie in (s0, s1]")
    snaps: list = []
    mass_series = [(s0, total_mass(work))]
    neg_flags = 0
    s = s0

    for target in targets:
        while s < target - 1e-15:
            coeffs = cfg.schedule.at(s)
            fields = _fields(mesh, coeffs, cfg)
            ds = min(_stable_ds(work, cfg, fields), target - s)
            if ds < DS_FLOOR:
                raise ResolutionError(f"stability limit forced ds = {ds} below floor {DS_FLOOR}")
            work.P = P
            # the stage slopes k1, k2 are consumed at once and the step-start
            # fields freed before k2 evaluates its own: this bounds peak memory
            mid = P + 0.5 * ds * fpe_rhs(work, coeffs, cfg, fields=fields)
            del fields
            pin_boundary(mid)
            work.P = mid
            coeffs_mid = cfg.schedule.at(s + 0.5 * ds)
            P = P + ds * fpe_rhs(work, coeffs_mid, cfg, fields=_fields(mesh, coeffs_mid, cfg))
            pin_boundary(P)
            if np.any(P < -1e-12 * max(P.max(), 1e-300)):
                neg_flags += 1
            s += ds
        work.P = P
        mass_series.append((s, total_mass(work)))
        snaps.append((s, work.copy_with(P)))

    masses = [m for _, m in mass_series]
    diag = {
        "negative_undershoot_steps": neg_flags,
        "mass_initial": masses[0],
        "mass_final": masses[-1],
        "max_mass_loss_rate": max(
            (abs(masses[i] - masses[i - 1]) / max(mass_series[i][0] - mass_series[i - 1][0], 1e-300)
             for i in range(1, len(masses))),
            default=0.0,
        ),
        "mass_ok": abs(masses[-1] - masses[0]) <= MASS_TOL * max(s1 - s0, 1.0),
    }
    return FpeResult(snapshots=snaps, mass_series=mass_series, diagnostics=diag)


def density_from_ensemble(samples, grid_spec: MomentumGrid) -> MomentumGrid:
    """Normalized histogram of samples (n, 3) on the grid; counts out-of-range
    samples in the returned grid's diagnostics attribute."""
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    if len(samples) < 1:
        raise DomainError("need at least one sample")
    finite = np.all(np.isfinite(samples), axis=1)
    edges = [
        np.linspace(grid_spec.mins[i], grid_spec.maxs[i], grid_spec.shape[i] + 1)
        for i in range(3)
    ]
    hist, _ = np.histogramdd(samples[finite], bins=edges)
    n_in = float(hist.sum())
    if n_in == 0.0:
        raise EmptyDensityError("all samples fell outside the grid")
    out = grid_spec.copy_with(hist / (n_in * grid_spec.cell_volume))
    out.out_of_range = int(len(samples) - n_in)
    return out


def write_density(grid: MomentumGrid, s: float, cfg_info: dict, path):
    """Self-describing text export: axis specs and run info, then row-major values."""
    with open(path, "w") as fh:
        fh.write("# tribody momentum density snapshot\n")
        fh.write(f"# s = {s!r}\n")
        for key in sorted(cfg_info):
            fh.write(f"# {key} = {cfg_info[key]!r}\n")
        for i in range(3):
            fh.write(
                f"# axis{i + 1} min={float(grid.mins[i])!r} max={float(grid.maxs[i])!r} n={grid.shape[i]}\n"
            )
        np.savetxt(fh, grid.P.reshape(-1, grid.shape[-1]), fmt="%.17g")


def read_density(path) -> tuple:
    """Load a density snapshot written by write_density; returns (grid, s)."""
    mins, maxs, shape, s = [0.0] * 3, [0.0] * 3, [0] * 3, None
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            if line.startswith("# s ="):
                s = float(line.split("=", 1)[1])
            if line.startswith("# axis"):
                i = int(line[6]) - 1
                parts = dict(p.split("=") for p in line[8:].split())
                mins[i], maxs[i], shape[i] = float(parts["min"]), float(parts["max"]), int(parts["n"])
    P = np.loadtxt(path).reshape(shape)
    return MomentumGrid(mins, maxs, tuple(shape), P), s
