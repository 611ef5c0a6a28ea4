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

For multiplicative noise the operator is formed component by component
on (n1, n2, n3) arrays: F_j = sum_k d_k(B_kj P), G = eps F, then
sum_l d_l(sum_i B_il G_i).  B is symmetric, and on a fixed mesh only the
-Lambda^2 shift of its diagonal changes with s, so fpe_evolve forms the
products 2 xi_k xi_j (k <= j) and |xi|^2 once and each stage sets only
the diagonal 2 xi_k^2 - (|xi|^2 + Lambda^2).

For additive noise, dxi = B(xi) a ds + dW, the noise coupling is the
identity and the diffusion term collapses to sum_ij eps_ij d_i d_j P,
discretized with compact stencils.  Boundary density is pinned to zero;
mass loss is audited, not hidden: the mass that the end-of-step pins
delete is recorded beside the mass balance.  The additive operator
telescopes on the pinned grid, so that outflow closes the balance; the
multiplicative one also carries mass out through the boundary faces.

Layout.  Per-cell vectors are stored component-major: fpe_evolve forms
the cell centres once per solve as a contiguous (3, n1, n2, n3) array
X = grid.mesh(axis=0), and the drift A is a new (3, n1, n2, n3) array
that langevin.drift (so geodesic.momentum_rhs, the one B a kernel)
fills through the (n1, n2, n3, 3) views of X and A, whose components
are then contiguous.  The fields (A, and B for multiplicative noise) are
formed only for a stage whose coefficients (a, Lambda^2) differ from
those of the fields held: a constant schedule forms them once per
solve, a trajectory schedule at every stage.  Every other array lives
for one call: each stencil returns a new array from one flat pass over
contiguous data, with each cell's operations in the same order as on
the mesh form, so the result is bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, EmptyDensityError, ResolutionError
from .langevin import CoefficientSchedule, drift, epsilon_matrix

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

    def mesh(self, axis: int = -1) -> np.ndarray:
        """Cell-center coordinates stacked on `axis`: shape (n1, n2, n3, 3)
        by default, and the contiguous component-major (3, n1, n2, n3)
        with axis=0."""
        grids = np.meshgrid(*(self.centers(i) for i in range(3)), indexing="ij")
        return np.stack(grids, axis=axis)

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


def _flat(F, axis):
    """F as a C-contiguous array, a new array of its shape, both also
    flattened, and the distance s in the flattened arrays from a cell to
    its neighbour along `axis`."""
    F = np.ascontiguousarray(F)
    out = np.empty_like(F)
    return F, out, F.reshape(-1), out.reshape(-1), F.strides[axis] // F.itemsize


def _d(F, axis, h):
    """Central first difference with zero ghost cells (pinned boundary),
    as a new array.

    The interior is one contiguous pass over the flattened arrays, where
    a cell's neighbours along the axis lie s elements away.  That pass
    also fills the two faces normal to the axis, from the adjacent rows
    of the flattened array; the one-sided formulas then overwrite them.
    """
    F, out, f, o, s = _flat(F, axis)
    mid = o[s:-s]
    np.subtract(f[2 * s:], f[:-2 * s], out=mid)
    mid /= 2.0 * h
    np.divide(F[_at(axis, 1)], 2.0 * h, out=out[_at(axis, 0)])
    last = np.negative(F[_at(axis, -2)], out=out[_at(axis, -1)])
    last /= 2.0 * h
    return out


def _d2(F, axis, h):
    """Compact second difference with zero ghost cells, as a new array;
    the interior is one flat pass, as in _d."""
    F, out, f, o, s = _flat(F, axis)
    for dst, src, hi, lo in ((o[s:-s], f[s:-s], f[2 * s:], f[:-2 * s]),
                             (out[_at(axis, 0)], F[_at(axis, 0)], F[_at(axis, 1)], None),
                             (out[_at(axis, -1)], F[_at(axis, -1)], F[_at(axis, -2)], None)):
        np.multiply(src, 2.0, out=dst)
        np.subtract(hi, dst, out=dst)
        if lo is not None:
            dst += lo
        dst /= h * h
    return out


# the entries (k, j), k <= j, that fix a symmetric 3x3 matrix
_UPPER = tuple((k, j) for k in range(3) for j in range(k, 3))


def _symmetric(entries):
    """Rows of a symmetric 3x3 matrix from its ((k, j), value) entries on
    and above the diagonal; M[k][j] and M[j][k] are one object."""
    M = [[None] * 3 for _ in range(3)]
    for (k, j), value in entries:
        M[k][j] = M[j][k] = value
    return M


def _quadratic(X):
    """The parts of the coupling that do not depend on Lambda^2: the rows of
    the symmetric 2 xi xi^T and |xi|^2, as (n1, n2, n3) arrays, from the
    component-major cell centres X = grid.mesh(axis=0)."""
    xi = list(X)
    two_xx = _symmetric(((k, j), 2.0 * xi[k] * xi[j]) for k, j in _UPPER)
    return two_xx, xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2]


def _coupling(quad, lam_sq):
    """The coupling B(xi; Lambda^2) of langevin.diffusion on the mesh, as
    the rows of (n1, n2, n3) components that _symmetric makes.  Only the
    diagonal 2 xi_k^2 - (|xi|^2 + Lambda^2) is formed; the off-diagonal
    products of _quadratic are used as they are."""
    two_xx, sq = quad
    q = sq + lam_sq
    return _symmetric(((k, j), two_xx[k][j] - q if k == j else two_xx[k][j])
                      for k, j in _UPPER)


def _fields(X, coeffs, cfg, quad=None):
    """Drift A and, for multiplicative noise, the coupling B of _coupling
    at coeffs on the component-major cell centres X = grid.mesh(axis=0);
    B is None for additive noise.  A is a new (3, n1, n2, n3) array,
    component A[i] contiguous: the drift kernel runs on the
    (n1, n2, n3, 3) views of X and A, whose components are then
    contiguous.  quad is _quadratic(X), formed here when omitted."""
    A = np.empty(X.shape)
    drift(np.moveaxis(X, 0, -1), coeffs, out=np.moveaxis(A, 0, -1))
    if not cfg.multiplicative:
        return A, None
    return A, _coupling(_quadratic(X) if quad is None else quad, coeffs[1])


def fpe_rhs(grid: MomentumGrid, coeffs, cfg: FpeConfig, *, fields=None) -> np.ndarray:
    """Discrete right-hand side dP/ds on the grid (second-order stencils).

    `fields` is the (A, B) pair of `_fields` for these coeffs on the grid's
    cells: A component-major, (3, n1, n2, n3), and, for multiplicative
    noise, B as rows of (n1, n2, n3) components, where the symmetric
    B[k][j] and B[j][k] are one array.  fpe_evolve passes it for both
    stages, and the first stage's is the pair its step bound has read.  It
    is formed here when omitted.  The result is a new array.

    Each term is scaled and added in place, so beside the result the call
    holds at most 2 temporaries of the grid's shape (8 for multiplicative
    noise, with F and G), all freed when it returns.
    """
    if fields is None:
        fields = _fields(grid.mesh(axis=0), coeffs, cfg)
    A, B = fields
    P, h, eps = grid.P, grid.h, cfg.epsilon
    rhs = np.zeros_like(P)
    accumulate = np.subtract if cfg.drift_sign < 0.0 else np.add
    for i in range(3):
        accumulate(rhs, _d(A[i] * P, i, h[i]), out=rhs)

    if B is None:
        # B = identity: sum_ij eps_ij d_i d_j P with compact stencils, the
        # diagonal term of each i first; each term is freed before the next
        for i in range(3):
            for j in range(i, 3):
                if eps[i, j] != 0.0:
                    term = _d2(P, i, h[i]) if j == i else _d(_d(P, j, h[j]), i, h[i])
                    term *= eps[i, i] if j == i else 2.0 * eps[i, j]
                    rhs += term
                    del term
        return rhs

    # F_j = sum_k d_k (B_kj P), component by component.  Each product
    # B_kj P (k <= j) is formed once and differenced along k for F_j and
    # along j for F_k; in _UPPER order every F_j gets its terms k = 0, 1, 2
    # left to right.
    F = [np.zeros(P.shape) for _ in range(3)]
    G = [np.zeros(P.shape) for _ in range(3)]
    for k, j in _UPPER:
        t = B[k][j] * P
        for axis, comp in {(k, j), (j, k)}:
            F[comp] += _d(t, axis, h[axis])
    # G = eps F, each G_i summed over j left to right
    for i in range(3):
        for j in range(3):
            if eps[i, j] != 0.0:
                G[i] += F[j] * eps[i, j]
    # rhs += sum_l d_l [ sum_i B_il G_i ]
    for l in range(3):
        t = B[0][l] * G[0]
        for i in (1, 2):
            t += B[i][l] * G[i]
        rhs += _d(t, l, h[l])
    return rhs


def _absmax(x) -> float:
    """max |x| without a temporary of x's size (NaN if x holds one)."""
    return float(max(x.max(), -x.min()))


def _stable_ds(grid, cfg, fields):
    """CFL step bound from the step-start fields (A, B) of _fields, and the
    term that sets it: "drift", "diffusion", or None when neither bounds
    the step (the bound is then inf)."""
    A, B = fields
    amax = _absmax(A)
    h = grid.h
    ds, term = np.inf, None
    if amax > 0.0:
        ds, term = float(np.min(h)) / amax, "drift"
    tr_eps = float(np.trace(cfg.epsilon))
    if tr_eps > 0.0:
        bmax = 1.0
        if cfg.multiplicative:
            bmax = max(max(_absmax(B[k][j]) for k, j in _UPPER), 1.0)
        diffusive = float(np.min(h)) ** 2 / (2.0 * tr_eps * bmax * bmax)
        if diffusive < ds:
            ds, term = diffusive, "diffusion"
    return SAFETY * ds, term


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
    cells are pinned to zero every stage; snapshots are deep copies.  The
    diagnostics record the mass that the end-of-step pins delete
    (`boundary_outflow`) and `mass_balance_residual` = mass_initial -
    mass_final - boundary_outflow; the number of `steps`, their `ds_min`,
    `ds_median` and `ds_max`; in `cfl_limit` how many steps the drift
    or the diffusion bound set and how many were cut to end on a
    snapshot time ("snapshot"); and in `field_evals` how many times the
    solve formed its fields with _fields.

    A stage's fields are formed only when its coefficients differ, bit
    for bit, from those of the fields held, which are released first:
    the step bound and the first stage share the step start's fields,
    a constant schedule forms them once per solve (`field_evals` 1), and
    a schedule that changes between stages forms them at every stage
    (`field_evals` = 2 `steps`).  Reuse skips a call of _fields on the
    inputs it was last called with, so the results are the same bits.
    """
    if abs(total_mass(grid0) - 1.0) > 1e-9:
        raise DomainError(f"initial density not normalized: mass = {total_mass(grid0)}")
    s0, s1 = float(s_span[0]), float(s_span[1])
    if s1 <= s0:
        raise DomainError("empty evolution span")
    cfg.schedule.check_span(s0, s1)

    X = grid0.mesh(axis=0)
    quad = _quadratic(X) if cfg.multiplicative else None
    P = grid0.P.copy()
    work = grid0.copy_with(P)
    held, fields, field_evals = None, None, 0

    def fields_at(coeffs):
        """The fields at coeffs: the held ones when coeffs has the bits of
        the coefficients they were formed for, new ones otherwise."""
        nonlocal held, fields, field_evals
        key = np.append(coeffs[0], coeffs[1]).tobytes()
        if key != held:
            # release the held fields before the next ones are formed
            fields = None
            fields = _fields(X, coeffs, cfg, quad)
            held = key
            field_evals += 1
        return fields

    targets = sorted({float(v) for v in snapshot_s} | {s1})
    if targets[0] <= s0 or targets[-1] > s1 + 1e-12:
        raise DomainError("snapshot times must lie in (s0, s1]")
    snaps: list = []
    mass_series = [(s0, total_mass(work))]
    neg_flags = 0
    outflow = 0.0
    steps: list = []
    limits = {"drift": 0, "diffusion": 0, "snapshot": 0}
    s = s0

    for target in targets:
        while s < target - 1e-15:
            coeffs = cfg.schedule.at(s)
            ds, term = _stable_ds(work, cfg, fields_at(coeffs))
            if target - s < ds:
                ds, term = target - s, "snapshot"
            if ds < DS_FLOOR:
                raise ResolutionError(f"stability limit forced ds = {ds} below floor {DS_FLOOR}")
            work.P = P
            # each stage slope is turned into its stage in place
            mid = fpe_rhs(work, coeffs, cfg, fields=fields_at(coeffs))
            mid *= 0.5 * ds
            mid += P
            pin_boundary(mid)
            work.P = mid
            coeffs_mid = cfg.schedule.at(s + 0.5 * ds)
            new = fpe_rhs(work, coeffs_mid, cfg, fields=fields_at(coeffs_mid))
            new *= ds
            new += P
            P = new
            unpinned = np.sum(P)
            pin_boundary(P)
            outflow += float((unpinned - np.sum(P)) * work.cell_volume)
            if np.any(P < -1e-12 * max(P.max(), 1e-300)):
                neg_flags += 1
            s += ds
            steps.append(ds)
            limits[term] += 1
        work.P = P
        mass_series.append((s, total_mass(work)))
        snaps.append((s, work.copy_with(P)))

    masses = [m for _, m in mass_series]
    # the median by hand: np.median imports numpy.ma, ~1 MB of resident
    # memory for one number
    ordered, half = sorted(steps), len(steps) // 2
    ds_median = ordered[half] if len(steps) % 2 else (ordered[half - 1] + ordered[half]) / 2
    diag = {
        "negative_undershoot_steps": neg_flags,
        "mass_initial": masses[0],
        "mass_final": masses[-1],
        "boundary_outflow": outflow,
        "mass_balance_residual": masses[0] - masses[-1] - outflow,
        "max_mass_loss_rate": max(
            (abs(masses[i] - masses[i - 1]) / max(mass_series[i][0] - mass_series[i - 1][0], 1e-300)
             for i in range(1, len(masses))),
            default=0.0,
        ),
        "mass_ok": abs(masses[-1] - masses[0]) <= MASS_TOL * max(s1 - s0, 1.0),
        "steps": len(steps),
        "ds_min": ordered[0],
        "ds_median": ds_median,
        "ds_max": ordered[-1],
        "cfl_limit": limits,
        "field_evals": field_evals,
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
