"""Momentum-space density evolution on a 3D grid.

The density P(xi, s) obeys

    dP/ds = sign * sum_i d_i(A_i P)
            + eps sum_{i,l,k} d_l [ B_il d_k ( B_ki P ) ]

with the coupling B(xi; Lambda^2) v = 2 (xi . v) xi - (|xi|^2 + Lambda^2) v,
the drift A = B a of the stochastic module and the noise power eps, one
number >= 0 (langevin.noise_power); this pairs with the Stratonovich SDE
dxi = B(xi) o (a ds + dW).  The printed operator carries
+d_i(A_i P); the continuity form matching the SDE needs the minus sign.
Both are available ("verbatim" vs "conventional"); the conventional sign
is the default and the one validated against ensembles.

For multiplicative noise the operator is formed component by component
on (n1, n2, n3) arrays: F_j = sum_k d_k(B_kj P), G_i = eps F_i, then
sum_l d_l(t_l) with t_l = sum_i B_il G_i pinned to zero on the boundary
cells like P.  The drift term needs no drift field: a is constant over
the mesh, d linear and B symmetric, so sum_i d_i(A_i P) = sum_k a_k F_k.
On a fixed mesh only the -Lambda^2 shift of B's diagonal changes with s,
so fpe_evolve forms the products 2 xi_k xi_j (k <= j) and |xi|^2 once and
each stage sets only the diagonal 2 xi_k^2 - (|xi|^2 + Lambda^2).

For additive noise, dxi = B(xi) a ds + dW, the noise coupling is the
identity and the diffusion term collapses to eps sum_i d_i d_i P.
Both operators are a divergence of face fluxes, rhs[x] = sum_i
(Phi_i[x+e_i/2] - Phi_i[x-e_i/2]), with zero ghost cells.  A central
difference (t[x+e] - t[x-e]) / 2h is the divergence of the face averages
(t[x] + t[x+e]) / 2h, whose outer faces carry t of the first and of the
last cells (_central); the multiplicative operator is made of these.
The additive drift and diffusion make one 7-point flux: with alpha_i =
eps / h_i^2, weights W_i = alpha_i + sign A_i / (2 h_i), t = W_i P and
u = 2 alpha_i P - t, Phi_i[x+e_i/2] = t[x+e_i] - u[x], so

    rhs[x] = -2 sum_i alpha_i P[x] + sum_i ( t[x+e_i] + u[x-e_i] ),

where a cell's own part, -(t + u)[x], holds the outer faces' flux, t of
the first cells and -u of the last.  Boundary density is pinned to zero,
so both operators telescope: the grid sum of rhs, the net flux through
the outer faces, is zero on a pinned density (t = u = 0 there, and the
flux sum_i B_il G_i is pinned too).  Mass loss is audited, not hidden:
the mass that the end-of-step pins delete, summed over the boundary shell
first, is recorded beside the mass balance and closes it up to rounding.

Step bound.  Each midpoint RK2 step takes SAFETY times the smaller of the
drift bound min(h) / max|A| and the diffusion bound 2 / R, the scheme's
limit on the negative real axis when R bounds the diffusion operator's
spectral radius.  For multiplicative noise R = r0 + |Lambda^2| r1 +
Lambda^4 r2, where r_m bounds the row sums of the part of the 19-point
stencil's coefficients that goes with Lambda^(2m), so R bounds the radius
(Gershgorin); fpe_evolve forms (r0, r1, r2) once per solve, from the
products that it forms once too.  For additive noise R = 12 eps /
min(h)^2, which bounds the compact stencil's row sums 4 eps sum_i 1 /
h_i^2 and equals them on a cubic grid, and max|A| is read off the drift
before it is turned into the weights.

Layout.  Each coefficient set (a, Lambda^2) has one field, which the
operator and the step bound read: for additive noise the weights W with
the max|A| of the drift they were formed from, and for multiplicative
noise the rows of B, whose step bound reads max|A| as max|B a|.
Per-cell vectors are stored component-major: A is a (3, n1, n2, n3)
array that langevin.drift (so geodesic.momentum_rhs, the one B a kernel)
fills a block of rows of axis 0 at a time, through the (rows, n2, n3, 3)
views of A's rows and of the block's contiguous cell centres X =
grid.mesh(axis=0, rows=...), whose components are then contiguous; W is
formed from A in place, and max|A| is the largest of the blocks'.  So no
solve holds the whole grid's cell centres: a multiplicative one forms
them once, for the products of _quadratic, and drops them.  fpe_evolve
forms each field into one (3, n1, n2, n3) buffer, A and W for additive
noise and B's diagonal for multiplicative noise, and only for a stage
whose coefficients differ from those of the field held: a constant
schedule forms it once per solve, a trajectory schedule at every stage.
Every other array lives for one call, except P, the midpoint and that
buffer (see Slabs), and for multiplicative noise the products of
_quadratic.  Fluxes and their divergence are formed in flat passes over
contiguous data, where a cell's neighbour along axis i lies s_i elements
away; where a pass meets the next row, it adds an exact 0.  Axis by axis,
each cell gets its upper face's flux, then loses its lower face's, the
order of the mesh form on zero-padded arrays, so the result is
bit-identical to it.

Slabs.  The operator at a cell reads cells at most two rows away along
any axis for multiplicative noise, whose form nests two differences, and
one row away for additive noise (the 7-point flux).  So fpe_rhs on a
block of rows of axis 0 with HALO = 2, or for additive noise 1, more
rows on each side gives those rows' bits on the whole grid.  fpe_evolve
writes each stage in contiguous slabs of axis 0, one per usable CPU but
none of fewer than MIN_SLAB_CELLS cells (_slab_bounds), the first stage
into the midpoint and the second into P in place, which lie in one
shared anonymous mmap with the field's buffer.  The slabs are the parts
of _fork.parts: the caller writes the last, and a worker forked for the
solve each other one; with one slab the caller writes every row and
nothing is forked.  The caller alone forms the field, and every slab
reads its rows of it there.  A slab evaluates a stage in blocks of at
most BLOCK_CELLS cells (a row at least), whose arrays stay in a core's
L2 cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import _fork
from .errors import ConfigError, DomainError, EmptyDensityError, ResolutionError
from .langevin import CoefficientSchedule, drift, noise_power

DS_FLOOR = 1e-9   # smallest admissible step
SAFETY = 0.5      # fraction of the CFL bound taken per step
MASS_TOL = 1e-6   # allowed mass change per unit s in the audit
# rows a block of a multiplicative stage reads beyond its own on each side:
# that operator nests two differences (the additive one reads 1 row)
HALO = 2
# most cells in a block of rows of a stage (but at least a row), so that a
# block's arrays stay in a core's L2 cache (measured, see fpe_evolve)
BLOCK_CELLS = 32768
# fewest cells a slab of a solve's stages may get for a worker to be
# forked for it (measured, see fpe_evolve)
MIN_SLAB_CELLS = 50000

__all__ = [
    "MomentumGrid",
    "FpeConfig",
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

    def mesh(self, axis: int = -1, rows: slice = slice(None)) -> np.ndarray:
        """Cell-center coordinates stacked on `axis`: shape (n1, n2, n3, 3)
        by default, and the contiguous component-major (3, n1, n2, n3)
        with axis=0; of the rows of axis 0 that `rows` selects only."""
        axes = [self.centers(i) for i in range(3)]
        axes[0] = axes[0][rows]
        # broadcast views, which np.stack copies once
        return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=axis)

    def same_spec(self, other: "MomentumGrid") -> bool:
        """Whether other has this grid's shape and bounds, bit for bit."""
        return (
            self.shape == other.shape
            and np.array_equal(self.mins, other.mins)
            and np.array_equal(self.maxs, other.maxs)
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
    """Evolution parameters: noise power, drift sign mode, schedule."""

    epsilon: float
    schedule: CoefficientSchedule
    sign_mode: str = "conventional"     # or "verbatim"
    multiplicative: bool = False        # False: B = identity (additive noise)

    def __post_init__(self):
        self.epsilon = noise_power(self.epsilon)
        if self.sign_mode not in ("conventional", "verbatim"):
            raise ConfigError(f"unknown sign mode {self.sign_mode!r}")

    @property
    def drift_sign(self) -> float:
        return -1.0 if self.sign_mode == "conventional" else 1.0


def total_mass(grid: MomentumGrid) -> float:
    """Sum of P times the cell volume."""
    return float(np.sum(grid.P) * grid.cell_volume)


def _at(axis, index):
    """Index tuple selecting `index` along one of the three grid axes."""
    sel = [slice(None)] * 3
    sel[axis] = index
    return tuple(sel)


def _central(out, t, axis):
    """Add t[x+e] - t[x-e] along axis, zero beyond the block, to out, as
    the divergence of the face sums Phi[x+1/2] = t[x] + t[x+e] in flat
    passes: each cell gets its upper face's flux, then loses its lower
    face's.  The outer faces carry t of the first and of the last cells.
    out and t are C-contiguous, and t holds the differenced quantity over
    twice the spacing, so a face sum is its face average."""
    s = t.strides[axis] // t.itemsize
    phi, flat, o = np.empty_like(t), t.reshape(-1), out.reshape(-1)
    f = np.add(flat[:-s], flat[s:], out=phi.reshape(-1)[:-s])
    # the interior faces only: zero where a flat pass meets the next row
    phi[_at(axis, -1)] = 0.0
    o[:-s] += f
    last, first = out[_at(axis, -1)], out[_at(axis, 0)]
    last += t[_at(axis, -1)]
    o[s:] -= f
    first -= t[_at(axis, 0)]


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


def _coupling(quad, lam_sq, out=None):
    """The coupling B(xi; Lambda^2) of langevin.diffusion on the mesh, as the
    rows that _symmetric makes.  Only the diagonal 2 xi_k^2 - (|xi|^2 +
    Lambda^2) is formed, into the (3, n1, n2, n3) array out (a new one if
    omitted); the off-diagonal products of _quadratic are used as they
    are."""
    two_xx, sq = quad
    if out is None:
        out = np.empty((3,) + sq.shape)
    q = sq + lam_sq
    for k in range(3):
        np.subtract(two_xx[k][k], q, out=out[k])
    return _symmetric(((k, j), out[k] if k == j else two_xx[k][j]) for k, j in _UPPER)


def _row_sums(quad, h, eps):
    """Gershgorin row sums of the pinned multiplicative diffusion operator
    P -> sum_l d_l pin(sum_i B_il eps sum_k d_k(B_ki P)), split by
    powers of Lambda^2: (r0, r1, r2) with r_m the largest over interior
    rows of sum_offsets |c_m|, where c0 + Lambda^2 c1 + Lambda^4 c2 is the
    coefficient at an offset.

    The operator is a 19-point stencil.  Its coefficient at x + s e_l +
    t e_k sums s t / (4 h_l h_k) eps (B(y) B(z))_lk over every (l, k, s, t)
    that lands there, with y = x + s e_l (no term when y is a boundary cell,
    whose flux is pinned) and z = y + t e_k.  With B = Q - Lambda^2 I and Q
    the coupling at Lambda^2 = 0, eps (B(y) B(z))_lk = eps (Q(y) Q(z))_lk -
    Lambda^2 (eps Q(z)_lk + eps Q(y)_lk) + Lambda^4 eps delta_lk.  The
    offsets are summed one at a time, so beside Q's diagonal and the three
    sums only one offset's coefficients are held."""
    Q = _coupling(quad, 0.0)
    n = quad[1].shape
    inner = tuple(m - 2 for m in n)
    stencil = {}
    for l, k, s, t in itertools.product(range(3), range(3), (-1, 1), (-1, 1)):
        offset = tuple(s * (a == l) + t * (a == k) for a in range(3))
        stencil.setdefault(offset, []).append((l, k, s, t))
    sums = [np.zeros(inner) for _ in range(3)]
    for offset, terms in stencil.items():
        coeff = [np.zeros(inner) for _ in range(3)]
        for l, k, s, t in terms:
            # the interior rows x, index range [lo, hi) on each axis, whose
            # y = x + s e_l is interior too, and the cells y and z of each
            lo, hi = [1, 1, 1], [m - 1 for m in n]
            if s > 0:
                hi[l] -= 1
            else:
                lo[l] += 1
            rows = tuple(slice(a - 1, b - 1) for a, b in zip(lo, hi))
            y = tuple(slice(a + s * (d == l), b + s * (d == l))
                      for d, (a, b) in enumerate(zip(lo, hi)))
            z = tuple(slice(a + o, b + o) for a, b, o in zip(lo, hi, offset))
            w = s * t / (4.0 * h[l] * h[k])
            coeff[0][rows] += w * sum(eps * Q[l][i][y] * Q[i][k][z] for i in range(3))
            coeff[1][rows] -= w * (eps * Q[l][k][z] + eps * Q[l][k][y])
            if l == k:
                coeff[2][rows] += w * eps
        for total, c in zip(sums, coeff):
            total += np.abs(c, out=c)
    return tuple(float(total.max()) for total in sums)


def _alpha(h, eps):
    """The diffusion weights alpha_i = eps / h_i^2 of the additive stencil."""
    return [eps / (h[i] * h[i]) for i in range(3)]


def _field(X, h, coeffs, cfg, quad=None, out=None):
    """The field of coeffs that fpe_rhs and the step bound read, on the
    component-major cell centres X = grid.mesh(axis=0), or a block of its
    rows, with spacing h, formed into the array out of X's shape (a new
    one if omitted).

    For additive noise it is (W, max|A|): the drift kernel fills out with
    A through the (n1, n2, n3, 3) views of X and out, its max|A| is read,
    and A is turned in place into the stencil's weights W_i = alpha_i +
    sign A_i / (2 h_i).  For multiplicative noise it is the rows of
    _coupling, from quad = _quadratic(X), formed if omitted (X is not read
    otherwise), with B's diagonal in out."""
    if cfg.multiplicative:
        return _coupling(_quadratic(X) if quad is None else quad, coeffs[1], out)
    A = np.empty(X.shape) if out is None else out
    drift(np.moveaxis(X, 0, -1), coeffs, out=np.moveaxis(A, 0, -1))
    amax = _absmax(A)
    for i, alpha in enumerate(_alpha(h, cfg.epsilon)):
        A[i] *= cfg.drift_sign / (2.0 * h[i])
        A[i] += alpha
    return A, amax


def fpe_rhs(grid: MomentumGrid, coeffs, cfg: FpeConfig, *, field=None) -> np.ndarray:
    """Discrete right-hand side dP/ds on the grid, a divergence of face fluxes.

    `field` is the field of `_field` for these coeffs on the grid's cells,
    formed here when omitted: for additive noise the stencil's weights W,
    component-major (3, n1, n2, n3), with max|A|; for multiplicative noise
    B as rows of (n1, n2, n3) components, where the symmetric B[k][j] and
    B[j][k] are one array, and the drift term is sign * sum_k a_k F_k.
    fpe_evolve passes the field for both stages, and the first stage's is
    the one its step bound has read.  The result is a new array.  grid.P
    may be a block of rows of axis 0 of the density, with the field of
    those rows; the result is then that of a grid that ends at the
    block's first and last rows (fpe_evolve's blocks).

    Beside the result the call holds at most 2 arrays of the grid's shape
    for additive noise: the 7-point flux's products t = W_i P and u = 2
    alpha_i P - t, one pair for all three axes.  For multiplicative noise
    it holds F, P / 2h (one array per spacing) and a product with its face
    sums, then G beside F; F is freed before the flux terms, which hold G
    and at most 3 more.
    """
    if field is None:
        field = _field(grid.mesh(axis=0), grid.h, coeffs, cfg)
    P, h, eps = np.ascontiguousarray(grid.P), grid.h, cfg.epsilon
    if not cfg.multiplicative:
        # each cell's own part -(t + u)[x] over all axes, then t[x + e_i] +
        # u[x - e_i]; the outer faces' products are zeroed, so a flat shift
        # takes none where it meets the next row (module docstring)
        W, alpha = field[0], _alpha(h, eps)
        rhs = P * (-2.0 * sum(alpha))
        t, u = np.empty_like(P), np.empty_like(P)
        for i in range(3):
            np.multiply(P, W[i], out=t)
            np.multiply(P, 2.0 * alpha[i], out=u)
            u -= t
            t[_at(i, 0)] = 0.0
            u[_at(i, -1)] = 0.0
            s = P.strides[i] // P.itemsize
            rhs.reshape(-1)[:-s] += t.reshape(-1)[s:]
            rhs.reshape(-1)[s:] += u.reshape(-1)[:-s]
        return rhs

    # F_j = sum_k d_k (B_kj P) from P / 2h, formed once per spacing: B_kj P
    # (k <= j) is differenced along k for F_j and along j for F_k, formed
    # once if h_j = h_k; in _UPPER order F_j gets its terms k = 0, 1, 2.
    B, half = field, 0.5 / h
    scaled = {c: P * c for c in set(half.tolist())}
    F = [np.zeros(P.shape) for _ in range(3)]
    for k, j in _UPPER:
        t = B[k][j] * scaled[half[k]]
        _central(F[j], t, k)
        if j != k:
            if half[j] != half[k]:
                t = B[k][j] * scaled[half[j]]
            _central(F[k], t, j)
    del t, scaled
    # the drift term sign * sum_i d_i(A_i P) with A = B a, B symmetric:
    # sign * sum_k a_k F_k, summed over k left to right
    c = cfg.drift_sign * np.asarray(coeffs[0], dtype=float)
    rhs = F[0] * c[0]
    for k in (1, 2):
        rhs += F[k] * c[k]
    G = [F[i] * eps for i in range(3)]
    del F
    # rhs += sum_l d_l [ sum_i B_il G_i ], the flux pinned like P: its
    # outer faces then carry no mass
    for l in range(3):
        t = B[0][l] * G[0]
        for i in (1, 2):
            t += B[i][l] * G[i]
        t *= half[l]
        pin_boundary(t)
        _central(rhs, t, l)
    return rhs


def _absmax(x) -> float:
    """max |x| without a temporary of x's size (NaN if x holds one)."""
    return float(max(x.max(), -x.min()))


def _stable_ds(grid, cfg, coeffs, field, sums):
    """CFL step bound at coeffs from their field of _field, and the term
    that sets it: "drift", "diffusion", or None when neither bounds the
    step (the bound is then inf).

    The drift term allows min(h) / max|A|, with max|A| the one that the
    additive field holds, or max|sum_j B_ij a_j| read off the
    multiplicative field B.
    The diffusion term allows 2 / R (module docstring, Step bound), with
    R = r0 + |Lambda^2| r1 + Lambda^4 r2 from the row sums (r0, r1, r2) of
    _row_sums for multiplicative noise, and 12 eps / min(h)^2 for additive
    noise (sums unused)."""
    if cfg.multiplicative:
        a = coeffs[0]
        amax = max(_absmax(row[0] * a[0] + row[1] * a[1] + row[2] * a[2]) for row in field)
    else:
        amax = field[1]
    h = grid.h
    ds, term = np.inf, None
    if amax > 0.0:
        ds, term = float(np.min(h)) / amax, "drift"
    if cfg.epsilon > 0.0:
        if cfg.multiplicative:
            r0, r1, r2 = sums
            lam_sq = coeffs[1]
            diffusive = 2.0 / (r0 + abs(lam_sq) * r1 + lam_sq * lam_sq * r2)
        else:
            diffusive = float(np.min(h)) ** 2 / (6.0 * cfg.epsilon)
        if diffusive < ds:
            ds, term = diffusive, "diffusion"
    return SAFETY * ds, term


def _shell_sum(P) -> float:
    """The sum of P over its outermost cells, each counted once: the mass
    density that pin_boundary deletes."""
    inner = P[1:-1]
    return float(P[0].sum() + P[-1].sum() + inner[:, 0].sum() + inner[:, -1].sum()
                 + inner[:, 1:-1, 0].sum() + inner[:, 1:-1, -1].sum())


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


def _slab_bounds(grid) -> list:
    """The row bounds along axis 0 of the slabs whose stages a solve on grid
    evaluates side by side: as many slabs as CPUs usable by the process,
    but no more than leave each at least MIN_SLAB_CELLS cells, or a row."""
    return _fork.bounds(grid.shape[0], grid.P.size // MIN_SLAB_CELLS)


def _blocking(shape, cfg) -> tuple:
    """The rows of axis 0 in each block of a slab's stage, at most
    BLOCK_CELLS cells (or one row), and the rows that a block reads beyond
    its own on each side: HALO for multiplicative noise, 1 for additive."""
    return max(1, BLOCK_CELLS // (shape[1] * shape[2])), HALO if cfg.multiplicative else 1


def _field_rows(field, a: int, b: int, cfg):
    """The field of rows [a, b) of axis 0, as views of field's arrays."""
    if cfg.multiplicative:
        return _symmetric(((k, j), field[k][j][a:b]) for k, j in _UPPER)
    return field[0][:, a:b], field[1]


def _key(coeffs) -> bytes:
    """The bits of a coefficient set (a, Lambda^2)."""
    return np.append(coeffs[0], coeffs[1]).tobytes()


def fpe_evolve(grid0: MomentumGrid, s_span, cfg: FpeConfig, snapshot_s=()) -> FpeResult:
    """Explicit midpoint RK2 evolution with a CFL-bounded step, in two
    states: the midpoint P + ds/2 fpe_rhs(P), then P + ds fpe_rhs(midpoint)
    in place, as that stage reads only the midpoint and the rows it writes.

    The initial density must be normalized to 1e-9 (a NaN mass is not), the
    span must lie inside the schedule and the snapshot times in (s0, s1].
    Boundary cells are pinned to zero every stage; snapshots are deep
    copies.  The diagnostics record `boundary_outflow`, the mass that the
    end-of-step pins delete, summed over the boundary shell;
    `mass_balance_residual` = mass_initial - mass_final - boundary_outflow;
    `negative_undershoot_steps`, the steps that leave a cell below -1e-12 of
    the peak; the number of `steps`, their `ds_min`, `ds_median` and
    `ds_max`; in `cfl_limit` how many steps the drift or the diffusion bound
    set and how many were cut to end on a snapshot time ("snapshot"); and in
    `field_evals` how many fields the solve formed with _field.  A snapshot
    time less than DS_FLOOR ahead is taken without a step, at its own time,
    and a solve that would take no step at all is a DomainError.

    A stage forms a field only when its coefficients differ, bit for bit,
    from those of the field held, in its place.  The step bound is computed
    once per field, when a step start first reads it, and the step's first
    stage shares that field.  So a constant schedule forms its field and its
    bound once per solve (`field_evals` 1), and a schedule that changes
    between stages forms a field at every stage (`field_evals` = 2
    `steps`), with the same bits as without reuse.

    A stage is evaluated in contiguous slabs of axis 0 (_slab_bounds) into
    the midpoint or P, two rows of a shared anonymous mmap whose other three
    hold the field, with one command of _fork.parts per stage: the caller
    writes the last slab's rows, and a worker forked before the first step
    each other slab's; with one slab, on one CPU or below 2 MIN_SLAB_CELLS
    cells, nothing is forked.  A slab writes its rows in
    blocks (_blocking), each from fpe_rhs on its rows, the halo rows beside
    them and those rows of the field, which gives the same bits as on the
    whole grid.  BLOCK_CELLS is 8 rows of the 64^3 grid, the fastest
    additive blocks of a sweep from 2 to 32 rows of one slab there
    (CHANGES.md).  The additive field is formed block by block too, so no
    additive solve holds the whole grid's mesh.  Only the caller forms the
    field, once every slab has written the stage before, and only the caller
    pins, sums the boundary shell and reads min and max, once every slab is
    written.  So the result is the same bits on any number of slabs.
    """
    if not abs(total_mass(grid0) - 1.0) <= 1e-9:
        raise DomainError(f"initial density not normalized: mass = {total_mass(grid0)}")
    s0, s1 = float(s_span[0]), float(s_span[1])
    targets = sorted({float(v) for v in snapshot_s} | {s1})
    # the solve steps toward a time only from one at least DS_FLOOR before it
    if not max(b - a for a, b in zip([s0, *targets], targets)) >= DS_FLOOR:
        raise DomainError(f"no step in [{s0}, {s1}]: s0 and the snapshot times leave no gap "
                          f"of DS_FLOOR = {DS_FLOOR}")
    cfg.schedule.check_span(s0, s1)
    if targets[0] <= s0 or targets[-1] > s1 + 1e-12:
        raise DomainError("snapshot times must lie in (s0, s1]")

    quad = sums = None
    if cfg.multiplicative:
        # the cell centres live only while the products are formed
        quad = _quadratic(grid0.mesh(axis=0))
        sums = _row_sums(quad, grid0.h, cfg.epsilon)
    n1 = grid0.shape[0]
    rows, halo = _blocking(grid0.shape, cfg)
    # P, the midpoint and the field's per-cell arrays: one shared block,
    # whose rows every slab reads and writes in place
    block = _fork.shared((5,) + grid0.shape)
    states, buffer = block[:2], block[2:]
    P, mid = 0, 1
    states[P][...] = grid0.P
    work = MomentumGrid(grid0.mins, grid0.maxs, grid0.shape, states[P])
    # the field in buffer, the bits of its coefficients, and its step bound
    # once a step start has read it
    held = {"key": None, "field": None, "bound": None}
    field_evals = 0

    def form(coeffs):
        """The field at coeffs, formed into buffer: for additive noise block
        by block from each block's cell centres, with the largest of the
        blocks' max|A| (NaN if one is)."""
        if cfg.multiplicative:
            return _field(None, grid0.h, coeffs, cfg, quad, out=buffer)
        amax = [_field(grid0.mesh(axis=0, rows=slice(a, a + rows)), grid0.h, coeffs, cfg,
                       out=buffer[:, a:a + rows])[1] for a in range(0, n1, rows)]
        return buffer, float(np.max(amax))

    def field_at(coeffs):
        """The field at coeffs: the held one when coeffs has the bits of the
        coefficients it was formed for, a new one in its place otherwise."""
        nonlocal field_evals
        key = _key(coeffs)
        if key != held["key"]:
            held.update(key=key, field=form(coeffs), bound=None)
            field_evals += 1
        return held["field"]

    def evaluate(lo, hi, stage):
        """Rows [lo, hi) of the stage (src, dst, scale, coeffs), states[dst]
        = P + scale fpe_rhs(states[src]), a block [r, t) at a time, each from
        fpe_rhs on rows [a, b), those and halo more on each side, and the
        held field's rows [a, b)."""
        src, dst, scale, coeffs = stage
        for r in range(lo, hi, rows):
            t = min(r + rows, hi)
            a, b = max(r - halo, 0), min(t + halo, n1)
            work.P = states[src][a:b]
            field = _field_rows(held["field"], a, b, cfg)
            step = fpe_rhs(work, coeffs, cfg, field=field)[r - a:t - a]
            step *= scale
            np.add(states[P][r:t], step, out=states[dst][r:t])

    snaps: list = []
    mass_series = [(s0, total_mass(work))]
    neg_flags = 0
    outflow = 0.0
    steps: list = []
    limits = {"drift": 0, "diffusion": 0, "snapshot": 0}
    s = s0

    # the first step's field, whose views of buffer the slab workers
    # inherit: they read each later field, which the caller writes there
    # only once every slab has written its rows of the stage before
    field_at(cfg.schedule.at(s0))
    with _fork.parts(_slab_bounds(grid0), evaluate) as run:
        for target in targets:
            while target - s >= DS_FLOOR:
                coeffs = cfg.schedule.at(s)
                field = field_at(coeffs)
                if held["bound"] is None:
                    held["bound"] = _stable_ds(work, cfg, coeffs, field, sums)
                ds, term = held["bound"]
                if target - s < ds:
                    ds, term = target - s, "snapshot"
                if ds < DS_FLOOR:
                    raise ResolutionError(f"stability limit forced ds = {ds} below floor {DS_FLOOR}")
                # each stage returns once every slab has written its rows
                run((P, mid, 0.5 * ds, coeffs))
                pin_boundary(states[mid])
                # P in place: this stage reads the midpoint and only the
                # rows of P that it writes
                coeffs = cfg.schedule.at(s + 0.5 * ds)
                field_at(coeffs)
                run((mid, P, ds, coeffs))
                outflow += _shell_sum(states[P]) * work.cell_volume
                pin_boundary(states[P])
                if states[P].min() < -1e-12 * max(states[P].max(), 1e-300):
                    neg_flags += 1
                s += ds
                steps.append(ds)
                limits[term] += 1
            s = target
            work.P = states[P]
            mass_series.append((s, total_mass(work)))
            snaps.append((s, work.copy_with(work.P)))

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


def _bins(x, edges) -> np.ndarray:
    """The bin of each x in [edges[0], edges[-1]] that np.histogramdd finds:
    j with edges[j] <= x < edges[j+1], and the last bin for x = edges[-1].
    The guess floor((x - edges[0]) n / L) is moved a bin at a time until
    it holds; rounding leaves it at most one bin off on any sane grid."""
    n = len(edges) - 1
    # each bin's upper edge, none for the last, which is closed
    upper = np.append(edges[1:-1], np.inf)
    j = ((x - edges[0]) * (n / (edges[-1] - edges[0]))).astype(np.intp)
    np.minimum(j, n - 1, out=j)
    while True:
        down = x < edges[j]
        up = x >= upper[j]
        if not (down.any() or up.any()):
            return j
        j -= down
        j += up


def density_from_ensemble(samples, grid_spec: MomentumGrid) -> MomentumGrid:
    """Normalized histogram of samples (n, 3) on the grid; counts out-of-range
    samples in the returned grid's out_of_range attribute.  The counts are
    np.histogramdd's on the grid's linspace edges, bin for bin: a sample
    on an inner edge falls in the bin above it, one on the last edge in
    the last bin, and one outside the box or not finite in none."""
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    if len(samples) < 1:
        raise DomainError("need at least one sample")
    edges = [
        np.linspace(grid_spec.mins[i], grid_spec.maxs[i], grid_spec.shape[i] + 1)
        for i in range(3)
    ]
    # NaN fails both comparisons, and an infinity one of them
    inside = np.ones(len(samples), dtype=bool)
    for i in range(3):
        inside &= (samples[:, i] >= edges[i][0]) & (samples[:, i] <= edges[i][-1])
    n_in = int(np.count_nonzero(inside))
    if n_in == 0:
        raise EmptyDensityError("all samples fell outside the grid")
    cell = np.zeros(n_in, dtype=np.intp)
    for i in range(3):
        cell *= grid_spec.shape[i]
        cell += _bins(samples[:, i][inside], edges[i])
    hist = np.bincount(cell, minlength=grid_spec.P.size).reshape(grid_spec.shape)
    out = grid_spec.copy_with(hist / (float(n_in) * grid_spec.cell_volume))
    out.out_of_range = len(samples) - n_in
    return out


def write_density(grid: MomentumGrid, path) -> None:
    """Save grid.P to path as .npy; the fpe stage records the axes in
    fpe_meta.json."""
    np.save(path, grid.P)


def read_density(path, spec: MomentumGrid) -> MomentumGrid:
    """The snapshot saved at path by write_density, on the axes of spec; a
    DomainError when the array saved there does not have spec's shape."""
    P = np.load(path)
    if P.shape != spec.shape:
        raise DomainError(f"{path} holds an array of shape {P.shape}, not {spec.shape}")
    return spec.copy_with(P)
