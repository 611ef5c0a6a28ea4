"""Tests for the momentum-space density evolution."""

import contextlib
import math
import os
import signal
import sys
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tribody import (
    CoefficientSchedule,
    DomainError,
    EmptyDensityError,
    FpeConfig,
    MomentumGrid,
    ResolutionError,
    density_from_ensemble,
    drift,
    fpe_evolve,
    fpe_rhs,
    read_density,
    total_mass,
    write_density,
)
from tribody.errors import ConfigError
from tribody.fokker_planck import DS_FLOOR, pin_boundary


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def gaussian_grid(mins, maxs, shape, center, sigma):
    """Grid loaded with an isotropic Gaussian, normalized to unit mass."""
    grid = MomentumGrid(np.asarray(mins, float), np.asarray(maxs, float), shape)
    mesh = grid.mesh()
    r2 = np.sum((mesh - np.asarray(center, float)) ** 2, axis=-1)
    grid.P = np.exp(-0.5 * r2 / sigma**2)
    grid.normalize()
    return grid


def grid_mean_cov(grid):
    mesh = grid.mesh()
    w = grid.P * grid.cell_volume
    mean = np.einsum("abc,abci->i", w, mesh)
    d = mesh - mean
    cov = np.einsum("abc,abci,abcj->ij", w, d, d)
    return mean, cov


class TestMomentumGrid:
    def test_geometry(self):
        grid = MomentumGrid([-1.0, -2.0, 0.0], [1.0, 2.0, 1.0], (10, 8, 20))
        assert np.allclose(grid.h, [0.2, 0.5, 0.05])
        assert np.isclose(grid.cell_volume, 0.2 * 0.5 * 0.05)
        c = grid.centers(0)
        assert np.isclose(c[0], -0.9) and np.isclose(c[-1], 0.9)
        assert grid.mesh().shape == (10, 8, 20, 3)

    def test_validation(self):
        with pytest.raises(DomainError):
            MomentumGrid([-1, -1, -1], [1, 1, 1], (10, 10, 4))
        with pytest.raises(DomainError):
            MomentumGrid([1, -1, -1], [-1, 1, 1], (10, 10, 10))

    def test_normalize_and_mass(self):
        grid = MomentumGrid([-1, -1, -1], [1, 1, 1], (8, 8, 8))
        grid.P[:] = 3.0
        grid.normalize()
        assert np.isclose(total_mass(grid), 1.0)
        empty = MomentumGrid([-1, -1, -1], [1, 1, 1], (8, 8, 8))
        with pytest.raises(DomainError):
            empty.normalize()

    def test_copy_is_independent(self):
        grid = MomentumGrid([-1, -1, -1], [1, 1, 1], (8, 8, 8))
        other = grid.copy_with(np.ones(grid.shape))
        other.P[0, 0, 0] = 7.0
        assert grid.P[0, 0, 0] == 0.0
        assert grid.same_spec(other)
        for mins, maxs in (([-2, -1, -1], [1, 1, 1]), ([-1, -1, -1], [1, 1, 1 + 1e-9])):
            assert not grid.same_spec(MomentumGrid(mins, maxs, (8, 8, 8)))


class TestFpeConfig:
    def test_sign_modes(self):
        sched = CoefficientSchedule.constant([0, 0, 0], 0.0)
        assert FpeConfig(epsilon=0.1, schedule=sched).drift_sign == -1.0
        assert FpeConfig(epsilon=0.1, schedule=sched, sign_mode="verbatim").drift_sign == 1.0
        with pytest.raises(ConfigError):
            FpeConfig(epsilon=0.1, schedule=sched, sign_mode="upwind")


class TestFpeRhs:
    def test_pure_diffusion_analytic(self):
        # zero drift: rhs should equal eps * laplacian of a Gaussian,
        # which is known in closed form
        sigma, eps = 0.15, 0.02
        grid = gaussian_grid([-0.9] * 3, [0.9] * 3, (36, 36, 36), [0.0] * 3, sigma)
        sched = CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
        cfg = FpeConfig(epsilon=eps, schedule=sched)
        rhs = fpe_rhs(grid, sched.at(0.0), cfg)
        mesh = grid.mesh()
        r2 = np.sum(mesh**2, axis=-1)
        lap = grid.P * (r2 / sigma**4 - 3.0 / sigma**2)
        interior = (slice(2, -2),) * 3
        err = np.max(np.abs(rhs[interior] - eps * lap[interior]))
        assert err < 4e-2 * np.max(np.abs(eps * lap))

    def test_second_order_refinement(self):
        # drift term: stencil error against a near-exact derivative oracle
        # must shrink by ~4x when h halves
        coeffs = (np.array([0.1, -0.05, 0.08]), 0.3)
        sigma = 0.2

        def stencil_error(n):
            grid = gaussian_grid([-0.8] * 3, [0.8] * 3, (n, n, n), [0.05, 0.0, -0.05], sigma)
            sched = CoefficientSchedule.constant(coeffs[0], coeffs[1])
            cfg = FpeConfig(epsilon=0.0, schedule=sched)
            rhs = fpe_rhs(grid, coeffs, cfg)
            mesh = grid.mesh()

            def flux(pts):
                r2 = np.sum((pts - np.array([0.05, 0.0, -0.05])) ** 2, axis=-1)
                dens = np.exp(-0.5 * r2 / sigma**2)
                return drift(pts, coeffs) * dens[..., None]

            # near-exact divergence via tiny analytic central differences
            delta = 1e-6
            exact = np.zeros(grid.shape)
            for i in range(3):
                e = np.zeros(3)
                e[i] = delta
                exact += (flux(mesh + e)[..., i] - flux(mesh - e)[..., i]) / (2 * delta)
            # rhs uses the normalized density; rescale the oracle to match
            norm = grid.P[n // 2, n // 2, n // 2] / np.exp(
                -0.5
                * np.sum((mesh[n // 2, n // 2, n // 2] - np.array([0.05, 0.0, -0.05])) ** 2)
                / sigma**2
            )
            interior = (slice(2, -2),) * 3
            return np.max(np.abs(rhs[interior] - cfg.drift_sign * norm * exact[interior]))

        e1, e2 = stencil_error(24), stencil_error(48)
        assert e2 < e1 / 3.0

    def test_sign_modes_differ_by_drift_term(self):
        # conventional and verbatim average to the pure diffusion operator
        coeffs = (np.array([0.1, -0.05, 0.08]), 0.3)
        grid = gaussian_grid([-0.8] * 3, [0.8] * 3, (16, 16, 16), [0.0] * 3, 0.2)
        sched = CoefficientSchedule.constant(coeffs[0], coeffs[1])
        conv = fpe_rhs(grid, coeffs, FpeConfig(epsilon=0.01, schedule=sched))
        verb = fpe_rhs(grid, coeffs, FpeConfig(epsilon=0.01, schedule=sched, sign_mode="verbatim"))
        sched0 = CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
        diff_only = fpe_rhs(grid, sched0.at(0.0), FpeConfig(epsilon=0.01, schedule=sched0))
        assert np.allclose(0.5 * (conv + verb), diff_only, atol=1e-14)

    def test_multiplicative_matches_reference_transcription(self):
        # independent nested-central-difference implementation of the full
        # coupled operator, using explicit zero padding
        from tribody.langevin import diffusion

        coeffs = (np.array([0.06, -0.04, 0.05]), 0.25)
        eps = 0.015
        grid = gaussian_grid([-0.7] * 3, [0.7] * 3, (14, 14, 14), [0.0] * 3, 0.18)
        sched = CoefficientSchedule.constant(coeffs[0], coeffs[1])
        cfg = FpeConfig(epsilon=eps, schedule=sched, multiplicative=True)
        rhs = fpe_rhs(grid, coeffs, cfg)

        h = grid.h
        mesh = grid.mesh()
        P = grid.P
        A = drift(mesh, coeffs)
        B = diffusion(mesh, coeffs[1])

        def d(F, axis):
            padded = np.pad(F, [(1, 1) if ax == axis else (0, 0) for ax in range(3)])
            hi = [slice(None)] * 3
            lo = [slice(None)] * 3
            hi[axis], lo[axis] = slice(2, None), slice(None, -2)
            return (padded[tuple(hi)] - padded[tuple(lo)]) / (2.0 * h[axis])

        ref = np.zeros_like(P)
        for i in range(3):
            ref += cfg.drift_sign * d(A[..., i] * P, i)
        F = np.zeros(P.shape + (3,))
        for j in range(3):
            for k in range(3):
                F[..., j] += d(B[..., k, j] * P, k)
        G = eps * F
        for l in range(3):
            flux = np.zeros_like(P)
            for i in range(3):
                flux += B[..., i, l] * G[..., i]
            flux[[0, -1], :, :] = flux[:, [0, -1], :] = flux[:, :, [0, -1]] = 0.0
            ref += d(flux, l)
        assert np.allclose(rhs, ref, atol=1e-12, rtol=1e-10)


def _faces(t, axis):
    """t[x] + t[x+e] on the n + 1 faces along axis of t zero-padded: the
    face sums whose divergence is the central difference t[x+e] - t[x-e]."""
    padded = np.pad(t, [(1, 1) if ax == axis else (0, 0) for ax in range(3)])
    return _along(padded, axis, slice(None, -1)) + _along(padded, axis, slice(1, None))


def _along(F, axis, index):
    sel = [slice(None)] * 3
    sel[axis] = index
    return F[tuple(sel)]


def _add_divergence(out, faces, axis):
    """out += Phi[x+1/2], then out -= Phi[x-1/2], from the flux on the
    n + 1 faces along axis."""
    out += _along(faces, axis, slice(1, None))
    out -= _along(faces, axis, slice(None, -1))


def tensor_rhs(grid, coeffs, cfg):
    """The multiplicative right-hand side with the coupling as an
    (n1, n2, n3, 3, 3) tensor from langevin.diffusion, contracted by einsum
    and a matrix product: the oracle for the component form of fpe_rhs.
    Every difference is the divergence of face averages on zero-padded
    arrays, the drift term is sign * sum_k a_k F_k, and the flux B G is
    pinned to zero on the boundary cells before its difference."""
    from tribody.langevin import diffusion

    mesh, P, h = grid.mesh(), grid.P, grid.h
    B = diffusion(mesh, coeffs[1])
    F = np.zeros(P.shape + (3,))
    for k in range(3):
        for j in range(3):
            _add_divergence(F[..., j], _faces(B[..., k, j] * (P * (0.5 / h[k])), k), k)
    rhs = sum(F[..., k] * (cfg.drift_sign * coeffs[0][k]) for k in range(3))
    BG = np.einsum("...il,...i->...l", B, F * cfg.epsilon) * (0.5 / h)
    pin_boundary(BG)
    for l in range(3):
        _add_divergence(rhs, _faces(BG[..., l], l), l)
    return rhs


def row_sum_and_radius(grid, coeffs, cfg):
    """The largest absolute row sum and the spectral radius of the
    pinned operator P -> pin(fpe_rhs(P)), assembled column by column."""
    n = grid.P.size
    M = np.empty((n, n))
    for c in range(n):
        unit = np.zeros(n)
        unit[c] = 1.0
        column = fpe_rhs(grid.copy_with(unit), coeffs, cfg)
        pin_boundary(column)
        M[:, c] = column.ravel()
    return (float(np.max(np.sum(np.abs(M), axis=1))),
            float(np.max(np.abs(np.linalg.eigvals(M)))))


class TestCouplingComponents:
    COEFFS = (np.array([0.06, -0.04, 0.05]), 0.25)

    def grid(self):
        return gaussian_grid([-0.7, -0.9, -0.6], [0.8, 0.7, 0.9], (14, 15, 16),
                             [0.1, 0.0, -0.05], 0.22)

    def cfg(self, epsilon):
        sched = CoefficientSchedule.constant(*self.COEFFS)
        return FpeConfig(epsilon=epsilon, schedule=sched, multiplicative=True)

    def test_scalar_epsilon_matches_tensor_oracle_exactly(self):
        grid, cfg = self.grid(), self.cfg(0.013)
        assert np.array_equal(fpe_rhs(grid, self.COEFFS, cfg), tensor_rhs(grid, self.COEFFS, cfg))

    @pytest.mark.parametrize("sign_mode", ["conventional", "verbatim"])
    def test_drift_term_is_a_dot_F(self, sign_mode):
        # eps = 0 leaves the drift term alone: sign * sum_k a_k F_k must be
        # sign * sum_i d_i(A_i P) with the drift field A = B a, up to rounding
        grid = self.grid()
        cfg = FpeConfig(epsilon=0.0, schedule=CoefficientSchedule.constant(*self.COEFFS),
                        sign_mode=sign_mode, multiplicative=True)
        A = drift(grid.mesh(), self.COEFFS)
        ref = sum(cfg.drift_sign * _mesh_d(A[..., i] * grid.P, i, grid.h) for i in range(3))
        rhs = fpe_rhs(grid, self.COEFFS, cfg)
        assert np.max(np.abs(ref)) > 0.1
        assert np.max(np.abs(rhs - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lam_sq", [0.0, 0.3])
    def test_step_bound_is_a_gershgorin_bound_of_the_operator(self, lam_sq):
        # the pinned diffusion operator (a = 0, so the drift term is zero)
        # on a box where |B| varies: R is at least its
        # largest absolute row sum and its spectral radius, and equals that
        # row sum at Lambda^2 = 0
        from tribody.fokker_planck import SAFETY, _field, _quadratic, _row_sums, _stable_ds

        eps = 0.015
        grid = MomentumGrid([0.4, -0.3, 0.2], [2.0, 1.1, 1.9], (10, 10, 10))
        coeffs = (np.zeros(3), lam_sq)
        cfg = FpeConfig(epsilon=eps, schedule=CoefficientSchedule.constant(*coeffs),
                        multiplicative=True)
        # the pinned rows are zero, so the largest row sum is an interior one
        row_sum, radius = row_sum_and_radius(grid, coeffs, cfg)
        sums = _row_sums(_quadratic(grid.mesh(axis=0)), grid.h, cfg.epsilon)
        r0, r1, r2 = sums
        R = r0 + abs(lam_sq) * r1 + lam_sq * lam_sq * r2
        if lam_sq == 0.0:
            assert r0 == pytest.approx(row_sum, rel=1e-12)
        assert R >= row_sum >= radius > 0.0
        field = _field(grid.mesh(axis=0), grid.h, coeffs, cfg)
        assert _stable_ds(grid, cfg, coeffs, field, sums) == (SAFETY * 2.0 / R, "diffusion")


def _neighbour(F, axis, step):
    """F at the neighbour x + step e_axis of every cell x, 0 past the grid."""
    padded = np.pad(F, [(1, 1) if ax == axis else (0, 0) for ax in range(3)])
    sel = [slice(None)] * 3
    sel[axis] = slice(1 + step, padded.shape[axis] - 1 + step)
    return padded[tuple(sel)]


def _mesh_d(F, axis, h):
    """Central first difference of F along axis with zero ghost cells."""
    return (_neighbour(F, axis, 1) - _neighbour(F, axis, -1)) / (2.0 * h[axis])


def mesh_rhs(grid, coeffs, cfg):
    """The right-hand side transcribed on the (n1, n2, n3, 3) mesh, every
    sum in the solver's order.  Additive noise: the 7-point stencil, with
    weights W_i = alpha_i + sign A_i / (2 h_i) from `drift(grid.mesh(),
    ...)`, neighbours from zero-padded arrays.  Every central difference
    is the divergence of face
    averages, each cell getting the flux on its upper face, then losing the
    flux on its lower face, on the n + 1 faces of zero-padded arrays.
    Multiplicative noise: drift as sign * sum_k a_k F_k, coupling from
    `langevin.diffusion`, the outer flux pinned."""
    from tribody.langevin import diffusion

    mesh, P, h, eps = grid.mesh(), grid.P, grid.h, cfg.epsilon

    if not cfg.multiplicative:
        A = drift(mesh, coeffs)
        alpha = [eps / (h[i] * h[i]) for i in range(3)]
        rhs = P * (-2.0 * (alpha[0] + alpha[1] + alpha[2]))
        for i in range(3):
            t = P * (A[..., i] * (cfg.drift_sign / (2.0 * h[i])) + alpha[i])
            u = P * (2.0 * alpha[i]) - t
            rhs += _neighbour(t, i, 1)
            rhs += _neighbour(u, i, -1)
        return rhs
    B = diffusion(mesh, coeffs[1])
    F = [np.zeros_like(P) for _ in range(3)]
    for k in range(3):
        for j in range(3):
            _add_divergence(F[j], _faces(B[..., k, j] * (P * (0.5 / h[k])), k), k)
    rhs = sum(F[k] * (cfg.drift_sign * coeffs[0][k]) for k in range(3))
    G = [F[i] * eps for i in range(3)]
    for l in range(3):
        flux = sum(B[..., i, l] * G[i] for i in range(3)) * (0.5 / h[l])
        pin_boundary(flux)
        _add_divergence(rhs, _faces(flux, l), l)
    return rhs


def composed_rhs(grid, coeffs, cfg):
    """The additive right-hand side composed term by term on the mesh:
    sign * sum_i d_i(A_i P) + eps sum_i d2_i P, with central and compact
    differences on zero-padded arrays.  An
    oracle independent of the stencil's weights; it equals the stencil up
    to the order of floating-point operations."""
    mesh, P, h, eps = grid.mesh(), grid.P, grid.h, cfg.epsilon

    def d2(F, axis):
        return (_neighbour(F, axis, 1) - 2.0 * F + _neighbour(F, axis, -1)) / (h[axis] ** 2)

    A = drift(mesh, coeffs)
    rhs = np.zeros_like(P)
    for i in range(3):
        rhs += cfg.drift_sign * _mesh_d(A[..., i] * P, i, h)
    for i in range(3):
        rhs += eps * d2(P, i)
    return rhs


class TestComponentMajor:
    """The solver keeps the drift as (3, n1, n2, n3) components; its field
    and right-hand side are those of the mesh form, bit for bit."""

    COEFFS = (np.array([0.06, -0.04, 0.05]), 0.25)

    def grid(self):
        return gaussian_grid([-0.7, -0.9, -0.6], [0.8, 0.7, 0.9], (10, 8, 20),
                             [0.1, 0.0, -0.05], 0.22)

    def cfg(self, epsilon, multiplicative):
        sched = CoefficientSchedule.constant(*self.COEFFS)
        return FpeConfig(epsilon=epsilon, schedule=sched, multiplicative=multiplicative)

    def test_mesh_along_axis_zero_is_the_component_major_mesh(self):
        grid = self.grid()
        X = grid.mesh(axis=0)
        assert X.shape == (3, 10, 8, 20) and X.flags.c_contiguous
        assert np.array_equal(X, np.moveaxis(grid.mesh(), -1, 0))

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_field_matches_mesh_form(self, multiplicative):
        # for additive noise the stencil's weights W_i = alpha_i + sign A_i
        # / (2 h_i), formed in this order from the drift A, with max|A|;
        # the coupling B's rows for multiplicative noise
        from tribody.fokker_planck import _field
        from tribody.langevin import diffusion

        grid, cfg = self.grid(), self.cfg(0.013, multiplicative)
        field = _field(grid.mesh(axis=0), grid.h, self.COEFFS, cfg)
        if not multiplicative:
            W, amax = field
            assert W.shape == (3, 10, 8, 20) and W.flags.c_contiguous
            A, h = drift(grid.mesh(), self.COEFFS), grid.h
            for i in range(3):
                alpha = cfg.epsilon / (h[i] * h[i])
                assert np.array_equal(W[i], A[..., i] * (cfg.drift_sign / (2.0 * h[i])) + alpha)
            assert amax == np.max(np.abs(A))
            return
        ref = diffusion(grid.mesh(), self.COEFFS[1])
        for k in range(3):
            for j in range(3):
                assert np.array_equal(field[k][j], ref[..., k, j])

    @pytest.mark.parametrize("multiplicative", [False, True])
    @pytest.mark.parametrize("eps", [0.013, 0.0], ids=["noise", "zero"])
    @pytest.mark.parametrize("sign_mode", ["conventional", "verbatim"])
    def test_rhs_matches_mesh_form(self, multiplicative, eps, sign_mode):
        # for additive noise also the composed form, up to the order of
        # floating-point operations
        grid = self.grid()
        cfg = FpeConfig(epsilon=eps, schedule=CoefficientSchedule.constant(*self.COEFFS),
                        sign_mode=sign_mode, multiplicative=multiplicative)
        rhs = fpe_rhs(grid, self.COEFFS, cfg)
        assert np.array_equal(rhs, mesh_rhs(grid, self.COEFFS, cfg))
        if not multiplicative:
            gap = np.max(np.abs(rhs - composed_rhs(grid, self.COEFFS, cfg)))
            assert gap <= 16 * np.spacing(np.max(np.abs(rhs)))


class TestStencil:
    """The additive operator is a 7-point stencil of per-cell weights,
    applied in flat passes: it equals the composed form up to the order of
    floating-point operations, and nothing crosses a face."""

    COEFFS = (np.array([0.3, -0.2, 0.25]), 0.4)

    @pytest.mark.parametrize("sign_mode", ["conventional", "verbatim"])
    def test_non_cubic_grid(self, sign_mode):
        # a density that is nonzero on every face, so each wrapped shift
        # meets a live neighbour; the drift sets some weights below zero
        grid = MomentumGrid([-0.9, -0.6, -1.1], [1.0, 0.8, 0.7], (9, 13, 11))
        grid.P = philox(11).random(grid.shape)
        cfg = FpeConfig(epsilon=0.013, schedule=CoefficientSchedule.constant(*self.COEFFS),
                        sign_mode=sign_mode)
        from tribody.fokker_planck import _field

        W, _ = _field(grid.mesh(axis=0), grid.h, self.COEFFS, cfg)
        assert W.min() < 0.0 < W.max()
        rhs = fpe_rhs(grid, self.COEFFS, cfg)
        assert np.array_equal(rhs, mesh_rhs(grid, self.COEFFS, cfg))
        gap = np.max(np.abs(rhs - composed_rhs(grid, self.COEFFS, cfg)))
        assert gap <= 16 * np.spacing(np.max(np.abs(rhs)))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_unit_density_on_a_face_stays_in_the_grid(self, axis):
        # a unit density in one cell of each face normal to the axis: the
        # cell keeps -2 sum_i alpha_i, each neighbour inside the grid takes
        # its weight, and every other cell, the ones that a flat shift
        # wraps onto included, gets exactly 0
        from tribody.fokker_planck import _field

        grid = MomentumGrid([-0.9, -0.6, -1.1], [1.0, 0.8, 0.7], (9, 10, 11))
        cfg = FpeConfig(epsilon=0.015, schedule=CoefficientSchedule.constant(*self.COEFFS))
        W, _ = _field(grid.mesh(axis=0), grid.h, self.COEFFS, cfg)
        alpha = [cfg.epsilon / (grid.h[i] * grid.h[i]) for i in range(3)]
        for face in (0, grid.shape[axis] - 1):
            x = [4, 5, 6]
            x[axis] = face
            grid.P = np.zeros(grid.shape)
            grid.P[tuple(x)] = 1.0
            expected = np.zeros(grid.shape)
            expected[tuple(x)] = -2.0 * (alpha[0] + alpha[1] + alpha[2])
            for j in range(3):
                w = W[j][tuple(x)]
                for step, value in ((-1, w), (1, 2.0 * alpha[j] - w)):
                    y = list(x)
                    y[j] += step
                    if 0 <= y[j] < grid.shape[j]:
                        expected[tuple(y)] = value
            rhs = fpe_rhs(grid, self.COEFFS, cfg)
            assert np.count_nonzero(expected) == 6
            assert np.array_equal(rhs, expected)

    @pytest.mark.parametrize("n", [64, 40])
    def test_acceptance_solves_match_composed_form(self, monkeypatch, use_cpus, n):
        # criterion 6's two solves, the drift-limited 64^3 one and the
        # 40^3 heat kernel, once with the stencil and once with the
        # composed operator: the same steps, and densities within rounding.
        # The composed form reads the whole grid's mesh, so its solve runs
        # in one slab of one block
        import tribody.fokker_planck as fp

        if n == 64:
            centre, eps, span = np.array([0.2, 0.1, -0.1]), 0.01, (0.0, 0.5)
            grid = gaussian_grid(centre - 3.2, centre + 3.2, (64,) * 3, centre, 0.15)
            sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2, s_span=span)
            snapshot_s = (0.2, 0.35, 0.5)
        else:
            grid = gaussian_grid([-0.8] * 3, [0.8] * 3, (40,) * 3, [0.0] * 3, 0.1)
            eps, span, snapshot_s = 0.005, (0.0, 0.5), ()
            sched = CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
        cfg = FpeConfig(epsilon=eps, schedule=sched)
        runs = [fpe_evolve(grid, span, cfg, snapshot_s=snapshot_s)]
        use_cpus(1)
        monkeypatch.setattr(fp, "BLOCK_CELLS", grid.P.size)
        monkeypatch.setattr(fp, "fpe_rhs", lambda grid, coeffs, cfg, field: composed_rhs(
            grid, coeffs, cfg))
        runs.append(fpe_evolve(grid, span, cfg, snapshot_s=snapshot_s))
        stencil, composed = (res.diagnostics for res in runs)
        for key in ("steps", "cfl_limit", "field_evals", "ds_min", "ds_median", "ds_max"):
            assert stencil[key] == composed[key]
        for diag in (stencil, composed):
            assert abs(diag["mass_balance_residual"]) <= 1e-12
        for (s_a, a), (s_b, b) in zip(*(res.snapshots for res in runs)):
            assert s_a == s_b
            assert np.max(np.abs(a.P - b.P)) <= 1e-14 * np.max(b.P)

def net_outer_flux(grid, coeffs, cfg):
    """The grid sum that the operator's zero-ghost differences leave: the
    flux through the outer faces, upper minus lower, from the mesh form.
    A central difference sums to (t on the last cells - t on the first) /
    2h; the stencil's flux is t = W_i P on the lower faces and -u = -(2
    alpha_i P - t) on the upper ones; the multiplicative flux B G is pinned."""
    from tribody.langevin import diffusion

    mesh, P, h, eps = grid.mesh(), grid.P, grid.h, cfg.epsilon

    def across(t, axis):
        return (_along(t, axis, -1).sum() - _along(t, axis, 0).sum()) / (2.0 * h[axis])

    if cfg.multiplicative:
        B = diffusion(mesh, coeffs[1])
        return sum(cfg.drift_sign * coeffs[0][k] * across(B[..., m, k] * P, m)
                   for k in range(3) for m in range(3))
    A = drift(mesh, coeffs)
    total = 0.0
    for i in range(3):
        alpha = eps / (h[i] * h[i])
        t = P * (A[..., i] * (cfg.drift_sign / (2.0 * h[i])) + alpha)
        total += _along(t - P * (2.0 * alpha), i, -1).sum() - _along(t, i, 0).sum()
    return total


class TestConservation:
    """Both operators are a divergence of face fluxes: the grid sum of the
    right-hand side is the net flux through the outer faces, and on a pinned
    density no flux crosses an outer face."""

    @staticmethod
    def rhs_and_outer_faces(monkeypatch, grid, multiplicative):
        """fpe_rhs, and a copy of the flux on the outer faces of every
        central difference, t of the first and of the last cells."""
        import tribody.fokker_planck as fp

        faces, central = [], fp._central

        def recorded(out, t, axis):
            faces.extend(np.array(_along(t, axis, index)) for index in (0, -1))
            return central(out, t, axis)

        monkeypatch.setattr(fp, "_central", recorded)
        coeffs = TestStencil.COEFFS
        cfg = FpeConfig(epsilon=0.013, schedule=CoefficientSchedule.constant(*coeffs),
                        multiplicative=multiplicative)
        return fpe_rhs(grid, coeffs, cfg), faces, net_outer_flux(grid, coeffs, cfg)

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_grid_sum_is_the_net_outer_flux(self, monkeypatch, multiplicative):
        grid = MomentumGrid([-0.9, -0.6, -1.1], [1.0, 0.8, 0.7], (9, 13, 11))
        grid.P = philox(23).random(grid.shape)
        rhs, faces, net = self.rhs_and_outer_faces(monkeypatch, grid, multiplicative)
        # the additive stencil takes no central difference (net holds its
        # outer faces' t and -u)
        assert any(np.any(face != 0.0) for face in faces) == multiplicative
        total = float(np.sum(rhs))
        assert abs(net) > 1.0
        assert abs(total - net) <= 1e-15 * float(np.sum(np.abs(rhs)))

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_no_flux_crosses_the_outer_faces_of_a_pinned_density(self, monkeypatch,
                                                                 multiplicative):
        grid = MomentumGrid([-0.9, -0.6, -1.1], [1.0, 0.8, 0.7], (9, 13, 11))
        grid.P = philox(23).random(grid.shape)
        pin_boundary(grid.P)
        rhs, faces, net = self.rhs_and_outer_faces(monkeypatch, grid, multiplicative)
        # additive: no central difference (the stencil's outer faces carry
        # t and -u of the pinned cells: net); multiplicative: 9 differences
        # for F and 3 of the flux B G
        assert len(faces) == (2 * 12 if multiplicative else 0)
        for face in faces:
            assert np.all(face == 0.0)
        assert net == 0.0
        assert abs(float(np.sum(rhs))) <= 1e-15 * float(np.sum(np.abs(rhs)))


def slab_grid(slabs):
    """A Gaussian on a grid with an odd n1 and just enough cells for the
    given number of slabs."""
    import tribody.fokker_planck as fp

    n1 = -(-slabs * fp.MIN_SLAB_CELLS // (24 * 25)) | 1
    return gaussian_grid([-0.8, -0.7, -0.75], [0.7, 0.8, 0.65], (n1, 24, 25),
                         [0.05, 0.1, -0.05], 0.2)


def changing_schedule():
    """Coefficients that change at every stage, as a trajectory's do."""
    s = np.linspace(0.0, 0.1, 9)
    a = np.column_stack([0.3 * np.sin(7 * s), -0.2 + s, 0.1 * np.cos(5 * s)])
    return CoefficientSchedule(s, a, 0.2 + 0.5 * s)


SLAB_EPS = 0.012
# (multiplicative, sign_mode, changing schedule) of TestSlabs' solves
SLAB_MODES = {
    "additive-constant": (False, "conventional", False),
    "additive-verbatim-changing": (False, "verbatim", True),
    "multiplicative-verbatim-constant": (True, "verbatim", False),
    "multiplicative-changing": (True, "conventional", True),
}


class TestSlabs:
    """On two or more CPUs a solve of a large grid evaluates its stages in
    slabs of axis 0, the parts of _fork.parts: the last in the caller and
    each other one in a worker forked for the solve, with the same bits as
    the inline solve."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def solve(grid, multiplicative=False, sign_mode="conventional", changing=True,
              span=(0.0, 0.008), snapshot_s=(0.0017,)):
        sched = changing_schedule() if changing else CoefficientSchedule.constant(
            [0.3, -0.2, 0.1], 0.2, (0.0, 0.1))
        cfg = FpeConfig(epsilon=SLAB_EPS, schedule=sched, sign_mode=sign_mode,
                        multiplicative=multiplicative)
        return fpe_evolve(grid, span, cfg, snapshot_s=snapshot_s)

    # a slab is cut into blocks of rows, each read with one row more on
    # each side for additive noise and two for multiplicative noise: both
    # signs in both modes on blocks of the default budget's 54 rows, of 4
    # rows (a budget that is not a whole number of rows) and of one row, in
    # 1, 2 and 3 slabs
    @pytest.mark.parametrize("multiplicative, sign_mode, changing, budget, slabs", [
        *(pytest.param(*SLAB_MODES[mode], None, slabs, id=f"{mode}-{slabs}")
          for mode in SLAB_MODES for slabs in (2, 3)),
        *(pytest.param(*SLAB_MODES[mode], budget, slabs, id=f"{mode}-{rows}-row-blocks-{slabs}")
          for mode in SLAB_MODES
          for rows, budget in ((4, 4 * 600 + 599), (1, 1)) for slabs in (1, 2, 3)),
    ])
    def test_slabbed_solve_is_the_inline_one(self, monkeypatch, use_cpus, multiplicative,
                                             sign_mode, changing, budget, slabs):
        import tribody.fokker_planck as fp

        span = (0.0, 0.008)
        if budget:
            # a lower cutoff, and so fewer and coarser rows, keeps small
            # blocks quick; a longer span keeps the steps
            monkeypatch.setattr(fp, "MIN_SLAB_CELLS", 6000)
            span = (0.0, 0.08)
        grid = slab_grid(slabs)
        assert grid.shape[0] % 2 == 1
        runs = []
        # the inline solve: one slab of one block, then the slabbed one in
        # blocks of the budget
        for cpus, cells in ((1, grid.P.size), (slabs, budget or fp.BLOCK_CELLS)):
            use_cpus(cpus)
            monkeypatch.setattr(fp, "BLOCK_CELLS", cells)
            assert len(fp._slab_bounds(grid)) - 1 == cpus
            runs.append(self.solve(grid, multiplicative, sign_mode, changing, span))
        cfg = FpeConfig(epsilon=SLAB_EPS, schedule=changing_schedule(),
                        multiplicative=multiplicative)
        assert fp._blocking(grid.shape, cfg) == (
            {None: 54, 2999: 4, 1: 1}[budget], 2 if multiplicative else 1)
        inline, slabbed = runs
        assert inline.diagnostics == slabbed.diagnostics
        assert inline.diagnostics["steps"] >= 3
        assert inline.diagnostics["field_evals"] == (2 * inline.diagnostics["steps"] if changing
                                                     else 1)
        assert inline.mass_series == slabbed.mass_series
        for (s_a, a), (s_b, b) in zip(inline.snapshots, slabbed.snapshots):
            assert s_a == s_b
            assert np.array_equal(a.P, b.P)
        assert [s for s, _ in inline.snapshots] == [0.0017, span[1]]
        self.assert_no_child_left()

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_workers_form_no_field(self, monkeypatch, use_cpus, multiplicative):
        # the caller forms each field of a changing schedule, and the
        # worker reads its rows from the shared block
        import tribody.fokker_planck as fp

        use_cpus(2)
        caller = os.getpid()

        def in_caller_only(name, fn):
            def wrapper(*args, **kwargs):
                if os.getpid() != caller:
                    raise DomainError(f"{name} called in a slab worker")
                return fn(*args, **kwargs)
            return wrapper
        for name in ("_field", "_coupling", "_quadratic"):
            monkeypatch.setattr(fp, name, in_caller_only(name, getattr(fp, name)))
        res = self.solve(slab_grid(2), multiplicative)
        assert res.diagnostics["field_evals"] == 2 * res.diagnostics["steps"]
        self.assert_no_child_left()

    def test_workers_close_their_pipes(self, monkeypatch, use_cpus, capfd):
        # with ResourceWarning an error, a pipe that a worker leaves open
        # raises as it is collected, which Python reports on stderr and
        # otherwise ignores; the hook writes that report to the stderr file
        # descriptor, which the workers share and capfd reads
        def report(unraisable):
            os.write(2, f"Exception ignored: {unraisable.exc_value!r}\n".encode())

        use_cpus(2)
        monkeypatch.setattr(sys, "unraisablehook", report)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            self.solve(slab_grid(2))
        assert capfd.readouterr().err == ""
        self.assert_no_child_left()

    @pytest.mark.parametrize("snapshot_s", [(), (0.0017,), (0.008 - 1e-10,)],
                             ids=["no-snapshot", "snapshot", "snapshot-without-a-step-after"])
    def test_only_the_last_stage_is_sent_as_the_last(self, monkeypatch, use_cpus, snapshot_s):
        # the solve's last stage says that no command follows, so each
        # slab worker ends as it replies, also when the last snapshot time
        # is taken without a step after it
        import tribody._fork as fork

        use_cpus(2)
        parts, sent = fork.parts, []

        @contextlib.contextmanager
        def recorded(bounds, do):
            with parts(bounds, do) as run:
                def run_recorded(command, last=False):
                    sent.append(last)
                    return run(command, last)
                yield run_recorded
        monkeypatch.setattr(fork, "parts", recorded)
        res = self.solve(slab_grid(2), snapshot_s=snapshot_s)
        assert sent == [False] * (2 * res.diagnostics["steps"] - 1) + [True]
        self.assert_no_child_left()

    def test_below_the_cutoff_nothing_is_forked(self, monkeypatch, use_cpus):
        import tribody.fokker_planck as fp

        use_cpus(2)
        grid = gaussian_grid([-0.8] * 3, [0.8] * 3, (24, 24, 24), [0.0] * 3, 0.2)
        assert grid.P.size < 2 * fp.MIN_SLAB_CELLS
        assert fp._slab_bounds(grid) == [0, 24]

        def no_fork():
            raise AssertionError("forked below the cutoff")
        monkeypatch.setattr(os, "fork", no_fork)
        self.solve(grid)

    def test_worker_exception_is_raised_with_its_type(self, monkeypatch, use_cpus):
        import tribody.fokker_planck as fp

        use_cpus(2)
        caller, original = os.getpid(), fp.fpe_rhs

        def failing(*args, **kwargs):
            if os.getpid() != caller:
                raise DomainError("raised in a slab worker")
            return original(*args, **kwargs)
        monkeypatch.setattr(fp, "fpe_rhs", failing)
        with pytest.raises(DomainError, match="slab worker"):
            self.solve(slab_grid(2))
        self.assert_no_child_left()

    def test_worker_that_dies_is_an_error(self, monkeypatch, use_cpus):
        import tribody.fokker_planck as fp

        use_cpus(2)
        caller, original = os.getpid(), fp.fpe_rhs

        def dying(*args, **kwargs):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args, **kwargs)
        monkeypatch.setattr(fp, "fpe_rhs", dying)
        with pytest.raises(RuntimeError, match="no result"):
            self.solve(slab_grid(2))
        self.assert_no_child_left()

    @pytest.mark.parametrize("exc", [ResolutionError, KeyboardInterrupt])
    def test_caller_exception_kills_and_reaps_the_worker(self, monkeypatch, use_cpus, exc):
        # the caller raises in its part of the second stage while the
        # worker stalls for 20 s in its own: the worker is killed, not
        # waited for
        import tribody.fokker_planck as fp

        use_cpus(2)
        caller, original = os.getpid(), fp.fpe_rhs
        calls = []

        def stage(*args, **kwargs):
            calls.append(True)
            if len(calls) == 2:
                if os.getpid() == caller:
                    raise exc("raised in the caller's slab")
                time.sleep(20.0)
            return original(*args, **kwargs)
        monkeypatch.setattr(fp, "fpe_rhs", stage)
        t0 = time.monotonic()
        with pytest.raises(exc):
            self.solve(slab_grid(2))
        assert time.monotonic() - t0 < 10.0
        self.assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_workers_keep_the_callers_errstate(self, use_cpus, cpus):
        # inf - inf in the drift term's differences: invalid under the
        # caller's np.errstate however many CPUs the process sees
        use_cpus(cpus)
        grid = gaussian_grid([-0.8, -0.9, -1.0], [1.0, 0.9, 0.8], (25, 20, 20), [0.1, 0.0, -0.1], 0.2)
        grid.P[-3, 5, 5] = grid.P[-3, 5, 7] = np.inf
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.01, schedule=sched)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            fpe_rhs(grid, sched.at(0.0), cfg)
        with np.errstate(invalid="ignore"):
            assert np.isnan(fpe_rhs(grid, sched.at(0.0), cfg)[-3, 5, 6])

    def test_resolution_error_mid_solve_reaps_the_worker(self, monkeypatch, use_cpus):
        # the second step's bound falls below the floor, with the worker
        # idle between stages
        import tribody.fokker_planck as fp

        use_cpus(2)
        original, bounds = fp._stable_ds, []

        def collapsing(*args):
            bounds.append(original(*args))
            return bounds[-1] if len(bounds) < 2 else (fp.DS_FLOOR / 2, "drift")
        monkeypatch.setattr(fp, "_stable_ds", collapsing)
        with pytest.raises(ResolutionError):
            self.solve(slab_grid(2))
        assert len(bounds) == 2
        self.assert_no_child_left()


class TestFpeEvolve:
    def test_heat_kernel_variance(self):
        # zero drift, scalar eps: covariance grows by 2*eps*s per axis
        sigma0, eps, s1 = 0.1, 0.005, 0.5
        grid = gaussian_grid([-0.8] * 3, [0.8] * 3, (40, 40, 40), [0.0] * 3, sigma0)
        sched = CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
        cfg = FpeConfig(epsilon=eps, schedule=sched)
        res = fpe_evolve(grid, (0.0, s1), cfg, snapshot_s=(0.25, 0.5))
        assert len(res.snapshots) == 2
        for s, snap in res.snapshots:
            _, cov = grid_mean_cov(snap)
            expected = sigma0**2 + 2.0 * eps * s
            assert np.allclose(np.diag(cov), expected, rtol=0.03)
            off = cov - np.diag(np.diag(cov))
            assert np.max(np.abs(off)) < 0.02 * expected
        assert res.diagnostics["mass_ok"]
        assert abs(res.diagnostics["mass_final"] - 1.0) < 1e-6

    def test_zero_noise_advection_follows_characteristics(self):
        # eps = 0: the blob center rides the drift ODE
        coeffs_a = np.array([0.05, -0.03, 0.02])
        lam2 = 0.2
        x0 = np.array([0.2, 0.1, -0.1])
        grid = gaussian_grid([-0.9] * 3, [0.9] * 3, (40, 40, 40), x0, 0.12)
        sched = CoefficientSchedule.constant(coeffs_a, lam2)
        cfg = FpeConfig(epsilon=0.0, schedule=sched)
        s1 = 0.3
        res = fpe_evolve(grid, (0.0, s1), cfg)
        mean, _ = grid_mean_cov(res.snapshots[-1][1])

        sol = solve_ivp(
            lambda s, xi: drift(xi, (coeffs_a, lam2)),
            (0.0, s1), x0, rtol=1e-10, atol=1e-12,
        )
        assert np.allclose(mean, sol.y[:, -1], atol=0.01)

    def test_mass_audit_flags_boundary_leakage(self):
        # a wide blob pressed against the pinned boundary loses mass
        grid = gaussian_grid([-0.5] * 3, [0.5] * 3, (24, 24, 24), [0.0] * 3, 0.25)
        sched = CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
        cfg = FpeConfig(epsilon=0.05, schedule=sched)
        res = fpe_evolve(grid, (0.0, 0.5), cfg)
        assert res.diagnostics["mass_final"] < 0.99
        assert not res.diagnostics["mass_ok"]

    def test_mass_balance_closes_with_boundary_outflow_additive(self):
        # the additive operator telescopes on a pinned density, so the mass
        # lost is the mass that the end-of-step pins delete
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.05, schedule=sched)
        grid = gaussian_grid([-1] * 3, [1] * 3, (16, 16, 16), [0.1] * 3, 0.3)
        diag = fpe_evolve(grid, (0.0, 0.5), cfg).diagnostics
        assert diag["boundary_outflow"] > 1e-2
        assert abs(diag["mass_balance_residual"]) <= 1e-12
        assert diag["mass_balance_residual"] == (
            diag["mass_initial"] - diag["mass_final"] - diag["boundary_outflow"])

    def test_mass_balance_closes_with_boundary_outflow_multiplicative(self):
        # the outer flux sum_i B_il G_i is pinned like P before its
        # difference, so this operator telescopes too
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.05, schedule=sched, multiplicative=True)
        grid = gaussian_grid([-1] * 3, [1] * 3, (16, 16, 16), [0.1] * 3, 0.3)
        diag = fpe_evolve(grid, (0.0, 0.5), cfg).diagnostics
        assert diag["boundary_outflow"] > 1e-2
        assert abs(diag["mass_balance_residual"]) <= 1e-12

    def test_undershoot_steps_count_the_steps_that_leave_a_negative_cell(self, monkeypatch):
        # zero noise and a narrow blob on a coarse grid: the central drift
        # difference leaves cells below zero behind it
        import tribody.fokker_planck as fp

        original, ends = fp.pin_boundary, []

        def pin_and_check(P):
            original(P)
            ends.append(bool(np.any(P < -1e-12 * max(P.max(), 1e-300))))

        monkeypatch.setattr(fp, "pin_boundary", pin_and_check)
        sched = CoefficientSchedule.constant([0.5, -0.3, 0.2], 0.2)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0.1, 0.0, -0.1], 0.12)
        diag = fp.fpe_evolve(grid, (0.0, 0.3), FpeConfig(epsilon=0.0, schedule=sched)).diagnostics
        # each step pins its midpoint stage, then its end
        ends = ends[1::2]
        assert len(ends) == diag["steps"]
        assert 0 < diag["negative_undershoot_steps"] == sum(ends)

    def test_step_diagnostics(self):
        # constant coefficients: every step the bound sets has its length,
        # and the snapshot and the end of the span each cut one step
        from tribody.fokker_planck import _field, _stable_ds

        grid = gaussian_grid([-1] * 3, [1] * 3, (16, 16, 16), [0.1] * 3, 0.3)
        for a, eps, term in (([5.0, -3.0, 2.0], 0.0, "drift"), ([0.0] * 3, 0.1, "diffusion")):
            sched = CoefficientSchedule.constant(a, 0.2)
            cfg = FpeConfig(epsilon=eps, schedule=sched)
            coeffs = sched.at(0.0)
            field = _field(grid.mesh(axis=0), grid.h, coeffs, cfg)
            bound, bound_term = _stable_ds(grid, cfg, coeffs, field, None)
            assert bound_term == term
            diag = fpe_evolve(grid, (0.0, 0.3), cfg, snapshot_s=(0.1234,)).diagnostics
            limits = diag["cfl_limit"]
            assert limits["snapshot"] == 2
            assert limits[term] == math.floor(0.1234 / bound) + math.floor((0.3 - 0.1234) / bound)
            assert diag["steps"] == sum(limits.values()) == limits[term] + 2
            assert diag["ds_max"] == diag["ds_median"] == bound
            assert 0.0 < diag["ds_min"] < bound
            assert fpe_evolve(grid, (0.0, 0.3), cfg, snapshot_s=(0.1234,)).diagnostics == diag

    @pytest.mark.parametrize("ratio, multiplicative", [
        pytest.param(0.7, False, id="0.7"),
        pytest.param(1.4, False, id="1.4"),
        pytest.param(0.7, True, id="multiplicative-0.7"),
        pytest.param(1.4, True, id="multiplicative-1.4"),
    ])
    def test_step_bound_is_the_smaller_term(self, ratio, multiplicative):
        # the diffusion bound set to `ratio` times the drift bound; the
        # drift's largest |A| is one of its negative values.  For
        # multiplicative noise the bound reads max|A| as max|B a| off the
        # coupling's rows, which is the drift kernel's up to rounding
        from tribody.fokker_planck import SAFETY, _field, _quadratic, _row_sums, _stable_ds

        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 14, 16), [0] * 3, 0.3)
        coeffs = (np.array([0.5, 0.2, 0.1]), 0.3)
        A = drift(grid.mesh(), coeffs)
        assert -A.min() > A.max()
        h = float(np.min(grid.h))
        sched = CoefficientSchedule.constant(*coeffs)
        if not multiplicative:
            drift_bound = h / float(np.max(np.abs(A)))
            cfg = FpeConfig(epsilon=h * h / (6.0 * ratio * drift_bound), schedule=sched)
            diffusive, sums = h * h / (6.0 * cfg.epsilon), None
        else:
            cfg = FpeConfig(epsilon=1.0, schedule=sched, multiplicative=True)
            B, a = _field(grid.mesh(axis=0), grid.h, coeffs, cfg), coeffs[0]
            amax = max(float(np.max(np.abs(B[i][0] * a[0] + B[i][1] * a[1] + B[i][2] * a[2])))
                       for i in range(3))
            assert amax == pytest.approx(float(np.max(np.abs(A))), rel=1e-15)
            drift_bound = h / amax
            # R is linear in eps: scale eps so that 2 / R = ratio * drift_bound
            quad, lam_sq = _quadratic(grid.mesh(axis=0)), coeffs[1]
            r0, r1, r2 = _row_sums(quad, grid.h, cfg.epsilon)
            R = r0 + lam_sq * r1 + lam_sq * lam_sq * r2
            cfg = FpeConfig(epsilon=2.0 / (R * ratio * drift_bound), schedule=sched,
                            multiplicative=True)
            sums = _row_sums(quad, grid.h, cfg.epsilon)
            diffusive = 2.0 / (sums[0] + lam_sq * sums[1] + lam_sq * lam_sq * sums[2])
        assert diffusive == pytest.approx(ratio * drift_bound)
        ds, term = _stable_ds(grid, cfg, coeffs, _field(grid.mesh(axis=0), grid.h, coeffs, cfg), sums)
        assert term == ("diffusion" if ratio < 1.0 else "drift")
        assert ds == SAFETY * min(drift_bound, diffusive)

    def test_step_refinement(self, monkeypatch):
        # Lambda^2 changes over the span, so each step start reads its own
        # bound, which the box's corners set; an eighth of that step moves
        # the final density, which sits where |B| is small, by little, and
        # takes no fewer undershoot steps
        import tribody.fokker_planck as fp

        sched = CoefficientSchedule(s=[0.0, 0.3], a=[[0.05, -0.03, 0.02], [0.08, -0.01, 0.0]],
                                    lam_sq=[0.02, 0.1])
        cfg = FpeConfig(epsilon=0.02, schedule=sched, multiplicative=True)
        grid = gaussian_grid([-2] * 3, [2] * 3, (16, 16, 16), [0.1, 0.0, -0.1], 0.25)
        runs = [fpe_evolve(grid, (0.0, 0.3), cfg)]
        monkeypatch.setattr(fp, "SAFETY", fp.SAFETY / 8.0)
        runs.append(fpe_evolve(grid, (0.0, 0.3), cfg))
        large, small = (res.diagnostics for res in runs)
        assert large["cfl_limit"]["diffusion"] == large["steps"] - 1
        assert small["steps"] >= 8 * (large["steps"] - 1)
        final = [res.snapshots[-1][1].P for res in runs]
        assert np.max(np.abs(final[0] - final[1])) <= 1e-5 * np.max(final[1])
        for diag in (large, small):
            assert abs(diag["mass_balance_residual"]) <= 1e-12
        assert large["negative_undershoot_steps"] <= small["negative_undershoot_steps"]

    def test_validation_errors(self):
        sched = CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
        cfg = FpeConfig(epsilon=0.01, schedule=sched)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0] * 3, 0.2)
        for bad in (grid.copy_with(2.0 * grid.P), grid.copy_with(np.full(grid.shape, np.nan))):
            with pytest.raises(DomainError):
                fpe_evolve(bad, (0.0, 0.1), cfg)
        with pytest.raises(DomainError):
            fpe_evolve(grid, (0.5, 0.5), cfg)
        with pytest.raises(DomainError):
            fpe_evolve(grid, (0.0, 0.1), cfg, snapshot_s=(0.5,))
        # the diffusion CFL bound on this grid gives ds ~ 2.3e-10, below the floor
        stiff = FpeConfig(epsilon=1e7, schedule=sched)
        with pytest.raises(ResolutionError):
            fpe_evolve(grid, (0.0, 0.1), stiff)

    @pytest.mark.parametrize("s_span, snapshot_s", [
        ((0.0, 1e-300), ()),
        ((0.0, 0.5 * DS_FLOOR), ()),
        # every snapshot time less than DS_FLOOR after the one before
        ((0.0, 2.4 * DS_FLOOR), (0.8 * DS_FLOOR, 1.6 * DS_FLOOR)),
    ], ids=["span-1e-300", "span-half-the-floor", "gaps-below-the-floor"])
    def test_solve_without_a_step_rejected(self, s_span, snapshot_s):
        # such a solve would take no step and return no step statistics
        cfg = FpeConfig(epsilon=0.01, schedule=CoefficientSchedule.constant([0.0] * 3, 0.0))
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0] * 3, 0.2)
        with pytest.raises(DomainError, match="no step"):
            fpe_evolve(grid, s_span, cfg, snapshot_s=snapshot_s)

    def test_span_past_schedule_rejected(self):
        # the schedule covers [0, 1]; a longer span must not hold the last
        # coefficients silently
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.01, schedule=sched)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0] * 3, 0.2)
        for span in ((0.0, 1.5), (-0.5, 0.5)):
            with pytest.raises(DomainError):
                fpe_evolve(grid, span, cfg)

    @staticmethod
    def counted_solve(monkeypatch, sched, multiplicative):
        """One solve on sched with its layers counted: checks what holds on
        any schedule and returns the call counts and the number of steps."""
        import tribody.fokker_planck as fp
        import tribody.langevin as langevin

        calls, latest = {}, {}

        def shares_field(field, formed):
            """Whether each array of field is a view of formed's."""
            if multiplicative:
                return all(np.shares_memory(field[k][j], formed[k][j]) for k, j in fp._UPPER)
            return np.shares_memory(field[0], formed[0])

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                if name == "drift":
                    # on the (rows, n2, n3, 3) views of a block's
                    # component-major cell centres and of its rows of the
                    # (3, n1, n2, n3) field
                    xi, out = args[0], kwargs["out"]
                    assert xi.shape == out.shape == (rows,) + grid.shape[1:] + (3,)
                    assert xi.strides[-1] == xi[..., 0].size * 8
                    assert out.strides[-1] == grid.P.size * 8
                    latest["A"] = out
                if name == "fpe_rhs":
                    # each right-hand side reads the latest field formed
                    assert shares_field(kwargs["field"], latest["field"])
                if name == "_stable_ds":
                    # the step bound reads the latest field, and for
                    # multiplicative noise the solve's row sums
                    assert shares_field(args[3], latest["field"])
                    assert args[4] is latest.get("sums")
                result = fn(*args, **kwargs)
                if name == "drift":
                    latest["amax"] = float(np.max(np.abs(kwargs["out"])))
                if name == "_coupling":
                    latest["B"] = result
                if name == "_row_sums":
                    latest["sums"] = result
                if name == "_field":
                    # the latest coupling, or the weights formed in place of
                    # the drift that the latest drift call wrote, with its
                    # max|A|
                    if multiplicative:
                        assert result is latest["B"]
                    else:
                        assert np.shares_memory(result[0], latest["A"])
                        assert result[1] == latest["amax"]
                    latest["field"] = result
                return result
            return wrapper

        for name in ("drift", "_quadratic", "_coupling", "_row_sums", "_field", "fpe_rhs",
                     "_stable_ds"):
            monkeypatch.setattr(fp, name, counted(name, getattr(fp, name)))
        original = langevin.diffusion
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "tribody" and vars(mod).get("diffusion") is original:
                monkeypatch.setattr(mod, "diffusion", counted("diffusion", original))
        cfg = FpeConfig(epsilon=0.05, schedule=sched, multiplicative=multiplicative)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0] * 3, 0.2)
        # the default budget puts the 12 rows in one block
        rows, blocks = 12, 1
        assert fp.BLOCK_CELLS >= grid.P.size
        diag = fp.fpe_evolve(grid, (0.0, 0.2), cfg, snapshot_s=(0.1,)).diagnostics
        steps = diag["steps"]
        assert steps > 2
        assert calls["fpe_rhs"] == 2 * steps
        assert calls["_field"] == diag["field_evals"]
        if multiplicative:
            # every field runs the coupling, and so does _row_sums, once,
            # for B at Lambda^2 = 0; the drift kernel never runs
            assert calls["_coupling"] == diag["field_evals"] + 1
            assert calls["_quadratic"] == calls["_row_sums"] == 1
            assert "drift" not in calls
        else:
            # the drift kernel runs once per block of each field formed
            assert calls["drift"] == blocks * diag["field_evals"]
            assert not {"_quadratic", "_coupling", "_row_sums"} & set(calls)
        # one step bound per field that a step start reads
        assert calls["_stable_ds"] <= diag["field_evals"]
        assert "diffusion" not in calls
        return calls, steps

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_step_bound_shares_the_first_stage_fields(self, monkeypatch, multiplicative):
        # coefficients that change between stages: the CFL bound reads the
        # field that k1 uses, so an RK2 step forms a field once per stage,
        # and the step bound once; the coupling is built from the mesh's
        # products, formed once per run, never through langevin.diffusion.
        # A multiplicative solve never runs the drift kernel: its step
        # bound reads max|B a| off the coupling.  Every drift call runs on
        # the (n1, n2, n3, 3) views of the run's component-major cell
        # centres, and each right-hand side reads the latest field formed.
        sched = CoefficientSchedule(s=[0.0, 0.2], a=[[0.05, -0.03, 0.02], [0.08, -0.01, 0.0]],
                                    lam_sq=[0.2, 0.35])
        calls, steps = self.counted_solve(monkeypatch, sched, multiplicative)
        assert calls["_field"] == 2 * steps
        assert calls.get("drift", 0) == (0 if multiplicative else 2 * steps)
        assert calls["_stable_ds"] == steps

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_constant_schedule_forms_its_fields_once(self, monkeypatch, multiplicative):
        # every stage has the coefficients of the field held, so the solve
        # forms its field and its step bound once
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        calls, _ = self.counted_solve(monkeypatch, sched, multiplicative)
        assert calls["_field"] == calls["_stable_ds"] == 1
        assert calls.get("drift", 0) == (0 if multiplicative else 1)

    @pytest.mark.parametrize("multiplicative", [False, True])
    @pytest.mark.parametrize("a_end, field_evals", [([0.05, -0.03, 0.02], 1),
                                                    ([0.08, -0.01, 0.0], 2)])
    def test_one_step_is_midpoint_rk2_with_fields_of_its_own(self, multiplicative, a_end,
                                                             field_evals):
        # a span shorter than the step bound: one step, whose midpoint
        # stage reuses the step start's fields when the coefficients there
        # are the same; each fpe_rhs here forms its own
        sched = CoefficientSchedule(s=[0.0, 1e-3], a=[[0.05, -0.03, 0.02], a_end],
                                    lam_sq=[0.2, 0.2])
        cfg = FpeConfig(epsilon=0.01, schedule=sched, multiplicative=multiplicative)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0.1, 0.0, -0.1], 0.2)
        ds = 1e-3
        res = fpe_evolve(grid, (0.0, ds), cfg)
        assert res.diagnostics["steps"] == 1
        assert res.diagnostics["field_evals"] == field_evals
        P = grid.P
        mid = P + 0.5 * ds * fpe_rhs(grid, sched.at(0.0), cfg)
        pin_boundary(mid)
        new = P + ds * fpe_rhs(grid.copy_with(mid), sched.at(0.5 * ds), cfg)
        pin_boundary(new)
        assert np.array_equal(res.snapshots[-1][1].P, new)

    def test_additive_solve_forms_no_whole_grid_mesh(self, monkeypatch, use_cpus):
        # the field is formed block by block from each block's cell
        # centres, so the solve allocates no (3, n1, n2, n3) mesh, 3 times
        # the density's bytes: at its peak it holds the final snapshot and
        # a block's arrays
        import tracemalloc

        import tribody.fokker_planck as fp

        use_cpus(1)
        monkeypatch.setattr(fp, "BLOCK_CELLS", 4 * 20 * 20)
        grid = gaussian_grid([-1] * 3, [1] * 3, (40, 20, 20), [0] * 3, 0.2)
        cfg = FpeConfig(epsilon=SLAB_EPS, schedule=changing_schedule())
        shapes, mesh = [], MomentumGrid.mesh

        def recorded(self, *args, **kwargs):
            X = mesh(self, *args, **kwargs)
            shapes.append(X.shape)
            return X
        monkeypatch.setattr(MomentumGrid, "mesh", recorded)
        tracemalloc.start()
        try:
            res = fpe_evolve(grid, (0.0, 0.1), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics["steps"] >= 3
        assert shapes == [(3, 4, 20, 20)] * (10 * res.diagnostics["field_evals"])
        assert peak < 2 * grid.P.nbytes

    @pytest.mark.parametrize("nan_row", [None, 9, 39])
    def test_step_bound_reads_the_largest_drift_of_every_block(self, monkeypatch, use_cpus,
                                                                 nan_row):
        # the additive field's max|A| is the largest of its blocks': that of
        # the whole drift (here in the last of 10 blocks), and NaN when a
        # block's drift holds one
        import tribody.fokker_planck as fp

        use_cpus(1)
        monkeypatch.setattr(fp, "BLOCK_CELLS", 4 * 20 * 20)
        grid = gaussian_grid([-0.5, -1, -1], [2, 1, 1], (40, 20, 20), [0.5, 0, 0], 0.3)
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        A = drift(grid.mesh(), sched.at(0.0))
        if nan_row is not None:
            A[nan_row, 3, 5, 1] = np.nan
        expected = fp._absmax(A)
        assert np.isnan(expected) or expected == np.max(np.abs(A[36:]))

        def drift_with_nan(xi, coeffs, out):
            drift(xi, coeffs, out=out)
            if nan_row is not None:
                out[xi[:, 0, 0, 0] == grid.centers(0)[nan_row], 3, 5, 1] = np.nan

        class Read(Exception):
            pass

        def read_bound(grid, cfg, coeffs, field, sums):
            raise Read(field[1])
        monkeypatch.setattr(fp, "drift", drift_with_nan)
        monkeypatch.setattr(fp, "_stable_ds", read_bound)
        with pytest.raises(Read) as read:
            fpe_evolve(grid, (0.0, 0.1), FpeConfig(epsilon=0.01, schedule=sched))
        amax = read.value.args[0]
        assert np.isnan(amax) if nan_row is not None else amax == expected

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_rhs_with_given_fields_matches_own(self, multiplicative):
        from tribody.fokker_planck import _field

        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.01, schedule=sched, multiplicative=multiplicative)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0.1] * 3, 0.2)
        coeffs = sched.at(0.0)
        given = fpe_rhs(grid, coeffs, cfg, field=_field(grid.mesh(axis=0), grid.h, coeffs, cfg))
        assert np.array_equal(given, fpe_rhs(grid, coeffs, cfg))

    def test_snapshots_sorted_and_include_endpoint(self):
        sched = CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
        cfg = FpeConfig(epsilon=0.01, schedule=sched)
        grid = gaussian_grid([-1] * 3, [1] * 3, (16, 16, 16), [0] * 3, 0.2)
        res = fpe_evolve(grid, (0.0, 0.2), cfg, snapshot_s=(0.15, 0.05))
        times = [s for s, _ in res.snapshots]
        assert times == sorted(times)
        assert np.isclose(times[-1], 0.2)
        assert len(times) == 3


class TestDensityFromEnsemble:
    def test_matches_analytic_gaussian(self):
        rng = philox(7)
        sigma, n = 1.0, 200000
        samples = sigma * rng.standard_normal((n, 3))
        spec = MomentumGrid([-4.0] * 3, [4.0] * 3, (16, 16, 16))
        est = density_from_ensemble(samples, spec)
        assert np.isclose(total_mass(est), 1.0)
        ref = gaussian_grid([-4.0] * 3, [4.0] * 3, (16, 16, 16), [0.0] * 3, sigma)
        tv = 0.5 * np.sum(np.abs(est.P - ref.P)) * spec.cell_volume
        assert tv < 0.06

    def test_out_of_range_counted(self):
        spec = MomentumGrid([-1.0] * 3, [1.0] * 3, (8, 8, 8))
        samples = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])
        est = density_from_ensemble(samples, spec)
        assert est.out_of_range == 2
        assert np.isclose(total_mass(est), 1.0)

    @pytest.mark.parametrize("mins, maxs, shape", [
        ([-1.0] * 3, [1.0] * 3, (8, 8, 8)),
        ([-3.0, -2.9, 0.1], [3.4, 3.5, 0.7], (64, 13, 9)),
        ([1e3, -0.3, -7.0], [1e3 + 0.1, 0.3, 7.0], (10, 33, 17)),
    ])
    def test_counts_are_histogramdds(self, mins, maxs, shape):
        # samples on every edge, one ulp either side of it, on the last
        # (closed) edge, outside the box, infinite or NaN: binned as
        # np.histogramdd bins them on the grid's linspace edges
        spec = MomentumGrid(mins, maxs, shape)
        edges = [np.linspace(spec.mins[i], spec.maxs[i], spec.shape[i] + 1) for i in range(3)]
        rng = philox(5)
        columns = []
        for e in edges:
            width = e[-1] - e[0]
            special = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                                      [e[0] - width, e[-1] + width, np.inf, -np.inf, np.nan]])
            inner = e[0] + width * rng.random(4000)
            columns.append(np.concatenate([special, inner]))
        n = max(len(c) for c in columns)
        samples = np.stack([rng.permutation(np.resize(c, n)) for c in columns], axis=1)
        # and every sample of one axis with the others held at an edge
        samples = np.concatenate(
            [samples] + [np.column_stack([c if j == i else np.full(len(c), edges[j][k])
                                          for j in range(3)])
                         for i, c in enumerate(columns) for k in (0, -1)])
        est = density_from_ensemble(samples, spec)
        finite = np.all(np.isfinite(samples), axis=1)
        hist, _ = np.histogramdd(samples[finite], bins=edges)
        n_in = float(hist.sum())
        assert np.array_equal(est.P, hist / (n_in * spec.cell_volume))
        assert est.out_of_range == len(samples) - n_in
        assert est.out_of_range > 0 and n_in > 0

    def test_all_outside_raises(self):
        spec = MomentumGrid([-1.0] * 3, [1.0] * 3, (8, 8, 8))
        with pytest.raises(EmptyDensityError):
            density_from_ensemble(np.full((5, 3), 10.0), spec)
        with pytest.raises(DomainError):
            density_from_ensemble(np.zeros((0, 3)), spec)


class TestDensityIo:
    def test_round_trip(self, tmp_path):
        grid = gaussian_grid([-0.5, -1.0, 0.0], [0.5, 1.0, 2.0], (8, 10, 12), [0.0, 0.0, 1.0], 0.3)
        path = tmp_path / "density.npy"
        write_density(grid, path)
        loaded = read_density(path, MomentumGrid(grid.mins, grid.maxs, grid.shape))
        assert loaded.same_spec(grid)
        assert np.array_equal(loaded.P, grid.P)
