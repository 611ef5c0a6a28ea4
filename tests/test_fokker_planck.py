"""Tests for the momentum-space density evolution."""

import math
import sys

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
    quantum_epsilon,
    read_density,
    total_mass,
    write_density,
)
from tribody.errors import ConfigError
from tribody.fokker_planck import pin_boundary


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
        shifted = MomentumGrid([-2, -1, -1], [1, 1, 1], (8, 8, 8))
        assert not grid.same_spec(shifted)


class TestFpeConfig:
    def test_scalar_epsilon_promoted(self):
        cfg = FpeConfig(epsilon=0.25, schedule=CoefficientSchedule.constant([0, 0, 0], 0.0))
        assert np.allclose(cfg.epsilon, 0.25 * np.eye(3))

    def test_sign_modes(self):
        sched = CoefficientSchedule.constant([0, 0, 0], 0.0)
        assert FpeConfig(epsilon=0.1, schedule=sched).drift_sign == -1.0
        assert FpeConfig(epsilon=0.1, schedule=sched, sign_mode="verbatim").drift_sign == 1.0
        with pytest.raises(ConfigError):
            FpeConfig(epsilon=0.1, schedule=sched, sign_mode="upwind")

    def test_epsilon_must_be_psd(self):
        sched = CoefficientSchedule.constant([0, 0, 0], 0.0)
        asymmetric = np.eye(3)
        asymmetric[0, 1] = 0.1
        for bad in (np.diag([1.0, 1.0, -0.5]), asymmetric):
            with pytest.raises(ConfigError):
                FpeConfig(epsilon=bad, schedule=sched)

    def test_quantum_epsilon(self):
        assert np.isclose(quantum_epsilon(0.1, 4.0), 0.5 * 0.1 * 2.0)
        assert quantum_epsilon(0.0, 5.0) == 0.0
        with pytest.raises(DomainError):
            quantum_epsilon(-0.1, 1.0)
        with pytest.raises(DomainError):
            quantum_epsilon(0.1, -1.0)


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
        eps = np.array([[0.02, 0.005, 0.0], [0.005, 0.015, 0.002], [0.0, 0.002, 0.01]])
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
        G = np.einsum("ij,...j->...i", eps, F)
        for i in range(3):
            for l in range(3):
                ref += d(B[..., i, l] * G[..., i], l)
        assert np.allclose(rhs, ref, atol=1e-12, rtol=1e-10)


def tensor_rhs(grid, coeffs, cfg):
    """The multiplicative right-hand side with the coupling as an
    (n1, n2, n3, 3, 3) tensor from langevin.diffusion, contracted by einsum
    and a matrix product: the oracle for the component form of fpe_rhs."""
    from tribody.fokker_planck import _d
    from tribody.langevin import diffusion

    mesh, P, h = grid.mesh(), grid.P, grid.h
    A = drift(mesh, coeffs)
    B = diffusion(mesh, coeffs[1])
    rhs = np.zeros_like(P)
    for i in range(3):
        rhs += cfg.drift_sign * _d(A[..., i] * P, i, h[i])
    F = sum(_d(B[..., k, :] * P[..., None], k, h[k]) for k in range(3))
    BG = np.einsum("...il,...i->...l", B, F @ cfg.epsilon)
    for l in range(3):
        rhs += _d(BG[..., l], l, h[l])
    return rhs


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

    def test_full_epsilon_matches_tensor_oracle(self):
        # G = eps F is summed term by term, the oracle's matrix product in
        # BLAS order: the two may differ in the last bits
        eps = np.array([[0.02, 0.005, 0.003], [0.005, 0.015, 0.002], [0.003, 0.002, 0.01]])
        grid, cfg = self.grid(), self.cfg(eps)
        rhs, ref = fpe_rhs(grid, self.COEFFS, cfg), tensor_rhs(grid, self.COEFFS, cfg)
        assert np.max(np.abs(rhs - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_step_bound_reads_the_tensor_maximum(self):
        # zero drift, so the diffusion term alone bounds the step; near the
        # (1, 1, 1) direction |B| peaks off the diagonal, so the bound must
        # read the off-diagonal components too
        from tribody.fokker_planck import SAFETY, _fields, _stable_ds
        from tribody.langevin import diffusion

        grid = gaussian_grid([0.4] * 3, [2.0, 1.9, 2.1], (10, 12, 14), [1.2] * 3, 0.5)
        coeffs = (np.zeros(3), 0.1)
        sched = CoefficientSchedule.constant(*coeffs)
        cfg = FpeConfig(epsilon=0.02, schedule=sched, multiplicative=True)
        B = diffusion(grid.mesh(), coeffs[1])
        bmax = float(np.max(np.abs(B)))
        assert bmax > max(1.0, np.max(np.abs(np.diagonal(B, axis1=-2, axis2=-1))))
        expected = SAFETY * float(np.min(grid.h)) ** 2 / (2.0 * 0.06 * bmax * bmax)
        fields = _fields(grid.mesh(axis=0), coeffs, cfg)
        assert _stable_ds(grid, cfg, fields) == (expected, "diffusion")


def mesh_rhs(grid, coeffs, cfg):
    """The right-hand side transcribed on the (n1, n2, n3, 3) mesh: drift
    from `drift(grid.mesh(), ...)`, coupling from `langevin.diffusion`,
    differences on zero-padded arrays, every sum in the solver's order."""
    from tribody.langevin import diffusion

    mesh, P, h, eps = grid.mesh(), grid.P, grid.h, cfg.epsilon

    def d(F, axis):
        padded = np.pad(F, [(1, 1) if ax == axis else (0, 0) for ax in range(3)])
        hi, lo = [slice(None)] * 3, [slice(None)] * 3
        hi[axis], lo[axis] = slice(2, None), slice(None, -2)
        return (padded[tuple(hi)] - padded[tuple(lo)]) / (2.0 * h[axis])

    def d2(F, axis):
        padded = np.pad(F, [(1, 1) if ax == axis else (0, 0) for ax in range(3)])
        hi, mid, lo = [slice(None)] * 3, [slice(None)] * 3, [slice(None)] * 3
        hi[axis], mid[axis], lo[axis] = slice(2, None), slice(1, -1), slice(None, -2)
        return (padded[tuple(hi)] - 2.0 * padded[tuple(mid)] + padded[tuple(lo)]) / (h[axis] ** 2)

    A = drift(mesh, coeffs)
    rhs = np.zeros_like(P)
    for i in range(3):
        rhs += cfg.drift_sign * d(A[..., i] * P, i)
    if not cfg.multiplicative:
        for i in range(3):
            rhs += eps[i, i] * d2(P, i)
            for j in range(i + 1, 3):
                rhs += 2.0 * eps[i, j] * d(d(P, j), i)
        return rhs
    B = diffusion(mesh, coeffs[1])
    F = [sum(d(B[..., k, j] * P, k) for k in range(3)) for j in range(3)]
    G = [sum(eps[i, j] * F[j] for j in range(3)) for i in range(3)]
    for l in range(3):
        rhs += d(sum(B[..., i, l] * G[i] for i in range(3)), l)
    return rhs


class TestComponentMajor:
    """The solver keeps the drift as (3, n1, n2, n3) components; its fields
    and right-hand side are those of the mesh form, bit for bit."""

    COEFFS = (np.array([0.06, -0.04, 0.05]), 0.25)
    FULL = np.array([[0.02, 0.005, 0.003], [0.005, 0.015, 0.002], [0.003, 0.002, 0.01]])

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
    def test_fields_match_mesh_form(self, multiplicative):
        from tribody.fokker_planck import _fields
        from tribody.langevin import diffusion

        grid, cfg = self.grid(), self.cfg(0.013, multiplicative)
        A, B = _fields(grid.mesh(axis=0), self.COEFFS, cfg)
        assert A.shape == (3, 10, 8, 20) and A.flags.c_contiguous
        assert np.array_equal(A, np.moveaxis(drift(grid.mesh(), self.COEFFS), -1, 0))
        if not multiplicative:
            assert B is None
            return
        ref = diffusion(grid.mesh(), self.COEFFS[1])
        for k in range(3):
            for j in range(3):
                assert np.array_equal(B[k][j], ref[..., k, j])

    @pytest.mark.parametrize("multiplicative", [False, True])
    @pytest.mark.parametrize("epsilon", ["scalar", "full"])
    @pytest.mark.parametrize("sign_mode", ["conventional", "verbatim"])
    def test_rhs_matches_mesh_form(self, multiplicative, epsilon, sign_mode):
        eps = 0.013 if epsilon == "scalar" else self.FULL
        grid = self.grid()
        cfg = FpeConfig(epsilon=eps, schedule=CoefficientSchedule.constant(*self.COEFFS),
                        sign_mode=sign_mode, multiplicative=multiplicative)
        assert np.array_equal(fpe_rhs(grid, self.COEFFS, cfg), mesh_rhs(grid, self.COEFFS, cfg))


def use_cpus(monkeypatch, n):
    """Make the solvers see n CPUs available to the process."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestSlabs:
    """fpe_rhs evaluates the whole grid in one pass on the calling thread,
    whatever the CPU count; nothing is split into slabs or handed to workers."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_workers_keep_the_callers_errstate(self, monkeypatch, cpus):
        # inf - inf in the drift term's differences: invalid under the
        # caller's np.errstate however many CPUs the process sees
        use_cpus(monkeypatch, cpus)
        grid = gaussian_grid([-0.8, -0.9, -1.0], [1.0, 0.9, 0.8], (25, 20, 20), [0.1, 0.0, -0.1], 0.2)
        grid.P[-3, 5, 5] = grid.P[-3, 5, 7] = np.inf
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.01, schedule=sched)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            fpe_rhs(grid, sched.at(0.0), cfg)
        with np.errstate(invalid="ignore"):
            assert np.isnan(fpe_rhs(grid, sched.at(0.0), cfg)[-3, 5, 6])


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

    @pytest.mark.xfail(strict=True, reason=(
        "the multiplicative operator's outer difference d_l(sum_i B_il G_i) "
        "takes flux through the boundary faces, since G = eps F is nonzero in "
        "the pinned layer: this run's residual is 8.3e-3 of an outflow of 1.7e-2"))
    def test_mass_balance_closes_with_boundary_outflow_multiplicative(self):
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.05, schedule=sched, multiplicative=True)
        grid = gaussian_grid([-1] * 3, [1] * 3, (16, 16, 16), [0.1] * 3, 0.3)
        diag = fpe_evolve(grid, (0.0, 0.5), cfg).diagnostics
        assert diag["boundary_outflow"] > 1e-2
        assert abs(diag["mass_balance_residual"]) <= 1e-12

    def test_step_diagnostics(self):
        # constant coefficients: every step the bound sets has its length,
        # and the snapshot and the end of the span each cut one step
        from tribody.fokker_planck import _fields, _stable_ds

        grid = gaussian_grid([-1] * 3, [1] * 3, (16, 16, 16), [0.1] * 3, 0.3)
        for a, eps, term in (([5.0, -3.0, 2.0], 0.0, "drift"), ([0.0] * 3, 0.1, "diffusion")):
            sched = CoefficientSchedule.constant(a, 0.2)
            cfg = FpeConfig(epsilon=eps, schedule=sched)
            bound, bound_term = _stable_ds(grid, cfg, _fields(grid.mesh(axis=0), sched.at(0.0), cfg))
            assert bound_term == term
            diag = fpe_evolve(grid, (0.0, 0.3), cfg, snapshot_s=(0.1234,)).diagnostics
            limits = diag["cfl_limit"]
            assert limits["snapshot"] == 2
            assert limits[term] == math.floor(0.1234 / bound) + math.floor((0.3 - 0.1234) / bound)
            assert diag["steps"] == sum(limits.values()) == limits[term] + 2
            assert diag["ds_max"] == diag["ds_median"] == bound
            assert 0.0 < diag["ds_min"] < bound
            assert fpe_evolve(grid, (0.0, 0.3), cfg, snapshot_s=(0.1234,)).diagnostics == diag

    @pytest.mark.parametrize("ratio", [0.7, 1.4])
    def test_step_bound_is_the_smaller_term(self, ratio):
        # the diffusion bound set to `ratio` times the drift bound; the
        # drift's largest |A| is one of its negative values
        from tribody.fokker_planck import SAFETY, _fields, _stable_ds

        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 14, 16), [0] * 3, 0.3)
        coeffs = (np.array([0.5, 0.2, 0.1]), 0.3)
        A = drift(grid.mesh(), coeffs)
        assert -A.min() > A.max()
        h = float(np.min(grid.h))
        drift_bound = h / float(np.max(np.abs(A)))
        tr_eps = h * h / (2.0 * ratio * drift_bound)
        cfg = FpeConfig(epsilon=np.diag([0.5, 0.3, 0.2]) * tr_eps,
                        schedule=CoefficientSchedule.constant(*coeffs))
        diffusive = h * h / (2.0 * float(np.trace(cfg.epsilon)))
        assert diffusive == pytest.approx(ratio * drift_bound)
        ds, term = _stable_ds(grid, cfg, _fields(grid.mesh(axis=0), coeffs, cfg))
        assert term == ("diffusion" if ratio < 1.0 else "drift")
        assert ds == SAFETY * min(drift_bound, diffusive)

    def test_validation_errors(self):
        sched = CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
        cfg = FpeConfig(epsilon=0.01, schedule=sched)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0] * 3, 0.2)
        bad = grid.copy_with(2.0 * grid.P)
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

        calls, meshes, latest = {}, [], {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                if name == "drift":
                    xi, out = args[0], kwargs["out"]
                    assert xi.shape == out.shape == grid.shape + (3,)
                    assert xi.strides[-1] == out.strides[-1] == grid.P.size * 8
                    meshes.append(xi.base)
                    latest["A"] = out.base
                if name == "fpe_rhs":
                    # the drift that the latest drift call wrote
                    assert kwargs["fields"][0] is latest["A"]
                return fn(*args, **kwargs)
            return wrapper

        for name in ("drift", "_quadratic", "_coupling", "fpe_rhs", "_stable_ds"):
            monkeypatch.setattr(fp, name, counted(name, getattr(fp, name)))
        original = langevin.diffusion
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "tribody" and vars(mod).get("diffusion") is original:
                monkeypatch.setattr(mod, "diffusion", counted("diffusion", original))
        cfg = FpeConfig(epsilon=0.05, schedule=sched, multiplicative=multiplicative)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0] * 3, 0.2)
        diag = fp.fpe_evolve(grid, (0.0, 0.2), cfg, snapshot_s=(0.1,)).diagnostics
        steps = calls["_stable_ds"]
        assert steps == diag["steps"] > 2
        assert calls["fpe_rhs"] == 2 * steps
        assert calls["drift"] == diag["field_evals"]
        # every drift call runs on the views of the solve's one mesh
        assert meshes[0] is not None and all(X is meshes[0] for X in meshes)
        assert calls.get("_quadratic", 0) == (1 if multiplicative else 0)
        assert calls.get("_coupling", 0) == (calls["drift"] if multiplicative else 0)
        assert "diffusion" not in calls
        return calls, steps

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_step_bound_shares_the_first_stage_fields(self, monkeypatch, multiplicative):
        # coefficients that change between stages: the CFL bound reads the
        # drift (and coupling) that k1 uses, so an RK2 step evaluates each
        # field once per stage; the coupling is built from the mesh's
        # products, formed once per run, never through langevin.diffusion.
        # Every drift call runs on the (n1, n2, n3, 3) views of the run's
        # component-major cell centres, and each right-hand side reads the
        # drift that the latest drift call wrote.
        sched = CoefficientSchedule(s=[0.0, 0.2], a=[[0.05, -0.03, 0.02], [0.08, -0.01, 0.0]],
                                    lam_sq=[0.2, 0.35])
        calls, steps = self.counted_solve(monkeypatch, sched, multiplicative)
        assert calls["drift"] == 2 * steps

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_constant_schedule_forms_its_fields_once(self, monkeypatch, multiplicative):
        # every stage has the coefficients of the fields held, so the solve
        # forms its drift (and coupling) once
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        calls, _ = self.counted_solve(monkeypatch, sched, multiplicative)
        assert calls["drift"] == 1

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

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_rhs_with_given_fields_matches_own(self, multiplicative):
        from tribody.fokker_planck import _fields

        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.01, schedule=sched, multiplicative=multiplicative)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0.1] * 3, 0.2)
        coeffs = sched.at(0.0)
        given = fpe_rhs(grid, coeffs, cfg, fields=_fields(grid.mesh(axis=0), coeffs, cfg))
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

    def test_all_outside_raises(self):
        spec = MomentumGrid([-1.0] * 3, [1.0] * 3, (8, 8, 8))
        with pytest.raises(EmptyDensityError):
            density_from_ensemble(np.full((5, 3), 10.0), spec)
        with pytest.raises(DomainError):
            density_from_ensemble(np.zeros((0, 3)), spec)


class TestDensityIo:
    def test_round_trip(self, tmp_path):
        grid = gaussian_grid([-0.5, -1.0, 0.0], [0.5, 1.0, 2.0], (8, 10, 12), [0.0, 0.0, 1.0], 0.3)
        path = tmp_path / "density.txt"
        write_density(grid, 0.375, {"epsilon": 0.01, "mode": "conventional"}, path)
        loaded, s = read_density(path)
        assert s == 0.375
        assert loaded.same_spec(grid)
        assert np.allclose(loaded.P, grid.P, rtol=1e-15, atol=0.0)
