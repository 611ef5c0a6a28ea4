"""Tests for the momentum-space density evolution."""

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

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_step_bound_shares_the_first_stage_fields(self, monkeypatch, multiplicative):
        # the CFL bound reads the drift (and coupling) that k1 uses, so an
        # RK2 step evaluates each field once per stage
        import tribody.fokker_planck as fp

        calls = {}

        def counted(name):
            fn = getattr(fp, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("drift", "diffusion", "fpe_rhs", "_stable_ds"):
            monkeypatch.setattr(fp, name, counted(name))
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.05, schedule=sched, multiplicative=multiplicative)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0] * 3, 0.2)
        fp.fpe_evolve(grid, (0.0, 0.2), cfg, snapshot_s=(0.1,))
        steps = calls["_stable_ds"]
        assert steps > 2
        assert calls["fpe_rhs"] == 2 * steps
        assert calls["drift"] == 2 * steps
        assert calls.get("diffusion", 0) == (2 * steps if multiplicative else 0)

    @pytest.mark.parametrize("multiplicative", [False, True])
    def test_rhs_with_given_fields_matches_own(self, multiplicative):
        from tribody.fokker_planck import _fields

        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2)
        cfg = FpeConfig(epsilon=0.01, schedule=sched, multiplicative=multiplicative)
        grid = gaussian_grid([-1] * 3, [1] * 3, (12, 12, 12), [0.1] * 3, 0.2)
        coeffs = sched.at(0.0)
        given = fpe_rhs(grid, coeffs, cfg, fields=_fields(grid.mesh(), coeffs, cfg))
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
