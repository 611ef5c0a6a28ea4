import os
import sys
import threading
import warnings

import numpy as np
import pytest

from tribody import (
    CoefficientSchedule,
    ConfigError,
    DomainError,
    EnergySurface,
    GeodesicState,
    Masses,
    MorsePotential,
    NoiseModel,
    diffusion,
    drift,
    integrate,
    momentum_rhs,
    run_ensemble,
    white_noise_increments,
)
from tribody.langevin import CHUNK


def philox(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def chunk_stream(seed, chunk=0, step=0):
    """The noise stream of one chunk of paths at one ensemble step."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, chunk, step))))


def use_cpus(monkeypatch, n):
    """Make the ensemble see n CPUs available to the process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def stepped(xi, ds, mode, coeffs, dW):
    """The ensemble kernel's step of a copy of xi; dW is left as it is."""
    from tribody.langevin import _step

    xi = np.array(xi, dtype=float)
    _step(xi, ds, mode, coeffs, np.array(dW, dtype=float), [np.empty_like(xi) for _ in range(3)])
    return xi


def matrix_form_heun(xi, ds, coeffs, dW):
    """Stratonovich Heun step of a batch with the coupling matrix written out."""
    a_p = drift(xi, coeffs)
    b_p = diffusion(xi, coeffs[1])
    xi_star = xi + a_p * ds + np.einsum("nij,nj->ni", b_p, dW)
    b_s = diffusion(xi_star, coeffs[1])
    return xi + 0.5 * (a_p + drift(xi_star, coeffs)) * ds \
        + 0.5 * np.einsum("nij,nj->ni", b_p + b_s, dW)


class TestNoiseModel:
    def test_scalar_expands_to_diagonal(self):
        nm = NoiseModel(epsilon=0.5)
        assert np.allclose(nm.epsilon, 0.5 * np.eye(3))

    def test_non_psd_rejected(self):
        with pytest.raises(ConfigError):
            NoiseModel(epsilon=np.diag([1.0, -1.0, 1.0]))

    def test_asymmetric_rejected(self):
        eps = np.eye(3)
        eps[0, 1] = 0.1
        with pytest.raises(ConfigError):
            NoiseModel(epsilon=eps)

    def test_seed_must_fit_one_key_word(self):
        # the seed is one word of the SeedSequence entropy (seed, chunk,
        # step), kept to one unsigned 64-bit word
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed"):
                NoiseModel(epsilon=0.01, seed=seed)
        NoiseModel(epsilon=0.01, seed=2**64 - 1)


class TestWhiteNoise:
    def test_zero_epsilon_exact_zero(self):
        out = white_noise_increments(0.01, NoiseModel(epsilon=0.0), philox(), n=4)
        assert np.array_equal(out, np.zeros((4, 3)))

    def test_variance_calibration(self):
        # <dW_i^2> = 2*eps*ds: eps = 0.5, ds = 0.01 -> 0.01 per component
        nm = NoiseModel(epsilon=0.5)
        draws = white_noise_increments(0.01, nm, philox(7), n=1_000_000)
        var = draws.var(axis=0)
        assert np.all(np.abs(var - 0.01) < 0.0001)
        assert np.all(np.abs(draws.mean(axis=0)) < 5e-4)

    def test_full_matrix_covariance(self):
        eps = np.array([[0.5, 0.2, 0.0], [0.2, 0.4, 0.1], [0.0, 0.1, 0.3]])
        nm = NoiseModel(epsilon=eps)
        draws = white_noise_increments(0.05, nm, philox(3), n=500_000)
        cov = np.cov(draws.T)
        assert np.allclose(cov, 2 * eps * 0.05, rtol=0.02, atol=2e-4)

    def test_seed_determinism(self):
        nm = NoiseModel(epsilon=1.0, seed=42)
        a = white_noise_increments(0.1, nm, philox(42), n=100)
        b = white_noise_increments(0.1, nm, philox(42), n=100)
        assert np.array_equal(a, b)

    def test_invalid_ds(self):
        with pytest.raises(DomainError):
            white_noise_increments(0.0, NoiseModel(epsilon=1.0), philox(), n=1)

    @pytest.mark.parametrize("eps", [0.0, 0.5, [[0.5, 0.2, 0.0], [0.2, 0.4, 0.1], [0.0, 0.1, 0.3]]])
    def test_draw_into_out_is_the_same_draw(self, eps):
        nm = NoiseModel(epsilon=eps, seed=6)
        out = np.full((7, 3), np.nan)
        assert white_noise_increments(0.02, nm, philox(6), n=7, out=out) is out
        assert np.array_equal(out, white_noise_increments(0.02, nm, philox(6), n=7))
        # the scale matrix is formed once per model
        assert nm.scale_matrix() is nm.scale_matrix()

    @pytest.mark.parametrize("eps", [[0.5, 0.02, 0.3], [[0.5, 0.2, 0.0], [0.2, 0.4, 0.1], [0.0, 0.1, 0.3]]])
    def test_columnwise_scaling_is_the_broadcast_product(self, eps):
        # a non-uniform diagonal and a full eps: scaling column by column
        # gives the broadcast product's bits
        nm = NoiseModel(epsilon=np.diag(eps) if np.ndim(eps) == 1 else eps, seed=2)
        ds, n = 0.013, 1000
        z = philox(9).standard_normal((n, 3))
        scale = nm.scale_matrix() * np.sqrt(ds)
        diagonal = np.diagonal(scale)
        ref = z * diagonal
        for i, j in zip(*np.nonzero(scale - np.diag(diagonal))):
            ref[:, i] += scale[i, j] * z[:, j]
        assert np.array_equal(white_noise_increments(ds, nm, philox(9), n=n), ref)


class TestDriftDiffusion:
    def test_zero_coefficients(self):
        xi = np.array([0.4, -0.2, 1.1])
        assert np.allclose(drift(xi, (np.zeros(3), 0.0)), 0.0)

    def test_row_substitution(self):
        out = drift(np.array([1.0, 0, 0]), (np.array([1.0, 0, 0]), 0.0))
        assert np.allclose(out, [1.0, 0, 0])

    def test_drift_equals_geodesic_momentum_rhs(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            xi = rng.standard_normal(3)
            a = rng.standard_normal(3)
            lam2 = rng.uniform(0, 3)
            assert np.max(np.abs(drift(xi, (a, lam2)) - momentum_rhs(xi, a, lam2))) < 1e-14

    def test_diffusion_trivial_cases(self):
        B = diffusion(np.array([1.0, 0, 0]), 0.0)
        assert np.allclose(B, np.diag([1.0, -1.0, -1.0]))
        B = diffusion(np.zeros(3), 1.0)
        assert np.allclose(B, -np.eye(3))

    def test_diffusion_offdiagonal_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            xi = rng.standard_normal(3)
            B = diffusion(xi, rng.uniform(0, 2))
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert B[i, j] == pytest.approx(2 * xi[i] * xi[j], rel=1e-14)
                        assert B[i, j] == B[j, i]

    def test_drift_is_diffusion_contracted_with_a(self):
        # A(xi) = B(xi) . a_bar: the noise enters exactly along the drift rows
        rng = np.random.default_rng(12)
        for _ in range(300):
            xi = rng.standard_normal(3)
            a = rng.standard_normal(3)
            lam2 = rng.uniform(0, 3)
            assert np.allclose(diffusion(xi, lam2) @ a, drift(xi, (a, lam2)),
                               rtol=1e-13, atol=1e-13)
        # batched (..., 3) states and coefficients, one Lambda^2 per point
        xi = rng.standard_normal((4, 5, 3))
        a = rng.standard_normal((4, 5, 3))
        lam2 = rng.uniform(0, 3, (4, 5))
        B = np.stack([diffusion(xi[i, j], lam2[i, j]) for i in range(4) for j in range(5)])
        assert np.allclose(diffusion(xi, lam2), B.reshape(4, 5, 3, 3), rtol=1e-15, atol=0)
        assert np.allclose(np.einsum("...ij,...j->...i", diffusion(xi, lam2), a),
                           drift(xi, (a, lam2)), rtol=1e-13, atol=1e-13)


def one_step(xi0, ds, mode, coeffs, noise, n_traj=1):
    """One ensemble step of ds from s = 0 on constant coefficients."""
    sched = CoefficientSchedule.constant(coeffs[0], coeffs[1], (0.0, ds))
    return run_ensemble(n_traj, sched, xi0, ds, mode, noise).xi_final


class TestSdeStep:
    def test_zero_noise_additive_is_euler(self):
        coeffs = (np.array([0.3, -0.2, 0.1]), 0.5)
        xi0 = np.array([0.4, 0.1, -0.3])
        out = one_step(xi0, 0.01, "additive", coeffs, NoiseModel(epsilon=0.0))
        euler = xi0 + drift(xi0, coeffs) * 0.01
        assert np.allclose(out[0], euler, atol=1e-15)

    def test_zero_noise_multiplicative_is_heun(self):
        coeffs = (np.array([0.3, -0.2, 0.1]), 0.5)
        xi0 = np.array([0.4, 0.1, -0.3])
        out = one_step(xi0, 0.01, "multiplicative", coeffs, NoiseModel(epsilon=0.0))
        pred = xi0 + drift(xi0, coeffs) * 0.01
        heun = xi0 + 0.005 * (drift(xi0, coeffs) + drift(pred, coeffs))
        assert np.allclose(out[0], heun, atol=1e-15)

    def test_pure_brownian_variance(self):
        # one path, zero drift: each of its 20000 steps adds one increment
        # of variance 2*eps*ds = 0.002 per component
        ds, n = 0.02, 20000
        sched = CoefficientSchedule.constant(np.zeros(3), 0.0, (0.0, n * ds))
        res = run_ensemble(1, sched, np.zeros(3), ds, "additive",
                           NoiseModel(epsilon=0.05, seed=11), snapshot_s=ds * np.arange(1, n + 1))
        assert res.meta["n_steps"] == n
        path = np.concatenate([np.zeros((1, 3))] + [xi for _, xi in res.snapshots])
        assert np.allclose(np.diff(path, axis=0).var(axis=0), 0.002, rtol=0.05)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            one_step(np.zeros(3), 0.01, "milstein", (np.zeros(3), 0.0), NoiseModel(epsilon=0.0))

    def test_multiplicative_strong_convergence(self):
        # frozen coefficients, common Brownian increments across resolutions:
        # the pathwise endpoint error against a fine reference shrinks with ds
        coeffs = (np.array([0.2, -0.1, 0.1]), 0.3)
        nm = NoiseModel(epsilon=0.01)
        span, ds_ref = 0.04, 1e-5
        n_ref = int(round(span / ds_ref))
        n_paths = 400
        rng = philox(99)
        scale = nm.scale_matrix()
        dW_fine = rng.standard_normal((n_paths, n_ref, 3)) @ scale.T * np.sqrt(ds_ref)

        def heun_run(dW, ds):
            xi = np.tile([0.3, 0.2, -0.1], (n_paths, 1))
            for k in range(dW.shape[1]):
                xi = matrix_form_heun(xi, ds, coeffs, dW[:, k])
            return xi

        ref = heun_run(dW_fine, ds_ref)
        errs = []
        for ds in (0.004, 0.002, 0.001):
            m = int(round(ds / ds_ref))
            dW = dW_fine.reshape(n_paths, -1, m, 3).sum(axis=2)
            err = np.linalg.norm(heun_run(dW, ds) - ref, axis=1).mean()
            errs.append(err)
        assert errs[1] < errs[0]
        assert errs[2] < errs[1]
        assert errs[2] < 0.75 * errs[0]


def morse_schedule():
    m = Masses(1.0, 1.0, 1.0)
    pot = MorsePotential(m, D=1.0, alpha=1.0, d0=2.0)
    surf = EnergySurface(E=1.0, U0=3.0, potential=pot)
    traj = integrate(GeodesicState(x=[2.0, 3.0, 3.5], xi=[0.1, -0.2, 0.05]),
                     surf, J=(0.1, 0.0, 0.0), s_end=2.0, tol=1e-10, n_samples=256)
    return traj, CoefficientSchedule.from_trajectory(traj)


class TestRunEnsemble:
    def test_zero_paths_rejected(self):
        _, sched = morse_schedule()
        with pytest.raises(DomainError):
            run_ensemble(0, sched, [0.1, 0, 0], 0.01, "additive", NoiseModel(epsilon=0.0))

    def test_zero_noise_matches_deterministic(self):
        traj, sched = morse_schedule()
        for mode in ("additive", "multiplicative"):
            res = run_ensemble(8, sched, traj.xi[0], 0.0005, mode, NoiseModel(epsilon=0.0))
            assert np.all(res.xi_final == res.xi_final[0])
            assert np.allclose(res.xi_final[0], traj.xi[-1], atol=5e-3)

    def test_same_seed_bit_identical(self):
        _, sched = morse_schedule()
        nm = NoiseModel(epsilon=0.01, seed=1234)
        a = run_ensemble(64, sched, [0.1, -0.2, 0.05], 0.002, "additive", nm,
                         snapshot_s=[1.0])
        b = run_ensemble(64, sched, [0.1, -0.2, 0.05], 0.002, "additive", nm,
                         snapshot_s=[1.0])
        assert np.array_equal(a.xi_final, b.xi_final)
        assert np.array_equal(a.snapshots[0][1], b.snapshots[0][1])

    def test_epsilon_sweep_approaches_deterministic(self):
        traj, sched = morse_schedule()
        det = run_ensemble(1, sched, traj.xi[0], 0.001, "additive", NoiseModel(epsilon=0.0))
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            res = run_ensemble(5000, sched, traj.xi[0], 0.001, "additive",
                               NoiseModel(epsilon=eps, seed=5))
            mean = np.nanmean(res.xi_final, axis=0)
            errs.append(np.linalg.norm(mean - det.xi_final[0]))
        assert errs[2] < errs[1] < errs[0]

    def test_span_past_schedule_rejected(self):
        # the schedule ends at s = 2; a longer span must not hold the last
        # coefficients silently
        traj, sched = morse_schedule()
        for span in ((0.0, 2.5), (-0.1, 1.0)):
            with pytest.raises(DomainError):
                run_ensemble(4, sched, traj.xi[0], 0.01, "additive",
                             NoiseModel(epsilon=0.0), s_span=span)

    def test_snapshot_times_outside_span_rejected(self):
        _, sched = morse_schedule()
        for snaps in ([0.0, 1.0], [1.0, 2.5], [-0.5]):
            with pytest.raises(DomainError):
                run_ensemble(4, sched, [0.1, -0.2, 0.05], 0.01, "additive",
                             NoiseModel(epsilon=0.0), snapshot_s=snaps)

    def test_blowup_recorded_not_fatal(self):
        # enormous coefficients drive the quadratic drift to overflow
        sched = CoefficientSchedule.constant([50.0, 50.0, 50.0], 0.0, (0.0, 2.0))
        res = run_ensemble(4, sched, [5.0, 5.0, 5.0], 0.05, "additive",
                           NoiseModel(epsilon=0.0))
        assert len(res.blowups) == 4
        assert np.all(np.isnan(res.xi_final))


    def test_last_step_shortened_to_end_of_span(self):
        # ds = 0.3 does not divide [0, 1]: three steps of 0.3, one of 0.1
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2, (0.0, 1.0))
        xi0 = np.array([0.1, -0.2, 0.05])
        res = run_ensemble(4, sched, xi0, 0.3, "additive", NoiseModel(epsilon=0.0),
                           snapshot_s=[0.6, 1.0])
        assert res.s_final == 1.0
        assert res.meta["n_steps"] == 4
        xi = xi0
        for h in (0.3, 0.3, 0.3, 1.0 - 3 * 0.3):
            xi = xi + drift(xi, sched.at(0.0)) * h
        assert np.array_equal(res.xi_final, np.broadcast_to(xi, (4, 3)))
        assert [s for s, _ in res.snapshots] == [0.6, 1.0]
        assert np.array_equal(res.snapshots[1][1], res.xi_final)
        noisy = run_ensemble(4, sched, xi0, 0.3, "additive", NoiseModel(epsilon=0.01, seed=2),
                             snapshot_s=[1.0])
        assert noisy.s_final == 1.0
        assert np.array_equal(noisy.snapshots[0][1], noisy.xi_final)

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_snapshot_off_the_grid_is_taken_at_its_time(self, mode):
        # ds = 0.3: the step from 0.3 to 0.6 is cut at 0.5, so the snapshot
        # labelled 0.5 is the state at 0.5, the end of a run over (0, 0.5)
        _, sched = morse_schedule()
        nm = NoiseModel(epsilon=0.01, seed=9)
        xi0 = np.array([0.1, -0.2, 0.05])
        res = run_ensemble(8, sched, xi0, 0.3, mode, nm, s_span=(0.0, 1.0),
                           snapshot_s=[0.5, 0.6])
        alone = run_ensemble(8, sched, xi0, 0.3, mode, nm, s_span=(0.0, 0.5))
        assert alone.s_final == 0.5
        assert [s for s, _ in res.snapshots] == [0.5, 0.6]
        assert np.array_equal(res.snapshots[0][1], alone.xi_final)
        # the grid stays anchored at s0: 0.3, 0.5, 0.6, 0.9, 1.0
        assert res.meta["n_steps"] == 5
        assert res.s_final == 1.0

    def test_snapshots_on_the_grid_leave_every_step_ds(self):
        # 0.35 / 0.002 is 174.99999999999997 in floating point: on the grid
        _, sched = morse_schedule()
        nm = NoiseModel(epsilon=0.01, seed=4)
        xi0 = np.array([0.1, -0.2, 0.05])
        plain = run_ensemble(16, sched, xi0, 0.002, "additive", nm, s_span=(0.0, 0.5))
        snaps = run_ensemble(16, sched, xi0, 0.002, "additive", nm, s_span=(0.0, 0.5),
                             snapshot_s=[0.5 * 0.4, 0.5 * 0.7, 0.5])
        assert snaps.meta["n_steps"] == plain.meta["n_steps"] == 250
        assert snaps.s_final == plain.s_final
        assert np.array_equal(snaps.xi_final, plain.xi_final)
        assert np.array_equal(snaps.snapshots[-1][1], plain.xi_final)
        upto = run_ensemble(16, sched, xi0, 0.002, "additive", nm, s_span=(0.0, 0.5 * 0.7))
        assert upto.meta["n_steps"] == 175
        assert np.array_equal(snaps.snapshots[1][1], upto.xi_final)

    def test_steps_stay_ds_when_ds_divides_span(self):
        # 0.7 / 0.1 is 6.999999999999999 in floating point: still 7 steps of ds
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2, (0.0, 1.0))
        res = run_ensemble(2, sched, [0.1, -0.2, 0.05], 0.1, "additive",
                           NoiseModel(epsilon=0.0), s_span=(0.0, 0.7))
        assert res.meta["n_steps"] == 7
        assert res.s_final == 7 * 0.1

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_partial_blowup_freezes_only_those_paths(self, mode):
        # zero noise: rows 1 and 3 overflow at different steps, the rest stay finite
        sched = CoefficientSchedule.constant([1.0, 0.5, -0.5], 0.1, (0.0, 2.0))
        xi0 = np.array([[0.1, -0.2, 0.05], [30.0, 15.0, -15.0], [0.2, 0.1, 0.0],
                        [3.0, 1.5, -1.5], [-0.3, 0.1, 0.2], [-30.0, -15.0, 15.0]])
        nm = NoiseModel(epsilon=0.0)
        res = run_ensemble(len(xi0), sched, xi0, 0.01, mode, nm, snapshot_s=[1.0])
        assert sorted(res.blowups) == [1, 3]
        for p in (1, 3):
            alone = run_ensemble(1, sched, xi0[p], 0.01, mode, nm)
            assert res.blowups[p] == alone.blowups[0]
        assert res.blowups[1] < res.blowups[3]
        assert np.all(np.isnan(res.xi_final[[1, 3]]))
        survivors = [0, 2, 4, 5]
        alone = run_ensemble(len(survivors), sched, xi0[survivors], 0.01, mode, nm,
                             snapshot_s=[1.0])
        assert not alone.blowups
        assert np.array_equal(res.xi_final[survivors], alone.xi_final)
        assert np.array_equal(res.snapshots[0][1][survivors], alone.snapshots[0][1])


class TestOneStepKernel:
    def test_multiplicative_forcing_is_added_column_by_column(self):
        # the forcing a ds + dW of the Heun stages, as the broadcast sum
        rng = np.random.default_rng(43)
        xi, dW = rng.standard_normal((50, 3)), 0.1 * rng.standard_normal((50, 3))
        coeffs, ds = (np.array([0.3, -1.7, 0.05]), 0.4), 0.011
        forcing = (dW + coeffs[0] * ds, coeffs[1])
        k = drift(xi, forcing)
        ref = xi + 0.5 * (k + drift(xi + k, forcing))
        assert np.array_equal(stepped(xi, ds, "multiplicative", coeffs, dW), ref)

    def test_multiplicative_step_is_matrix_form_heun(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            xi = rng.standard_normal((64, 3))
            dW = 0.1 * rng.standard_normal((64, 3))
            coeffs = (rng.standard_normal(3), rng.uniform(0, 2))
            ds = rng.uniform(1e-3, 2e-2)
            ref = matrix_form_heun(xi, ds, coeffs, dW)
            out = stepped(xi, ds, "multiplicative", coeffs, dW)
            assert np.allclose(out, ref, rtol=1e-14, atol=1e-15 * np.abs(ref).max())

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_one_path_step_is_the_kernel_at_the_step_start(self, mode):
        # a trajectory schedule, so coefficients change within the step
        _, sched = morse_schedule()
        eps = np.array([[0.02, 0.005, 0.0], [0.005, 0.01, 0.002], [0.0, 0.002, 0.015]])
        nm = NoiseModel(epsilon=eps, seed=31)
        xi0, ds, s0 = np.array([0.1, -0.2, 0.05]), 0.01, float(sched.s[0])
        res = run_ensemble(1, sched, xi0, ds, mode, nm, s_span=(s0, s0 + ds))
        dW = white_noise_increments(ds, nm, chunk_stream(31), n=1)
        assert np.array_equal(res.xi_final, stepped(xi0[None, :], ds, mode, sched.at(s0), dW))

    def test_ensemble_draws_white_noise_increments(self):
        # zero drift from the origin: one step leaves exactly the increment
        eps = np.array([[0.5, 0.2, 0.0], [0.2, 0.4, 0.1], [0.0, 0.1, 0.3]])
        nm = NoiseModel(epsilon=eps, seed=8)
        sched = CoefficientSchedule.constant(np.zeros(3), 0.0, (0.0, 0.02))
        res = run_ensemble(16, sched, np.zeros(3), 0.01, "additive", nm, s_span=(0.0, 0.01))
        assert np.array_equal(res.xi_final, white_noise_increments(0.01, nm, chunk_stream(8), n=16))
        # chunk c at step k draws from its own stream: two chunks, two steps
        n = CHUNK + 16
        res = run_ensemble(n, sched, np.zeros(3), 0.01, "additive", nm)
        for c, rows in ((0, CHUNK), (1, 16)):
            steps = [white_noise_increments(0.01, nm, chunk_stream(8, c, k), n=rows)
                     for k in (0, 1)]
            assert np.array_equal(res.xi_final[c * CHUNK:c * CHUNK + rows], steps[0] + steps[1])


    def test_streams_of_many_chunks_have_the_noise_covariance(self):
        # zero drift from the origin, one step over six chunks: the rows are
        # the increments, with covariance 2 eps ds, and the streams of two
        # chunks are uncorrelated
        eps = np.array([[0.5, 0.2, 0.0], [0.2, 0.4, 0.1], [0.0, 0.1, 0.3]])
        nm = NoiseModel(epsilon=eps, seed=19)
        sched = CoefficientSchedule.constant(np.zeros(3), 0.0, (0.0, 0.01))
        n = 6 * CHUNK
        res = run_ensemble(n, sched, np.zeros(3), 0.01, "additive", nm)
        expect = 2 * eps * 0.01
        # five standard errors of each sample covariance entry
        se = np.sqrt((np.outer(np.diagonal(expect), np.diagonal(expect)) + expect**2) / n)
        assert np.all(np.abs(np.cov(res.xi_final.T) - expect) < 5 * se)
        first, second = res.xi_final[:CHUNK], res.xi_final[CHUNK:2 * CHUNK]
        cross = np.corrcoef(first.T, second.T)[:3, 3:]
        assert np.all(np.abs(cross) < 4 / np.sqrt(CHUNK))


class TestChunkedEnsemble:
    """Paths are stepped in chunks of CHUNK, each chunk with its own
    counter-keyed noise stream, on one worker thread per CPU."""

    EPS = np.array([[0.02, 0.005, 0.0], [0.005, 0.01, 0.002], [0.0, 0.002, 0.015]])

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_path_does_not_depend_on_n_traj(self, mode):
        # 40000 paths span 3 chunks, the last one short; 32769 paths leave
        # path 32768 alone in its chunk
        _, sched = morse_schedule()
        nm = NoiseModel(epsilon=self.EPS, seed=17)
        xi0 = np.array([0.1, -0.2, 0.05]) + 0.05 * philox(3).standard_normal((40000, 3))

        def run(n):
            return run_ensemble(n, sched, xi0[:n], 0.01, mode, nm, s_span=(0.0, 0.2),
                                snapshot_s=[0.1, 0.15])

        big = run(40000)
        assert 32768 == 2 * CHUNK < 40000 < 3 * CHUNK
        for small, paths in ((run(10), slice(0, 10)), (run(32769), slice(0, 32769))):
            assert np.array_equal(small.xi_final, big.xi_final[paths])
            for (s_a, a), (s_b, b) in zip(small.snapshots, big.snapshots):
                assert s_a == s_b
                assert np.array_equal(a, b[paths])

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_one_two_and_three_workers_agree(self, mode, monkeypatch):
        # three workers are more threads than a 2-CPU host has; a short
        # switch interval makes the threads interleave within a step
        from tribody import langevin

        _, sched = morse_schedule()
        nm = NoiseModel(epsilon=self.EPS, seed=23)
        xi0 = np.array([0.1, -0.2, 0.05]) + 0.05 * philox(4).standard_normal((2 * CHUNK + 5, 3))
        step, threads = langevin._step, set()

        def recorded_step(*args):
            threads.add(threading.get_ident())
            return step(*args)

        monkeypatch.setattr(langevin, "_step", recorded_step)
        monkeypatch.setattr(langevin, "MAX_WORKERS", 3)
        runs = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3):
                use_cpus(monkeypatch, cpus)
                threads.clear()
                runs[cpus] = run_ensemble(len(xi0), sched, xi0, 0.01, mode, nm,
                                          s_span=(0.0, 0.1), snapshot_s=[0.05])
                assert len(threads) == cpus
                # one CPU: the chunks are stepped inline, in the calling thread
                assert cpus > 1 or threads == {threading.get_ident()}
        finally:
            sys.setswitchinterval(interval)
        for cpus in (2, 3):
            assert np.array_equal(runs[1].xi_final, runs[cpus].xi_final)
            assert np.array_equal(runs[1].snapshots[0][1], runs[cpus].snapshots[0][1])
            assert runs[1].meta == runs[cpus].meta

    def test_worker_count(self, monkeypatch):
        from tribody import langevin

        use_cpus(monkeypatch, 64)
        assert langevin._worker_count(1) == 1
        assert langevin._worker_count(1000) == langevin.MAX_WORKERS == 2
        monkeypatch.setattr(langevin, "MAX_WORKERS", 8)
        assert langevin._worker_count(3) == 3
        assert langevin._worker_count(1000) == 8
        use_cpus(monkeypatch, 1)
        assert langevin._worker_count(1000) == 1

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_blowups_across_chunks(self, mode, monkeypatch):
        # zero noise; path CHUNK + 1 (chunk 1) overflows before path 1
        # (chunk 0), and paths 3 and CHUNK + 3 overflow at the same step
        sched = CoefficientSchedule.constant([1.0, 0.5, -0.5], 0.1, (0.0, 2.0))
        nm = NoiseModel(epsilon=0.0)
        xi0 = np.tile([0.1, -0.2, 0.05], (CHUNK + 8, 1))
        fast, slow = np.array([30.0, 15.0, -15.0]), np.array([3.0, 1.5, -1.5])
        xi0[[CHUNK + 1, 3, CHUNK + 3]] = fast
        xi0[1] = slow
        t_fast = run_ensemble(1, sched, fast, 0.01, mode, nm).blowups[0]
        t_slow = run_ensemble(1, sched, slow, 0.01, mode, nm).blowups[0]
        assert t_fast < t_slow
        use_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = run_ensemble(len(xi0), sched, xi0, 0.01, mode, nm, snapshot_s=[t_fast])
        assert list(res.blowups.items()) == [(3, t_fast), (CHUNK + 1, t_fast),
                                             (CHUNK + 3, t_fast), (1, t_slow)]
        # a path is frozen as a row of NaN at the step it blows up
        at_fast = res.snapshots[0][1]
        assert np.all(np.isnan(at_fast[[3, CHUNK + 1, CHUNK + 3]]))
        assert np.isfinite(np.delete(at_fast, [3, CHUNK + 1, CHUNK + 3], axis=0)).all()
        assert np.all(np.isnan(res.xi_final[[1, 3, CHUNK + 1, CHUNK + 3]]))
        assert np.isfinite(np.delete(res.xi_final, [1, 3, CHUNK + 1, CHUNK + 3], axis=0)).all()
        use_cpus(monkeypatch, 1)
        assert list(run_ensemble(len(xi0), sched, xi0, 0.01, mode, nm).blowups.items()) \
            == list(res.blowups.items())

    def test_worker_exception_propagates(self, monkeypatch):
        from tribody import langevin

        step = langevin._step

        def failing_step(xi, *args):
            if len(xi) < CHUNK:
                raise FloatingPointError("in the short chunk")
            return step(xi, *args)

        monkeypatch.setattr(langevin, "_step", failing_step)
        use_cpus(monkeypatch, 2)
        sched = CoefficientSchedule.constant(np.zeros(3), 0.0, (0.0, 0.05))
        with pytest.raises(FloatingPointError, match="short chunk"):
            run_ensemble(CHUNK + 1, sched, np.zeros(3), 0.01, "additive",
                         NoiseModel(epsilon=0.01))
