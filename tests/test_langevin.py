import mmap
import os
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from tribody import (
    CoefficientSchedule,
    ConfigError,
    DomainError,
    EnergySurface,
    FpeConfig,
    GeodesicState,
    Masses,
    MorsePotential,
    NoiseModel,
    diffusion,
    drift,
    integrate,
    momentum_rhs,
    run_ensemble,
    two_point_increments,
)
from tribody import langevin
from tribody.langevin import CHUNK, _increment_scale, _step, _step_plan


def philox(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def chunk_stream(seed, chunk=0, step=0):
    """The noise stream of one chunk of paths at one ensemble step."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, chunk, step))))


def white_noise_increments(ds, nm, rng, n, out=None):
    """Gaussian increments with covariance 2*eps*ds, the oracle of the
    two-point law: row r is the r-th triple of normals that rng draws,
    scaled as the ensemble scales its two-point signs.  Written to out
    (a C-contiguous (n, 3) float array) when it is given."""
    if not ds > 0.0:
        raise DomainError(f"ds must be positive, got {ds}")
    out = np.empty((n, 3)) if out is None else out
    scale = _increment_scale(nm, ds)
    if scale is None:
        out.fill(0.0)
        return out
    rng.standard_normal(out=out)
    out *= scale
    return out


def two_point_stream(nm, ds, seed, chunk=0, step=0, rows=1):
    """The ensemble's increments for one chunk of rows paths at
    one step of ds: sqrt(2 eps) sqrt(ds) z, where z of path r on axis i is
    +1 if bit 3r + i of the chunk-step stream's raw 64-bit words is set,
    else -1, bits counted from the least significant of the first word."""
    bits = np.random.SFC64(np.random.SeedSequence((seed, chunk, step))).random_raw(
        -(-3 * rows // 64))[:, None] >> np.arange(64, dtype=np.uint64) & np.uint64(1)
    z = np.where(bits.ravel()[:3 * rows] == 1, 1.0, -1.0).reshape(rows, 3)
    return z * (np.sqrt(2.0 * nm.epsilon) * np.sqrt(ds))


def stepped(xi, ds, mode, coeffs, dW):
    """The ensemble kernel's step of a copy of xi, with the additive
    increments added after it as run_ensemble does; dW is left as it is."""
    xi = np.array(xi, dtype=float)
    _step(xi, ds, mode, coeffs, np.array(dW, dtype=float), [np.empty_like(xi) for _ in range(3)])
    if mode == "additive":
        xi += dW
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
    @pytest.mark.parametrize("epsilon, accepted", [
        (0, 0.0),
        (2, 2.0),
        (0.01, 0.01),
        ([0.01, 0.01, 0.01], None),
        (np.array(0.01), None),
        (np.diag([0.01, 0.01, 0.01]), None),
        (True, None),
        (float("nan"), None),
        (float("inf"), None),
        (float("-inf"), None),
        (-0.01, None),
    ], ids=["zero", "int", "float", "list", "array", "diagonal-3x3", "bool", "nan", "inf",
            "-inf", "negative"])
    @pytest.mark.parametrize("model", ["NoiseModel", "FpeConfig"])
    def test_noise_power_is_one_finite_number_at_least_zero(self, model, epsilon, accepted):
        # both solvers take the noise power as one number: a float, an int
        # or 0 is kept as a float, anything else is a config error
        def make():
            if model == "NoiseModel":
                return NoiseModel(epsilon=epsilon)
            sched = CoefficientSchedule.constant(np.zeros(3), 0.0)
            return FpeConfig(epsilon=epsilon, schedule=sched)
        if accepted is None:
            with pytest.raises(ConfigError, match="epsilon"):
                make()
        else:
            eps = make().epsilon
            assert type(eps) is float and eps == accepted

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

    def test_seed_determinism(self):
        nm = NoiseModel(epsilon=1.0, seed=42)
        a = white_noise_increments(0.1, nm, philox(42), n=100)
        b = white_noise_increments(0.1, nm, philox(42), n=100)
        assert np.array_equal(a, b)

    def test_invalid_ds(self):
        with pytest.raises(DomainError):
            white_noise_increments(0.0, NoiseModel(epsilon=1.0), philox(), n=1)

    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_draw_into_out_is_the_same_draw(self, eps):
        nm = NoiseModel(epsilon=eps, seed=6)
        out = np.full((7, 3), np.nan)
        assert white_noise_increments(0.02, nm, philox(6), n=7, out=out) is out
        assert np.array_equal(out, white_noise_increments(0.02, nm, philox(6), n=7))


class TestTwoPoint:
    EPS = 0.4

    @pytest.mark.parametrize("eps", [0.5, 0.02])
    def test_increments_are_the_signed_raw_bits(self, eps):
        # 37 rows take 111 bits, two words; the second is drawn whole
        nm = NoiseModel(epsilon=eps, seed=5)
        draws = two_point_increments(0.02, nm, chunk_stream(5, 3, 4), n=37)
        assert np.array_equal(draws, two_point_stream(nm, 0.02, 5, 3, 4, rows=37))
        # exactly +-sqrt(2 eps ds)
        c = np.sqrt(2.0 * eps * 0.02)
        assert np.all((draws == c) | (draws == -c))

    def test_short_draw_is_the_start_of_a_long_one(self):
        nm = NoiseModel(epsilon=self.EPS)
        short = two_point_increments(0.01, nm, chunk_stream(1), n=5)
        assert np.array_equal(short, two_point_increments(0.01, nm, chunk_stream(1), n=1000)[:5])

    @pytest.mark.parametrize("skip", [0, 1, 21, 22, 64, 1000])
    def test_skipped_rows_are_the_rows_of_a_longer_draw(self, skip):
        # rows [skip, skip + 40) of a draw of skip + 40 rows, bit for bit,
        # whether 3 skip falls on a word boundary (0, 64), just before or
        # after one (21, 22) or not near one
        scale = _increment_scale(NoiseModel(epsilon=self.EPS), 0.01)
        whole = langevin._two_point(chunk_stream(3, 1, 2), scale, np.empty((skip + 40, 3)))
        rows = langevin._two_point(chunk_stream(3, 1, 2), scale, np.empty((3, 40)).T, skip)
        assert np.array_equal(rows, whole[skip:])

    def test_covariance_and_moments(self):
        # mean 0, covariance 2 eps ds I, third moments 0: the moments that
        # give the simplified weak Euler scheme weak order 1
        n, ds = 500_000, 0.05
        draws = two_point_increments(ds, NoiseModel(epsilon=self.EPS), philox(3), n=n)
        expect = 2 * self.EPS * ds * np.eye(3)
        se = np.sqrt((np.outer(np.diagonal(expect), np.diagonal(expect)) + expect**2) / n)
        assert np.all(np.abs(np.cov(draws.T) - expect) < 5 * se)
        sd = np.sqrt(np.diagonal(expect))
        assert np.all(np.abs(draws.mean(axis=0)) < 5 * sd / np.sqrt(n))
        third = np.einsum("ni,nj,nk->ijk", draws, draws, draws) / n
        assert np.all(np.abs(third) < 5 * np.sqrt(15 / n) * np.multiply.outer(np.outer(sd, sd), sd))

    def test_zero_epsilon_exact_zero(self):
        out = two_point_increments(0.01, NoiseModel(epsilon=0.0), philox(), n=4)
        assert np.array_equal(out, np.zeros((4, 3)))

    def test_invalid_ds(self):
        with pytest.raises(DomainError):
            two_point_increments(0.0, NoiseModel(epsilon=1.0), philox(), n=1)


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
        dW_fine = rng.standard_normal((n_paths, n_ref, 3)) * np.sqrt(2.0 * nm.epsilon) \
            * np.sqrt(ds_ref)

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

    def test_final_state_is_the_last_snapshot_when_that_is_the_end(self):
        # a snapshot at the end of the span is the final state's array, not
        # a second copy; without one the final state has its own array
        sched = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2, (0.0, 1.0))
        nm = NoiseModel(epsilon=0.01, seed=2)
        at_end = run_ensemble(6, sched, [0.1, -0.2, 0.05], 0.3, "additive", nm,
                              snapshot_s=[0.6, 1.0])
        assert np.shares_memory(at_end.snapshots[-1][1], at_end.xi_final)
        before = run_ensemble(6, sched, [0.1, -0.2, 0.05], 0.3, "additive", nm,
                              snapshot_s=[0.6])
        assert not np.shares_memory(before.snapshots[-1][1], before.xi_final)
        assert np.array_equal(before.xi_final, at_end.xi_final)
        assert np.array_equal(before.snapshots[0][1], at_end.snapshots[0][1])

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

    @pytest.mark.parametrize("ds, span, snapshot_s", [
        (0.3, (0.0, 1.0), [0.5, 0.6]),             # a cut at 0.5, a short last step
        (0.002, (0.1, 1.7371), [0.1234, 1.0]),     # off-grid and on-grid snapshots
    ])
    def test_plan_has_the_schedule_coefficients_at_every_step_start(self, ds, span, snapshot_s):
        # the plan interpolates all step starts at once; each step's
        # coefficients are those schedule.at gives there, bit for bit, and
        # its scale that of _increment_scale for its length
        _, sched = morse_schedule()
        nm = NoiseModel(epsilon=0.01, seed=3)
        plan, times, s_final = _step_plan(sched, nm, *span, ds, snapshot_s)
        assert times == snapshot_s and s_final == span[1]
        starts = [start for start, _, _, _, _ in plan]
        assert starts[0] == span[0] and starts == sorted(set(starts))
        # cut steps are among them
        assert len({h for _, h, _, _, _ in plan}) > 1
        for start, h, (a, lam_sq), _, scale in plan:
            a_at, lam_at = sched.at(start)
            assert a.tobytes() == a_at.tobytes()
            assert type(lam_sq) is float and lam_sq.hex() == lam_at.hex()
            assert scale == _increment_scale(nm, h) == np.sqrt(0.02) * np.sqrt(h)

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
        nm = NoiseModel(epsilon=0.015, seed=31)
        xi0, ds, s0 = np.array([0.1, -0.2, 0.05]), 0.01, float(sched.s[0])
        res = run_ensemble(1, sched, xi0, ds, mode, nm, s_span=(s0, s0 + ds))
        # both modes take two-point increments
        dW = two_point_stream(nm, ds, 31)
        assert np.array_equal(res.xi_final, stepped(xi0[None, :], ds, mode, sched.at(s0), dW))

    def test_ensemble_draws_white_noise_increments(self):
        # zero drift from the origin: one step leaves exactly the increment,
        # the additive law's two-point white noise
        nm = NoiseModel(epsilon=0.4, seed=8)
        sched = CoefficientSchedule.constant(np.zeros(3), 0.0, (0.0, 0.02))
        res = run_ensemble(16, sched, np.zeros(3), 0.01, "additive", nm, s_span=(0.0, 0.01))
        assert np.array_equal(res.xi_final, two_point_stream(nm, 0.01, 8, rows=16))
        # chunk c at step k draws from its own stream: two chunks, two steps
        n = CHUNK + 16
        res = run_ensemble(n, sched, np.zeros(3), 0.01, "additive", nm)
        for c, rows in ((0, CHUNK), (1, 16)):
            steps = [two_point_stream(nm, 0.01, 8, c, k, rows) for k in (0, 1)]
            assert np.array_equal(res.xi_final[c * CHUNK:c * CHUNK + rows], steps[0] + steps[1])
        # multiplicative mode draws the same increments into its Heun step:
        # a drift and a Lambda^2 of its own, two chunks, two steps
        coeffs, xi0 = (np.array([0.3, -0.2, 0.1]), 0.5), np.array([0.1, -0.2, 0.05])
        sched = CoefficientSchedule.constant(*coeffs, (0.0, 0.02))
        res = run_ensemble(n, sched, xi0, 0.01, "multiplicative", nm)
        for c, rows in ((0, CHUNK), (1, 16)):
            xi = np.tile(xi0, (rows, 1))
            for k in (0, 1):
                xi = stepped(xi, 0.01, "multiplicative", coeffs,
                             two_point_stream(nm, 0.01, 8, c, k, rows))
            assert np.array_equal(res.xi_final[c * CHUNK:c * CHUNK + rows], xi)

    def test_streams_of_many_chunks_have_the_noise_covariance(self):
        # zero drift from the origin, one step over six chunks: the rows are
        # the increments, with covariance 2 eps ds I, and the streams of two
        # chunks are uncorrelated
        eps = 0.4
        nm = NoiseModel(epsilon=eps, seed=19)
        sched = CoefficientSchedule.constant(np.zeros(3), 0.0, (0.0, 0.01))
        n = 6 * CHUNK
        res = run_ensemble(n, sched, np.zeros(3), 0.01, "additive", nm)
        expect = 2 * eps * 0.01 * np.eye(3)
        # five standard errors of each sample covariance entry
        se = np.sqrt((np.outer(np.diagonal(expect), np.diagonal(expect)) + expect**2) / n)
        assert np.all(np.abs(np.cov(res.xi_final.T) - expect) < 5 * se)
        first, second = res.xi_final[:CHUNK], res.xi_final[CHUNK:2 * CHUNK]
        cross = np.corrcoef(first.T, second.T)[:3, 3:]
        assert np.all(np.abs(cross) < 4 / np.sqrt(CHUNK))


class TestTwoPointEnsemble:
    def test_zero_drift_from_a_gaussian_start_is_the_heat_kernel(self):
        # a = 0, Lambda^2 = 0: the paths only diffuse, so from N(m, s0^2 I)
        # the law at s is the heat kernel N(m, (s0^2 + 2 eps s) I).  The
        # two-point sum of 250 steps lies within sampling error of it:
        # mean, per-axis variance and excess kurtosis (Gaussian: 0) within
        # 5 standard errors
        n, eps, ds, s, s0 = 100_000, 0.01, 0.002, 0.5, 0.1
        m = np.array([0.2, 0.1, -0.1])
        sched = CoefficientSchedule.constant(np.zeros(3), 0.0, (0.0, s))
        xi0 = m + s0 * philox(21).standard_normal((n, 3))
        res = run_ensemble(n, sched, xi0, ds, "additive", NoiseModel(epsilon=eps, seed=22))
        assert res.meta["increments"] == "two_point"
        xi, var = res.xi_final, s0**2 + 2 * eps * s
        assert np.all(np.abs(xi.mean(axis=0) - m) < 5 * np.sqrt(var / n))
        assert np.all(np.abs(xi.var(axis=0, ddof=1) - var) < 5 * var * np.sqrt(2 / (n - 1)))
        kurtosis = np.mean((xi - xi.mean(axis=0))**4, axis=0) / xi.var(axis=0)**2 - 3.0
        assert np.all(np.abs(kurtosis) < 5 * np.sqrt(24 / n))

    def test_heun_paths_have_the_law_of_gaussian_increments(self):
        # the weak-order oracle of the multiplicative ensemble: the same
        # start stepped by the same Heun kernel at the same ds, with
        # Gaussian increments instead, ends with the same per-axis mean and
        # variance, within 5 standard errors of their difference.  The
        # coupling B(xi) depends on the state, so over the span the noise
        # moves the mean along with the drift, by ~100 standard errors
        n, ds, steps = 100_000, 0.01, 50
        _, sched = morse_schedule()
        nm, xi0 = NoiseModel(epsilon=0.05, seed=2), np.array([0.4, -0.3, 0.2])
        res = run_ensemble(n, sched, xi0, ds, "multiplicative", nm, s_span=(0.0, steps * ds))
        assert res.meta["increments"] == "two_point" and not res.blowups
        # the ensemble's component-major layout, Gaussian increments row-major
        xi, *work = (np.empty((3, n)).T for _ in range(4))
        xi[...] = xi0
        rng, dW = philox(2), np.empty((n, 3))
        for k in range(steps):
            _step(xi, ds, "multiplicative", sched.at(k * ds),
                  white_noise_increments(ds, nm, rng, n, out=dW), work)
        va, vb = res.xi_final.var(axis=0, ddof=1), xi.var(axis=0, ddof=1)
        gap = np.abs(res.xi_final.mean(axis=0) - xi.mean(axis=0))
        assert np.all(gap < 5 * np.sqrt((va + vb) / n))
        assert np.all(np.abs(va - vb) < 5 * np.sqrt(2 / (n - 1) * (va**2 + vb**2)))


@pytest.fixture()
def forks(monkeypatch):
    """The workers forked since the test began, counted in a list of one."""
    count, fork = [0], os.fork

    def counted():
        pid = fork()
        if pid:
            count[0] += 1
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return count


def on_cpus(use_cpus, counts, *args, forks=None, **kwargs):
    """run_ensemble(*args, **kwargs) with each number of CPUs in counts
    usable by the process; the results must agree bit for bit, and the
    first is returned.  With forks (the fixture) given, each run must fork
    one worker per share but the last, with a share per CPU but none of
    fewer than MIN_SHARE_ROWS paths."""
    results = []
    for cpus in counts:
        use_cpus(cpus)
        before = forks[0] if forks else 0
        results.append(run_ensemble(*args, **kwargs))
        if forks:
            shares = max(1, min(cpus, args[0] // langevin.MIN_SHARE_ROWS))
            assert forks[0] - before == shares - 1
    one = results[0]
    for other in results[1:]:
        assert np.array_equal(one.xi_final, other.xi_final, equal_nan=True)
        assert len(one.snapshots) == len(other.snapshots)
        for (s_a, a), (s_b, b) in zip(one.snapshots, other.snapshots):
            assert s_a == s_b
            assert np.array_equal(a, b, equal_nan=True)
        assert list(one.blowups.items()) == list(other.blowups.items())
        assert one.meta == other.meta and one.s_final == other.s_final
    return one


class TestChunkedEnsemble:
    """Paths are stepped in chunks of CHUNK, each chunk with its own
    counter-keyed noise stream.  With two or more usable CPUs and at least
    2 MIN_SHARE_ROWS paths, contiguous shares of the rows are stepped in
    forked worker processes, a piece of a chunk at a time; the bits are
    those of one process stepping every chunk."""

    EPS = 0.015
    SCHED = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2, (0.0, 0.1))

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_path_does_not_depend_on_n_traj(self, use_cpus, mode):
        # 40000 paths span 3 chunks, the last one short; 32769 paths leave
        # path 32768 alone in its chunk
        _, sched = morse_schedule()
        nm = NoiseModel(epsilon=self.EPS, seed=17)
        xi0 = np.array([0.1, -0.2, 0.05]) + 0.05 * philox(3).standard_normal((40000, 3))

        def run(n):
            return on_cpus(use_cpus, (1, 2), n, sched, xi0[:n], 0.01, mode, nm,
                           s_span=(0.0, 0.2), snapshot_s=[0.1, 0.15])

        big = run(40000)
        assert 32768 == 2 * CHUNK < 40000 < 3 * CHUNK
        for small, paths in ((run(10), slice(0, 10)), (run(32769), slice(0, 32769))):
            assert np.array_equal(small.xi_final, big.xi_final[paths])
            for (s_a, a), (s_b, b) in zip(small.snapshots, big.snapshots):
                assert s_a == s_b
                assert np.array_equal(a, b[paths])

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_blowups_across_chunks(self, use_cpus, mode):
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
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = on_cpus(use_cpus, (1, 2), len(xi0), sched, xi0, 0.01, mode, nm,
                          snapshot_s=[t_fast])
        assert list(res.blowups.items()) == [(3, t_fast), (CHUNK + 1, t_fast),
                                             (CHUNK + 3, t_fast), (1, t_slow)]
        # a path is frozen as a row of NaN at the step it blows up
        at_fast = res.snapshots[0][1]
        assert np.all(np.isnan(at_fast[[3, CHUNK + 1, CHUNK + 3]]))
        assert np.isfinite(np.delete(at_fast, [3, CHUNK + 1, CHUNK + 3], axis=0)).all()
        assert np.all(np.isnan(res.xi_final[[1, 3, CHUNK + 1, CHUNK + 3]]))
        assert np.isfinite(np.delete(res.xi_final, [1, 3, CHUNK + 1, CHUNK + 3], axis=0)).all()

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_short_last_chunk_is_stepped_in_the_caller(self, monkeypatch, use_cpus, mode):
        # 2 CHUNK + 10 paths: the caller steps the last share, the largest,
        # [lo, n), as a piece of chunk 1 from row lo - CHUNK and the 10 rows
        # of the short chunk 2, at each of the 10 steps
        caller = os.getpid()
        rows_in_caller = []

        def step(xi, *args):
            if os.getpid() == caller:
                rows_in_caller.append(len(xi))
            return _step(xi, *args)
        monkeypatch.setattr(langevin, "_step", step)
        n = 2 * CHUNK + 10
        nm = NoiseModel(epsilon=self.EPS, seed=23)
        xi0 = np.array([0.1, -0.2, 0.05]) + 0.05 * philox(4).standard_normal((n, 3))
        runs = []
        for cpus in (1, 2, 3):
            use_cpus(cpus)
            rows_in_caller.clear()
            runs.append(run_ensemble(n, self.SCHED, xi0, 0.01, mode, nm, snapshot_s=[0.05]))
            bounds = [i * n // cpus for i in range(cpus + 1)]
            lo = bounds[-2]
            assert n - lo == max(np.diff(bounds))
            pieces = [CHUNK] * 2 if cpus == 1 else [2 * CHUNK - lo]
            assert rows_in_caller == [r for r in pieces + [10] for _ in range(10)]
        for other in runs[1:]:
            assert np.array_equal(runs[0].xi_final, other.xi_final)
            assert np.array_equal(runs[0].snapshots[0][1], other.snapshots[0][1])

    def test_one_chunk_is_stepped_in_the_caller(self, monkeypatch, use_cpus):
        # below 2 MIN_SHARE_ROWS paths a share would hold fewer than
        # MIN_SHARE_ROWS: one share, nothing forked, on any CPU count
        def no_fork():
            raise AssertionError("forked for an ensemble below 2 MIN_SHARE_ROWS paths")
        monkeypatch.setattr(os, "fork", no_fork)
        for cpus in (2, 3):
            use_cpus(cpus)
            res = run_ensemble(2 * langevin.MIN_SHARE_ROWS - 1, self.SCHED, [0.1, -0.2, 0.05],
                               0.01, "additive", NoiseModel(epsilon=0.01))
            assert np.isfinite(res.xi_final).all()

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    @pytest.mark.parametrize("extra", [-1, 0], ids=["below-2-shares", "2-shares"])
    def test_same_bits_on_1_2_and_3_cpus_at_the_share_cutoff(self, use_cpus, forks, mode,
                                                               extra):
        n = 2 * langevin.MIN_SHARE_ROWS + extra
        xi0 = np.array([0.1, -0.2, 0.05]) + 0.05 * philox(5).standard_normal((n, 3))
        on_cpus(use_cpus, (1, 2, 3), n, self.SCHED, xi0, 0.01, mode,
                NoiseModel(epsilon=self.EPS, seed=29), snapshot_s=[0.05], forks=forks)

    def test_same_bits_on_1_2_and_3_cpus_in_one_chunk(self, use_cpus, forks):
        # the multiplicative_noise workload's 10^4 paths, one chunk: two or
        # three shares of its rows
        _, sched = morse_schedule()
        xi0 = np.array([0.1, -0.2, 0.05]) + 0.05 * philox(6).standard_normal((10_000, 3))
        res = on_cpus(use_cpus, (1, 2, 3), 10_000, sched, xi0, 0.01, "multiplicative",
                      NoiseModel(epsilon=self.EPS, seed=31), s_span=(0.0, 0.1),
                      snapshot_s=[0.05], forks=forks)
        assert np.isfinite(res.xi_final).all()

    @pytest.mark.parametrize("mode", ["additive", "multiplicative"])
    def test_blowup_in_a_piece_that_starts_mid_chunk(self, use_cpus, forks, mode):
        # 20001 paths on 3 CPUs: shares [0, 6667), [6667, 13334) and
        # [13334, 20001), the last two starting inside chunk 0; paths 6667
        # + 3 and 13334 + 5 start fast and blow up, and so does path CHUNK
        # + 2 (chunk 1) in the caller's second piece
        n = 20_001
        sched = CoefficientSchedule.constant([1.0, 0.5, -0.5], 0.1, (0.0, 2.0))
        xi0 = np.array([0.1, -0.2, 0.05]) + 0.05 * philox(7).standard_normal((n, 3))
        fast = [6670, 13339, CHUNK + 2]
        xi0[fast] = [30.0, 15.0, -15.0]
        t_fast = run_ensemble(1, sched, xi0[fast[0]], 0.01, mode, NoiseModel(0.0)).blowups[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = on_cpus(use_cpus, (1, 2, 3), n, sched, xi0, 0.01, mode,
                          NoiseModel(epsilon=self.EPS, seed=37), s_span=(0.0, 2 * t_fast),
                          snapshot_s=[t_fast], forks=forks)
        assert sorted(res.blowups) == fast
        assert np.all(np.isnan(res.xi_final[fast]))
        assert np.isfinite(np.delete(res.xi_final, fast, axis=0)).all()


def hooked_step(in_caller=None, in_worker=None):
    """_step that first calls in_caller() in the calling process or
    in_worker() in a forked worker, when that hook is given."""
    caller = os.getpid()

    def step(*args):
        hook = in_caller if os.getpid() == caller else in_worker
        if hook is not None:
            hook()
        return _step(*args)
    return step


def alive(pid):
    """Whether process pid runs; a zombie does not (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestForkedShares:
    """Failures in the forked route: nothing is lost and no process is left."""

    SCHED = CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2, (0.0, 0.5))

    def run(self):
        return run_ensemble(2 * CHUNK, self.SCHED, [0.1, -0.2, 0.05], 0.002, "additive",
                            NoiseModel(epsilon=0.01, seed=5))

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_exception_is_raised_with_its_type(self, monkeypatch, use_cpus):
        use_cpus(2)

        def fail():
            raise DomainError("raised in a worker's share")
        monkeypatch.setattr(langevin, "_step", hooked_step(in_worker=fail))
        with pytest.raises(DomainError, match="worker's share"):
            self.run()
        self.assert_no_child_left()

    def test_worker_that_dies_is_an_error(self, monkeypatch, use_cpus):
        use_cpus(2)
        monkeypatch.setattr(langevin, "_step", hooked_step(
            in_worker=lambda: os.kill(os.getpid(), signal.SIGKILL)))
        with pytest.raises(RuntimeError, match="no result"):
            self.run()
        self.assert_no_child_left()

    @pytest.mark.parametrize("exc", [DomainError, KeyboardInterrupt, SystemExit])
    def test_caller_exception_kills_and_reaps_the_workers(self, monkeypatch, use_cpus, exc):
        # the worker stalls for 20 s at its first step: it is killed, not
        # waited for
        use_cpus(2)
        stalled = []

        def stall():
            if not stalled:
                stalled.append(True)
                time.sleep(20.0)

        def fail():
            raise exc("raised in the caller's share")
        monkeypatch.setattr(langevin, "_step", hooked_step(in_caller=fail, in_worker=stall))
        t0 = time.monotonic()
        with pytest.raises(exc):
            self.run()
        assert time.monotonic() - t0 < 10.0
        self.assert_no_child_left()

    @pytest.mark.parametrize("mode, ds, s_span, error, match", [
        ("milstein", 0.002, None, ConfigError, "unknown SDE mode"),
        ("additive", 0.0, None, DomainError, "ds must be positive"),
        ("additive", 0.002, (0.3, 0.3), DomainError, "empty ensemble span"),
    ], ids=["unknown-mode", "zero-ds", "empty-span"])
    def test_rejected_before_any_work(self, monkeypatch, use_cpus, mode, ds, s_span, error,
                                      match):
        # two chunks on two CPUs would map the output block and fork a worker
        use_cpus(2)

        def no_work(*args):
            raise AssertionError("work started before the arguments were checked")
        monkeypatch.setattr(os, "fork", no_work)
        monkeypatch.setattr(mmap, "mmap", no_work)
        with pytest.raises(error, match=match):
            run_ensemble(2 * CHUNK, self.SCHED, [0.1, -0.2, 0.05], ds, mode,
                         NoiseModel(epsilon=0.01, seed=5), s_span=s_span)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the parent-death signal is Linux's")
    def test_worker_dies_with_a_caller_killed_by_sigterm(self):
        # the caller runs in its own process with no SIGTERM handler, so no
        # finally of its runs; its worker stalls for 60 s at its first step
        # and must go with it all the same
        script = textwrap.dedent("""
            import os, time
            from tribody import langevin
            from tribody.langevin import CHUNK, CoefficientSchedule, NoiseModel, run_ensemble
            os.sched_getaffinity = lambda pid: {0, 1}
            caller, step = os.getpid(), langevin._step
            def stalled(*args):
                if os.getpid() != caller:
                    print(os.getpid(), flush=True)
                    time.sleep(60.0)
                return step(*args)
            langevin._step = stalled
            run_ensemble(2 * CHUNK, CoefficientSchedule.constant([0.05, -0.03, 0.02], 0.2, (0.0, 0.5)),
                         [0.1, -0.2, 0.05], 0.002, "additive", NoiseModel(epsilon=0.01, seed=5))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(langevin.__file__).parents[1]))
        caller = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                  env=env, text=True)
        worker = None
        try:
            worker = int(caller.stdout.readline())
            caller.terminate()
            assert caller.wait(10.0) == -signal.SIGTERM
            deadline = time.monotonic() + 10.0
            while alive(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not alive(worker)
        finally:
            caller.kill()
            caller.wait()
            caller.stdout.close()
            if worker is not None and alive(worker):
                os.kill(worker, signal.SIGKILL)
