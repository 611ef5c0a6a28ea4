"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Every criterion is self-contained and runs at desk scale; the printed
lines go straight to the terminal so the gate is auditable even when
pytest captures stdout.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from tribody import (
    ChannelLabel,
    CoefficientSchedule,
    EnergySurface,
    FpeConfig,
    FrameGauge,
    FreePotential,
    GeodesicState,
    Masses,
    MomentumGrid,
    MorsePotential,
    NoiseModel,
    classify_channel,
    conservation_report,
    density_from_ensemble,
    drift,
    external_rates,
    fpe_evolve,
    fpe_rhs,
    frame_residual,
    growth_rate,
    integrate,
    internal_frame,
    internal_from_jacobi,
    external_frame,
    kl_divergence,
    mass_scaled_jacobi,
    run_ensemble,
    two_point_increments,
)
from tribody.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
# criterion 6's bound on an ensemble moment's distance from the density's,
# in standard errors
MOMENT_GAP_SE = 5.0


@pytest.fixture()
def verdict(capfd):
    """Reporter that bypasses capture so the gate lines reach the terminal."""

    def _verdict(n, desc, ok):
        line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def morse_setup():
    m = Masses(1.0, 1.0, 1.0)
    pot = MorsePotential(m, D=1.0, alpha=1.0, d0=2.0)
    surf = EnergySurface(E=1.0, U0=3.0, potential=pot)
    state0 = GeodesicState(x=[2.0, 3.0, 3.5], xi=[0.1, -0.2, 0.05])
    return m, surf, state0


def gaussian_grid(spec, center, sigma):
    mesh = spec.mesh()
    grid = spec.copy_with(np.exp(-0.5 * np.sum((mesh - np.asarray(center)) ** 2, -1) / sigma**2))
    grid.P[0] = grid.P[-1] = 0.0
    grid.P[:, 0] = grid.P[:, -1] = 0.0
    grid.P[:, :, 0] = grid.P[:, :, -1] = 0.0
    grid.normalize()
    return grid


def grid_moments(grid):
    """Per-axis mean and variance of a density on its grid."""
    mesh = grid.mesh()
    w = grid.P * grid.cell_volume
    mean = np.einsum("abc,abci->i", w, mesh)
    return mean, np.einsum("abc,abci->i", w, (mesh - mean) ** 2)


def moment_gaps(xi, grid):
    """|ensemble moment - density moment| per axis, in standard errors of
    the ensemble's estimate: sqrt(v / n) for the mean, v sqrt(2 / (n - 1))
    for the variance, v the ensemble's variance."""
    n = len(xi)
    mean, var = grid_moments(grid)
    v = xi.var(axis=0, ddof=1)
    return (np.abs(xi.mean(axis=0) - mean) / np.sqrt(v / n),
            np.abs(v - var) / (v * np.sqrt(2.0 / (n - 1))))


def test_criterion_01_free_motion_oracle(verdict):
    surf = EnergySurface(E=1.0, U0=1.0, potential=FreePotential())
    traj = integrate(GeodesicState(x=[1, 1, 1], xi=[0.1, 0.05, -0.02]),
                     surf, s_end=10.0, tol=1e-11)
    expected = np.array([1.0, 1.0, 1.0]) + np.outer(traj.s, [0.1, 0.05, -0.02])
    dev = float(np.max(np.abs(traj.x - expected)))
    verdict(1, f"free motion stays straight (max deviation {dev:.2e} < 1e-10)",
            dev < 1e-10 and traj.termination == "s_end")


def test_criterion_02_conservation(verdict):
    m, surf, state0 = morse_setup()
    traj = integrate(state0, surf, J=(0.1, 0.0, 0.0), s_end=5.0, tol=1e-9,
                     n_samples=512, mu0=np.sqrt(1.0 / 3.0))
    report = conservation_report(traj, surf)
    rates = external_rates(traj.g, *traj.J)
    rate_err = float(np.max(np.abs(np.sum(rates**2, axis=-1) - traj.lam_sq)))
    ok = report["H_drift"] < 1e-6 and rate_err < 1e-10
    verdict(2, f"H drift {report['H_drift']:.2e} < 1e-6, "
               f"rate identity {rate_err:.2e} < 1e-10", ok)


def test_criterion_03_frame_residuals(verdict):
    rng = philox(303)
    worst = 0.0
    bilinear_worst = 0.0
    for _ in range(1000):
        g = rng.uniform(0.01, 10.0)
        g33 = rng.uniform(0.01, 10.0)
        M = rng.standard_normal((3, 3))
        Gamma = M @ M.T + 0.05 * np.eye(3)
        fi = internal_frame(g, g33, FrameGauge.random(rng))
        fe = external_frame(g, Gamma, FrameGauge.random(rng))
        gamma = np.zeros((6, 6))
        gamma[0, 0] = gamma[1, 1] = 1.0
        gamma[2, 2] = g33
        gamma[3:, 3:] = Gamma
        worst = max(worst, frame_residual(fi, fe, gamma, g))
        # bilinear conditions in the a/b/c-designation form
        u, v, w = fe.as_matrix()
        a = [Gamma[i, 0] * u[1] + Gamma[i, 1] * v[1] + Gamma[i, 2] * w[1] for i in range(3)]
        b = [Gamma[j, 0] * u[2] + Gamma[j, 1] * v[2] + Gamma[j, 2] * w[2] for j in range(3)]
        c = [Gamma[k, 0] * u[0] + Gamma[k, 1] * v[0] + Gamma[k, 2] * w[0] for k in range(3)]
        bilinear_worst = max(
            bilinear_worst,
            abs(a[0] * u[0] + a[1] * v[0] + a[2] * w[0]),
            abs(b[0] * u[1] + b[1] * v[1] + b[2] * w[1]),
            abs(c[0] * u[2] + c[1] * v[2] + c[2] * w[2]),
        )
    ok = worst < 1e-10 and bilinear_worst < 1e-10
    verdict(3, f"frame residuals over 1000 draws: {worst:.2e}, "
               f"bilinear {bilinear_worst:.2e}, both < 1e-10", ok)


def test_criterion_04_zero_noise_reduction(verdict):
    m, surf, state0 = morse_setup()
    traj = integrate(state0, surf, J=(0.1, 0.0, 0.0), s_end=2.0, tol=1e-10,
                     n_samples=256)
    sched = CoefficientSchedule.from_trajectory(traj)
    quiet = NoiseModel(epsilon=0.0, seed=1)
    errs = []
    for mode in ("additive", "multiplicative"):
        res = run_ensemble(4, sched, state0.xi, ds=5e-4, mode=mode, noise=quiet)
        errs.append(float(np.max(np.abs(res.xi_final - traj.xi[-1]))))
    noisy = NoiseModel(epsilon=0.01, seed=77)
    rep1 = run_ensemble(64, sched, state0.xi, ds=2e-3, mode="additive", noise=noisy)
    rep2 = run_ensemble(64, sched, state0.xi, ds=2e-3, mode="additive", noise=noisy)
    identical = np.array_equal(rep1.xi_final, rep2.xi_final)
    ok = max(errs) < 5e-3 and identical
    verdict(4, f"zero-noise SDE matches deterministic flow "
               f"(additive {errs[0]:.1e}, multiplicative {errs[1]:.1e} < 5e-3); "
               f"same-seed reruns bit-identical: {identical}", ok)


def test_criterion_05_noise_calibration(verdict):
    # the one law both ensemble modes draw: two-point increments
    eps, ds, n = 0.02, 0.01, 1_000_000
    dW = two_point_increments(ds, NoiseModel(epsilon=eps), philox(55), n=n)
    var = dW.var(axis=0, ddof=1)
    rel = float(np.max(np.abs(var - 2.0 * eps * ds) / (2.0 * eps * ds)))
    verdict(5, f"two-point increment variance matches 2*eps*ds within {rel:.2%} (< 1%)",
            rel < 0.01)


def test_criterion_06_sde_fpe_consistency(verdict):
    a = np.array([0.05, -0.03, 0.02])
    lam2, eps = 0.2, 0.01
    xi0c = np.array([0.2, 0.1, -0.1])
    sigma0 = 0.15
    span, checks = (0.0, 0.5), (0.2, 0.35, 0.5)
    sched = CoefficientSchedule.constant(a, lam2, s_span=span)

    n = 100_000
    xi0 = xi0c + sigma0 * philox(123).standard_normal((n, 3))
    res = run_ensemble(n, sched, xi0, ds=0.002, mode="additive",
                       noise=NoiseModel(epsilon=eps, seed=42),
                       snapshot_s=list(checks))

    w = 3.2
    spec = MomentumGrid(xi0c - w, xi0c + w, (64, 64, 64))
    grid0 = gaussian_grid(spec, xi0c, sigma0)
    fres = fpe_evolve(grid0, span, FpeConfig(epsilon=eps, schedule=sched),
                      snapshot_s=checks)
    tvs, gaps = [], []
    for (_, xi), (_, grid) in zip(res.snapshots, fres.snapshots):
        est = density_from_ensemble(xi, spec)
        tvs.append(0.5 * float(np.sum(np.abs(est.P - grid.P))) * spec.cell_volume)
        gaps.append(moment_gaps(xi, grid))
    # (checkpoint, mean or variance, axis); np.max keeps a NaN gap
    mean_gap, var_gap = np.max(gaps, axis=(0, 2))

    # heat-kernel sub-case: zero drift, variance grows by 2*eps*s per axis
    hk_sched = CoefficientSchedule.constant([0.0, 0.0, 0.0], 0.0)
    hk_spec = MomentumGrid([-0.8] * 3, [0.8] * 3, (40, 40, 40))
    hk = fpe_evolve(gaussian_grid(hk_spec, [0.0] * 3, 0.1), (0.0, 0.5),
                    FpeConfig(epsilon=0.005, schedule=hk_sched))
    var = grid_moments(hk.snapshots[-1][1])[1]
    hk_rel = float(np.max(np.abs(var - (0.1**2 + 2 * 0.005 * 0.5))
                          / (0.1**2 + 2 * 0.005 * 0.5)))

    # the TV of 1e5 paths in 64^3 cells sits near its own sampling floor
    # and passes some wrong ensembles; the moments do not
    ok = max(tvs) < 0.05 and np.max(gaps) < MOMENT_GAP_SE and hk_rel < 0.03
    verdict(6, f"1e5 paths vs 64^3 FPE: TV = "
               f"{', '.join(f'{t:.3f}' for t in tvs)} (< 0.05); "
               f"moment gaps mean {mean_gap:.1f}, variance {var_gap:.1f} SE "
               f"(< {MOMENT_GAP_SE}); heat-kernel variance within {hk_rel:.2%} (< 3%)", ok)


def test_criterion_07_fpe_hygiene(verdict):
    # mass audit on an interior-supported density
    sched = CoefficientSchedule.constant([0.02, -0.01, 0.015], 0.2)
    spec = MomentumGrid([-1.0] * 3, [1.0] * 3, (32, 32, 32))
    res = fpe_evolve(gaussian_grid(spec, [0.0] * 3, 0.12), (0.0, 1.0),
                     FpeConfig(epsilon=0.002, schedule=sched))
    mass_err = abs(res.diagnostics["mass_final"] - res.diagnostics["mass_initial"])

    # order-2 spatial convergence of the drift operator against a
    # near-exact derivative oracle
    coeffs = (np.array([0.1, -0.05, 0.08]), 0.3)
    sigma, center = 0.2, np.array([0.05, 0.0, -0.05])

    def stencil_error(ncells):
        spec_n = MomentumGrid([-0.8] * 3, [0.8] * 3, (ncells,) * 3)
        grid = gaussian_grid(spec_n, center, sigma)
        cfg = FpeConfig(epsilon=0.0, schedule=CoefficientSchedule.constant(*coeffs))
        rhs = fpe_rhs(grid, coeffs, cfg)
        mesh = spec_n.mesh()

        def flux(pts):
            r2 = np.sum((pts - center) ** 2, axis=-1)
            return drift(pts, coeffs) * np.exp(-0.5 * r2 / sigma**2)[..., None]

        delta = 1e-6
        exact = np.zeros(grid.shape)
        for i in range(3):
            e = np.zeros(3)
            e[i] = delta
            exact += (flux(mesh + e)[..., i] - flux(mesh - e)[..., i]) / (2 * delta)
        mid = (ncells // 2,) * 3
        norm = grid.P[mid] / np.exp(-0.5 * np.sum((mesh[mid] - center) ** 2) / sigma**2)
        interior = (slice(2, -2),) * 3
        return np.max(np.abs(rhs[interior] - cfg.drift_sign * norm * exact[interior]))

    e_coarse, e_fine = stencil_error(24), stencil_error(48)
    ratio = e_coarse / e_fine
    ok = mass_err < 1e-6 and ratio > 3.0
    verdict(7, f"mass drift {mass_err:.2e} < 1e-6 per unit s; "
               f"operator refinement gain {ratio:.1f}x (order 2 needs > 3x)", ok)


def test_criterion_08_kl_chaos_oracle(verdict):
    spec = MomentumGrid([-6.0] * 3, [6.0] * 3, (48, 48, 48))
    pa = gaussian_grid(spec, [0.0, 0.0, 0.0], 1.0)
    self_kl, _ = kl_divergence(pa, pa.copy_with(pa.P))
    pb = gaussian_grid(spec, [0.5, 0.0, 0.0], 1.0)
    analytic = 0.5**2 / 2.0
    kl_rel = abs(kl_divergence(pa, pb)[0] - analytic) / analytic

    s = np.linspace(0.0, 2.0, 21)
    k_exact, _ = growth_rate(s, 1e-4 * np.exp(2.0 * s))
    noisy = 1e-4 * np.exp(2.0 * s) * np.exp(0.01 * philox(9).standard_normal(len(s)))
    k_noisy, _ = growth_rate(s, noisy)
    ok = (self_kl == 0.0 and kl_rel < 0.02
          and abs(k_exact - 2.0) < 1e-10 and abs(k_noisy - 2.0) < 0.1)
    verdict(8, f"KL(P,P) = {self_kl}; shifted-Gaussian KL within {kl_rel:.2%}; "
               f"growth rate {k_exact:.12f} exact, {k_noisy:.3f} under noise", ok)


def test_criterion_09_channel_classification(verdict):
    m = Masses(1.0, 1.0, 1.0)
    times = np.linspace(0.0, 10.0, 50)

    def internal(r1, r2, r3):
        rows = []
        for t in times:
            j = mass_scaled_jacobi(r1(t), r2(t), r3(t), m)
            xi = internal_from_jacobi(j)
            rows.append([xi.x1, xi.x2, xi.x3])
        return np.array(rows)

    bound = internal(lambda t: np.array([0.0, 0.0, 2.0 + 4.0 * t]),
                     lambda t: np.array([0.5 + 0.2 * np.sin(3 * t), 0.0, 0.0]),
                     lambda t: np.array([-0.5 - 0.2 * np.sin(3 * t), 0.0, 0.0]))
    breakup = internal(lambda t: (1.0 + 3.0 * t) * np.array([1.0, 0.0, 0.0]),
                       lambda t: (1.0 + 3.0 * t) * np.array([-0.5, 0.9, 0.0]),
                       lambda t: (1.0 + 3.0 * t) * np.array([-0.5, -0.9, 0.0]))
    transient = internal(lambda t: np.array([1.0 + 0.3 * np.sin(t), 0.0, 0.0]),
                         lambda t: np.array([-0.5, 0.9 + 0.3 * np.cos(t), 0.0]),
                         lambda t: np.array([-0.5, -0.9, 0.2 * np.sin(2 * t)]))
    labels = [classify_channel(times, x, m, r_bound=3.0, r_free=10.0)
              for x in (bound, breakup, transient)]
    expected = [ChannelLabel.BOUND_23_FREE_1, ChannelLabel.FULL_BREAKUP,
                ChannelLabel.TRANSIENT]
    ok = labels == expected
    verdict(9, "channel labels on synthetic outcomes: "
               + ", ".join(l.value for l in labels), ok)


def test_criterion_10_end_to_end_determinism(verdict, tmp_path):
    cfg = REPO / "configs" / "sample_morse.json"
    stages = ("simulate", "ensemble", "fpe", "chaos", "channels")

    def run_pipeline(out_dir):
        for stage in stages:
            code = cli_main([stage, "--config", str(cfg), "--out", str(out_dir)])
            assert code == 0, f"stage {stage} exited {code}"
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
        }

    sums_a = run_pipeline(tmp_path / "run_a")
    sums_b = run_pipeline(tmp_path / "run_b")
    ok = sums_a == sums_b and len(sums_a) >= len(stages) * 2
    verdict(10, f"five-stage pipeline: {len(sums_a)} artifacts checksum-identical "
                f"across same-seed reruns: {sums_a == sums_b}", ok)
