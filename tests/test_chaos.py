"""Tests for the KL chaos indicator and scattering-channel labels."""

import json

import numpy as np
import pytest

from tribody import (
    ChannelLabel,
    DomainError,
    FitError,
    Masses,
    MomentumGrid,
    chaos_report,
    classify_channel,
    growth_rate,
    internal_from_jacobi,
    kl_divergence,
    mass_scaled_jacobi,
)


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def gaussian_on(spec, center, sigma):
    mesh = spec.mesh()
    r2 = np.sum((mesh - np.asarray(center, float)) ** 2, axis=-1)
    out = spec.copy_with(np.exp(-0.5 * r2 / sigma**2))
    out.normalize()
    return out


class TestKlDivergence:
    def test_identical_densities_give_zero(self):
        spec = MomentumGrid([-4.0] * 3, [4.0] * 3, (16, 16, 16))
        g = gaussian_on(spec, [0.3, -0.2, 0.1], 0.8)
        assert kl_divergence(g, g.copy_with(g.P)) == 0.0

    def test_shifted_gaussian_analytic(self):
        # equal-covariance Gaussians: KL(a||b) = |mu_a - mu_b|^2 / (2 sigma^2)
        sigma, shift = 1.0, np.array([0.5, 0.0, 0.0])
        spec = MomentumGrid([-6.0] * 3, [6.0] * 3, (48, 48, 48))
        pa = gaussian_on(spec, [0.0, 0.0, 0.0], sigma)
        pb = gaussian_on(spec, shift, sigma)
        expected = np.dot(shift, shift) / (2.0 * sigma**2)
        assert np.isclose(kl_divergence(pa, pb), expected, rtol=0.02)

    def test_gibbs_inequality_random_densities(self):
        rng = philox(31)
        spec = MomentumGrid([-1.0] * 3, [1.0] * 3, (8, 8, 8))
        for _ in range(20):
            pa = spec.copy_with(rng.random(spec.shape) + 1e-6)
            pb = spec.copy_with(rng.random(spec.shape) + 1e-6)
            pa.normalize()
            pb.normalize()
            assert kl_divergence(pa, pb) >= 0.0
        assert kl_divergence(pa, pb) > 0.0

    def test_asymmetric(self):
        spec = MomentumGrid([-6.0] * 3, [6.0] * 3, (32, 32, 32))
        narrow = gaussian_on(spec, [0.0] * 3, 0.7)
        wide = gaussian_on(spec, [0.0] * 3, 1.4)
        assert not np.isclose(
            kl_divergence(narrow, wide), kl_divergence(wide, narrow), rtol=0.05
        )

    def test_support_mismatch_diagnostic(self):
        spec = MomentumGrid([-1.0] * 3, [1.0] * 3, (8, 8, 8))
        pa = gaussian_on(spec, [0.0] * 3, 0.4)
        hole = pa.P.copy()
        hole[4, 4, 4] = 0.0
        pb = spec.copy_with(hole)
        pb.normalize()
        val, diag = kl_divergence(pa, pb, return_diagnostics=True)
        assert diag["support_mismatch_cells"] == 1
        # floored log ratio ~ ln(1/1e-300) ~ 690 dominates that cell's term
        assert val > 0.5 * pa.P[4, 4, 4] * np.log(1e300) * spec.cell_volume
        _, clean = kl_divergence(pa, pa, return_diagnostics=True)
        assert clean["support_mismatch_cells"] == 0

    def test_spec_mismatch_rejected(self):
        pa = gaussian_on(MomentumGrid([-1.0] * 3, [1.0] * 3, (8, 8, 8)), [0.0] * 3, 0.4)
        pb = gaussian_on(MomentumGrid([-2.0] * 3, [2.0] * 3, (8, 8, 8)), [0.0] * 3, 0.4)
        with pytest.raises(DomainError):
            kl_divergence(pa, pb)


class TestGrowthRate:
    def test_exact_exponential(self):
        s = np.linspace(0.0, 2.0, 21)
        D = 1e-4 * np.exp(2.0 * s)
        k, resid = growth_rate(s, D)
        assert np.isclose(k, 2.0, atol=1e-12)
        assert resid < 1e-12

    def test_noisy_exponential_within_five_percent(self):
        rng = philox(5)
        s = np.linspace(0.0, 3.0, 61)
        D = 1e-5 * np.exp(1.5 * s + 0.01 * rng.standard_normal(len(s)))
        k, resid = growth_rate(s, D)
        assert np.isclose(k, 1.5, rtol=0.05)
        assert resid < 0.05

    def test_window_restricts_fit(self):
        # different slopes before and after s = 1
        s = np.linspace(0.0, 2.0, 41)
        D = np.where(s < 1.0, np.exp(1.0 * s), np.exp(1.0) * np.exp(3.0 * (s - 1.0)))
        late = s >= 1.0
        k_late, _ = growth_rate(s[late], D[late])
        assert np.isclose(k_late, 3.0, atol=1e-10)

    def test_needs_three_positive_samples(self):
        with pytest.raises(FitError):
            growth_rate([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
        with pytest.raises(FitError):
            growth_rate(np.linspace(0, 1, 10), np.r_[np.zeros(8), 1.0, 2.0])


class TestChaosReport:
    def test_chaotic_verdict(self):
        s = np.linspace(0.0, 2.0, 21)
        rep = chaos_report(s, 1e-6 * np.exp(3.0 * s))
        assert rep.verdict == "chaotic"
        assert np.isclose(rep.k, 3.0, atol=1e-10)

    def test_decaying_is_regular(self):
        s = np.linspace(0.0, 2.0, 21)
        rep = chaos_report(s, 1e-3 * np.exp(-1.0 * s))
        assert rep.verdict == "regular"
        assert rep.k < 0.0

    def test_flat_is_regular(self):
        s = np.linspace(0.0, 2.0, 21)
        rep = chaos_report(s, np.full(21, 1e-4))
        assert rep.verdict == "regular"
        assert np.isclose(rep.k, 0.0, atol=1e-12)

    def test_all_zero_is_regular(self):
        rep = chaos_report(np.linspace(0, 1, 5), np.zeros(5))
        assert rep.verdict == "regular"
        assert rep.k == 0.0

    def test_growth_below_one_decade_not_chaotic(self):
        s = np.linspace(0.0, 1.0, 11)
        rep = chaos_report(s, 1e-4 * np.exp(0.5 * s))  # half a decade of growth
        assert rep.verdict == "regular"

    def test_noisy_fit_is_inconclusive(self):
        rng = philox(17)
        s = np.linspace(0.0, 2.0, 41)
        D = np.exp(2.0 * s + 1.5 * rng.standard_normal(len(s)))
        rep = chaos_report(s, D)
        assert rep.verdict == "inconclusive"

    def test_negative_series_rejected(self):
        with pytest.raises(DomainError):
            chaos_report([0.0, 1.0, 2.0], [1.0, -1.0, 1.0])

    def test_json_round_trip(self):
        s = np.linspace(0.0, 2.0, 5)
        rep = chaos_report(s, 1e-6 * np.exp(3.0 * s))
        doc = json.loads(rep.to_json())
        assert doc["verdict"] == rep.verdict
        assert np.isclose(doc["k"], rep.k)
        assert len(doc["series"]) == 5
        assert doc["thresholds"]["residual_max"] == 0.2

    def test_decades_spanned_are_reported(self):
        # exp(k*s) with k = ln(100) over s in [0, 1] grows by exactly 2 decades
        s = np.linspace(0.0, 1.0, 6)
        rep = chaos_report(s, 1e-6 * np.exp(np.log(100.0) * s))
        assert rep.decades == pytest.approx(2.0, rel=1e-12)
        assert json.loads(rep.to_json())["decades"] == rep.decades
        assert chaos_report(s, np.zeros(6)).decades == 0.0
        # two samples with D > 0: no fit, so no k and no decades
        unfit = chaos_report(s, [0.0, 0.0, 0.0, 0.0, 1e-6, 1e-5])
        assert np.isnan(unfit.k) and np.isnan(unfit.decades)
        assert np.isnan(json.loads(unfit.to_json())["decades"])


def synthetic_internal(masses, r1_of_t, r2_of_t, r3_of_t, times):
    """Internal coordinates of a prescribed three-body motion."""
    rows = []
    for t in times:
        j = mass_scaled_jacobi(r1_of_t(t), r2_of_t(t), r3_of_t(t), masses)
        xi = internal_from_jacobi(j)
        rows.append([xi.x1, xi.x2, xi.x3])
    return np.array(rows)


class TestClassifyChannel:
    masses = Masses(1.0, 1.0, 1.0)

    def test_bound_pair_23_free_body_1(self):
        times = np.linspace(0.0, 10.0, 50)
        x = synthetic_internal(
            self.masses,
            lambda t: np.array([0.0, 0.0, 2.0 + 4.0 * t]),
            lambda t: np.array([0.5 + 0.2 * np.sin(3 * t), 0.0, 0.0]),
            lambda t: np.array([-0.5 - 0.2 * np.sin(3 * t), 0.0, 0.0]),
            times,
        )
        label = classify_channel(times, x, self.masses, r_bound=3.0, r_free=10.0)
        assert label is ChannelLabel.BOUND_23_FREE_1

    def test_bound_pair_12_free_body_3(self):
        times = np.linspace(0.0, 10.0, 50)
        x = synthetic_internal(
            self.masses,
            lambda t: np.array([0.6, 0.0, 0.0]),
            lambda t: np.array([-0.6, 0.0, 0.0]),
            lambda t: np.array([0.0, 2.0 + 4.0 * t, 0.0]),
            times,
        )
        label = classify_channel(times, x, self.masses, r_bound=3.0, r_free=10.0)
        assert label is ChannelLabel.BOUND_12_FREE_3

    def test_full_breakup(self):
        times = np.linspace(0.0, 10.0, 50)
        x = synthetic_internal(
            self.masses,
            lambda t: (1.0 + 3.0 * t) * np.array([1.0, 0.0, 0.0]),
            lambda t: (1.0 + 3.0 * t) * np.array([-0.5, 0.9, 0.0]),
            lambda t: (1.0 + 3.0 * t) * np.array([-0.5, -0.9, 0.0]),
            times,
        )
        label = classify_channel(times, x, self.masses, r_bound=3.0, r_free=10.0)
        assert label is ChannelLabel.FULL_BREAKUP

    def test_transient_complex(self):
        times = np.linspace(0.0, 10.0, 50)
        x = synthetic_internal(
            self.masses,
            lambda t: np.array([1.0 + 0.3 * np.sin(t), 0.0, 0.0]),
            lambda t: np.array([-0.5, 0.9 + 0.3 * np.cos(t), 0.0]),
            lambda t: np.array([-0.5, -0.9, 0.2 * np.sin(2 * t)]),
            times,
        )
        label = classify_channel(times, x, self.masses, r_bound=3.0, r_free=10.0)
        assert label is ChannelLabel.TRANSIENT

    def test_unequal_masses(self):
        m = Masses(5.0, 1.0, 1.0)
        times = np.linspace(0.0, 10.0, 50)
        x = synthetic_internal(
            m,
            lambda t: np.array([0.0, 0.0, 2.0 + 4.0 * t]),
            lambda t: np.array([0.5, 0.0, 0.0]),
            lambda t: np.array([-0.5, 0.0, 0.0]),
            times,
        )
        label = classify_channel(times, x, m, r_bound=3.0, r_free=10.0)
        assert label is ChannelLabel.BOUND_23_FREE_1

    def test_short_trajectory_rejected(self):
        with pytest.raises(DomainError):
            classify_channel([0.0, 1.0], np.ones((2, 3)), self.masses, r_bound=3.0, r_free=10.0)
