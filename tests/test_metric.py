import math

import numpy as np
import pytest

from tribody import (
    DomainError,
    EnergySurface,
    FreePotential,
    GravityPotential,
    Masses,
    MorsePotential,
    conformal_factor,
    flow_coefficients,
    reduced_hamiltonian,
)

from helpers import CallablePotential


def exp_well():
    # U(x) = -U0 * exp(-x1): with E = 0 this gives g = exp(-x1)
    return CallablePotential(
        lambda x: -math.exp(-x[0]),
        lambda x: np.array([math.exp(-x[0]), 0.0, 0.0]),
    )


class TestConformalFactor:
    def test_direct_substitution(self):
        surf = EnergySurface(E=-0.5, U0=1.0, potential=CallablePotential(
            lambda x: -1.0, lambda x: np.zeros(3)))
        assert conformal_factor([1, 1, 1], surf) == pytest.approx(0.5)

    def test_boundary_is_forbidden(self):
        surf = EnergySurface(E=-1.0, U0=1.0, potential=CallablePotential(
            lambda x: -1.0, lambda x: np.zeros(3)))
        with pytest.raises(DomainError, match="<= g_min"):
            conformal_factor([1, 1, 1], surf)

    def test_free_motion_unity(self):
        surf = EnergySurface(E=1.0, U0=1.0, potential=FreePotential())
        for x in ([1, 2, 2], [5, 5, 5], [0.1, 0.1, 0.1]):
            assert conformal_factor(x, surf) == 1.0

    def test_u0_must_be_positive(self):
        with pytest.raises(DomainError):
            EnergySurface(E=1.0, U0=0.0, potential=FreePotential())

    def test_batch_error_names_the_deepest_point(self):
        # g = 1 - x1 here: the second and third rows are forbidden, the third most
        surf = EnergySurface(E=0.0, U0=1.0, potential=CallablePotential(
            lambda x: x[0] - 1.0, lambda x: np.array([1.0, 0.0, 0.0])))
        x = np.array([[0.5, 1.0, 1.0], [1.5, 1.0, 1.0], [2.5, 1.0, 1.0]])
        with pytest.raises(DomainError, match=r"g = -1\.5 .* at x = \[2\.5 1\. +1\. *\]"):
            conformal_factor(x, surf)


class TestLogGradient:
    def test_exponential_well_analytic(self):
        surf = EnergySurface(E=0.0, U0=1.0, potential=exp_well())
        _, a, _ = flow_coefficients(np.array([0.7, 1.0, 1.2]), surf, 0.0)
        assert np.allclose(a, [0.5, 0.0, 0.0], atol=1e-14)

    def test_constant_potential_zero(self):
        surf = EnergySurface(E=1.0, U0=1.0, potential=FreePotential())
        assert np.allclose(flow_coefficients(np.array([1.0, 2.0, 2.0]), surf, 0.0)[1], 0.0)

    @pytest.mark.parametrize("make_pot", [
        lambda m: MorsePotential(m, D=1.0, alpha=1.0, d0=1.5),
        lambda m: GravityPotential(m, G=1.0, softening=0.3),
    ])
    def test_matches_finite_differences(self, make_pot):
        # a_i must equal central finite differences of -(1/2) ln g
        m = Masses(1.0, 1.2, 0.8)
        pot = make_pot(m)
        surf = EnergySurface(E=2.0, U0=1.0, potential=pot)
        rng = np.random.default_rng(5)
        h = 1e-6
        checked = 0
        while checked < 100:
            x1, x2 = rng.uniform(1.0, 4.0, size=2)
            x3 = rng.uniform(abs(x1 - x2) + 0.2, x1 + x2 - 0.2)
            x = np.array([x1, x2, x3])
            _, a, _ = flow_coefficients(x, surf, 0.0)
            fd = np.zeros(3)
            for i in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = -(math.log(conformal_factor(xp, surf))
                          - math.log(conformal_factor(xm, surf))) / (4 * h)
            assert np.allclose(a, fd, rtol=1e-6, atol=1e-9)
            checked += 1


def morse_surface():
    return EnergySurface(E=2.0, U0=1.0,
                         potential=MorsePotential(Masses(1.0, 1.2, 0.8), D=1.0, alpha=1.0, d0=1.5))


def allowed_points(rng, n):
    x1, x2 = rng.uniform(1.0, 4.0, size=(2, n))
    x3 = rng.uniform(np.abs(x1 - x2) + 0.2, x1 + x2 - 0.2)
    return np.stack([x1, x2, x3], axis=-1)


class TestFlowCoefficients:
    def test_batch_rows_match_single_points(self):
        surf = morse_surface()
        x = allowed_points(np.random.default_rng(13), 50)
        g, a, lam2 = flow_coefficients(x, surf, 0.7)
        assert g.shape == lam2.shape == (50,) and a.shape == (50, 3)
        for k in range(50):
            gk, ak, lam2k = flow_coefficients(x[k], surf, 0.7)
            assert np.allclose(g[k], gk, rtol=1e-15, atol=0)
            assert np.allclose(a[k], ak, rtol=1e-15, atol=0)
            assert np.allclose(lam2[k], lam2k, rtol=1e-15, atol=0)

    def test_past_the_boundary_is_finite_and_unchecked(self):
        # integrator trial points may step past g = 0; no error, finite values
        surf = EnergySurface(E=0.0, U0=2.0, potential=CallablePotential(
            lambda x: x[0] - 1.0, lambda x: np.array([1.0, 0.0, 0.0])))
        g, a, lam2 = flow_coefficients(np.array([3.0, 1.0, 1.0]), surf, 1.0)
        assert g == pytest.approx(-1.0)
        assert np.allclose(a, [-0.25, 0.0, 0.0])
        assert lam2 == pytest.approx(1.0)


def flat(g):
    """A surface of constant height g, so that flow_coefficients' Lambda^2
    is (J/g)^2 at any point."""
    return EnergySurface(E=g, U0=1.0, potential=FreePotential())


class TestLambdaSq:
    def test_direct(self):
        assert flow_coefficients(np.ones(3), flat(0.5), 2.0)[2] == pytest.approx(16.0)

    def test_zero_momentum(self):
        for g in (0.1, 1.0, 7.3):
            assert flow_coefficients(np.ones(3), flat(g), 0.0)[2] == 0.0

    def test_external_rate_identity(self):
        # sum over mu of (J_(mu-3)/g)^2 equals (J_total/g)^2
        rng = np.random.default_rng(9)
        for _ in range(200):
            g = rng.uniform(0.05, 5.0)
            J = rng.standard_normal(3) * 3
            rates_sq = np.sum((J / g) ** 2)
            lam2 = flow_coefficients(np.ones(3), flat(g), float(np.linalg.norm(J)))[2]
            assert rates_sq == pytest.approx(lam2, rel=1e-12)


class TestReducedHamiltonian:
    def test_unit_case(self):
        surf = EnergySurface(E=1.0, U0=1.0, potential=FreePotential())
        H = reduced_hamiltonian([1, 1, 1], [1, 0, 0], 0.0, surf, mu0=1.0)
        assert H == pytest.approx(0.5)

    def test_rest_state(self):
        surf = EnergySurface(E=1.0, U0=1.0, potential=FreePotential())
        assert reduced_hamiltonian([1, 1, 1], [0, 0, 0], 0.0, surf, mu0=2.0) == 0.0

    def test_with_angular_momentum(self):
        surf = EnergySurface(E=2.0, U0=1.0, potential=FreePotential())
        # g = 2: H = (mu0/2) * g * (|xi|^2 + (J/g)^2)
        H = reduced_hamiltonian([1, 1, 1], [1, 2, 2], 3.0, surf, mu0=1.5)
        assert H == pytest.approx(0.75 * 2.0 * (9.0 + 2.25))

    def test_batch_rows_match_single_points(self):
        rng = np.random.default_rng(17)
        surf = morse_surface()
        x = allowed_points(rng, 40)
        xdot = rng.standard_normal((40, 3))
        H = reduced_hamiltonian(x, xdot, 0.4, surf, mu0=0.8)
        assert H.shape == (40,)
        for k in range(40):
            assert H[k] == pytest.approx(reduced_hamiltonian(x[k], xdot[k], 0.4, surf, mu0=0.8),
                                         rel=1e-14)

    def test_forbidden_point_raises(self):
        surf = EnergySurface(E=1.0, U0=1.0, potential=CallablePotential(
            lambda x: 2.0, lambda x: np.zeros(3)))
        with pytest.raises(DomainError, match="<= g_min"):
            reduced_hamiltonian([1, 1, 1], [1, 0, 0], 0.0, surf, mu0=1.0)
