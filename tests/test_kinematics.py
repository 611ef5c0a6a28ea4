import math

import numpy as np
import pytest

from tribody import (
    DegenerateConfigurationError,
    DomainError,
    InternalCoords,
    JacobiCoords,
    Masses,
    internal_from_jacobi,
    mass_scaled_jacobi,
    pair_distances,
    reduced_mass,
)


class TestReducedMass:
    def test_equal_unit_masses(self):
        assert reduced_mass(Masses(1, 1, 1)) == pytest.approx(0.5773502692, abs=1e-10)

    def test_unequal_masses(self):
        # sqrt(2*3*6 / 11) = sqrt(36/11)
        assert reduced_mass(Masses(2, 3, 6)) == pytest.approx(1.8090680674, abs=1e-10)
        assert reduced_mass(Masses(2, 3, 6)) == pytest.approx(math.sqrt(36 / 11))

    def test_zero_mass_rejected(self):
        with pytest.raises(DomainError):
            Masses(1, 0, 1)
        with pytest.raises(DomainError):
            Masses(1, -2, 1)

    def test_permutation_symmetry(self):
        vals = {reduced_mass(Masses(*p)) for p in
                [(2, 3, 6), (3, 2, 6), (6, 3, 2), (2, 6, 3), (3, 6, 2), (6, 2, 3)]}
        assert max(vals) - min(vals) < 1e-15


class TestMassScaledJacobi:
    def test_coincident_pair_is_degenerate(self):
        m = Masses(1, 1, 1)
        with pytest.raises(DegenerateConfigurationError):
            mass_scaled_jacobi([0, 0, 1], [1, 0, 0], [1, 0, 0], m)

    def test_body1_at_pair_center_is_degenerate(self):
        m = Masses(1, 1, 1)
        with pytest.raises(DegenerateConfigurationError):
            mass_scaled_jacobi([0, 0, 0], [-1, 0, 0], [1, 0, 0], m)

    def test_collinear_symmetric(self):
        # body 1 exactly at the pair center: R = 0, flagged degenerate
        m = Masses(1, 1, 1)
        with pytest.raises(DegenerateConfigurationError):
            mass_scaled_jacobi([0.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], m)

    def test_kinetic_energy_isotropy(self):
        # T_cartesian - T_cm == (mu0/2)*(|rdot|^2 + |Rdot|^2) for the scaled
        # Jacobi velocities, checked on 1000 random configurations
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(1000):
            m = Masses(*rng.uniform(0.2, 5.0, size=3))
            pos = rng.standard_normal((3, 3))
            vel = rng.standard_normal((3, 3))
            mu0 = reduced_mass(m)
            marr = np.array([m.m1, m.m2, m.m3])
            T_cart = 0.5 * np.sum(marr[:, None] * vel**2)
            v_cm = np.sum(marr[:, None] * vel, axis=0) / m.total
            T_rel = T_cart - 0.5 * m.total * np.dot(v_cm, v_cm)

            m23 = m.m2 + m.m3
            rdot = math.sqrt(m.m2 * m.m3 / m23 / mu0) * (vel[1] - vel[2])
            Rdot = math.sqrt(m.m1 * m23 / m.total / mu0) * (
                vel[0] - (m.m2 * vel[1] + m.m3 * vel[2]) / m23
            )
            T_jac = 0.5 * mu0 * (np.dot(rdot, rdot) + np.dot(Rdot, Rdot))
            worst = max(worst, abs(T_jac - T_rel) / abs(T_rel))
        assert worst < 1e-10

    def test_angle_matches_direct_geometry(self):
        m = Masses(1.0, 2.0, 3.0)
        j = mass_scaled_jacobi([0, 2, 0], [1, 0, 0], [-1, 0, 0], m)
        rvec = np.array([2.0, 0.0, 0.0])
        cm = np.array([-1 / 5, 0, 0])
        Rvec = np.array([0, 2, 0]) - cm
        expected = math.acos(np.dot(rvec, Rvec) / np.linalg.norm(rvec) / np.linalg.norm(Rvec))
        assert j.theta == pytest.approx(expected, abs=1e-12)

    def test_right_angle_configuration(self):
        # body 1 above the pair's center of mass: R is perpendicular to r
        m = Masses(1.0, 1.0, 1.0)
        j = mass_scaled_jacobi([0, 2, 0], [1, 0, 0], [-1, 0, 0], m)
        assert j.theta == pytest.approx(math.pi / 2, abs=1e-12)
        x = internal_from_jacobi(j)
        assert x.x3 == pytest.approx(math.hypot(j.r, j.R), abs=1e-12)

    def test_collinear_configurations(self):
        # body 1 on the pair's line: beyond body 2 gives theta = 0, beyond body 3 pi
        m = Masses(1.0, 2.0, 3.0)
        j = mass_scaled_jacobi([3, 0, 0], [1, 0, 0], [-1, 0, 0], m)
        assert j.theta == pytest.approx(0.0, abs=1e-7)
        j = mass_scaled_jacobi([-3, 0, 0], [1, 0, 0], [-1, 0, 0], m)
        assert j.theta == pytest.approx(math.pi, abs=1e-7)
        x = internal_from_jacobi(j)
        assert x.x3 == pytest.approx(x.x1 + x.x2, abs=1e-12)

    def test_invariant_under_rotation_and_translation(self):
        rng = np.random.default_rng(19)
        m = Masses(0.7, 1.9, 1.3)
        for _ in range(100):
            pos = rng.standard_normal((3, 3)) * 2
            q, r = np.linalg.qr(rng.standard_normal((3, 3)))
            Q = q * np.sign(np.diag(r))
            shift = rng.standard_normal(3) * 5
            moved = pos @ Q.T + shift
            j = mass_scaled_jacobi(*pos, m)
            k = mass_scaled_jacobi(*moved, m)
            assert (k.r, k.R, k.theta) == pytest.approx((j.r, j.R, j.theta), rel=1e-9, abs=1e-9)

    def test_non_finite_positions_rejected(self):
        m = Masses(1, 1, 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError):
                mass_scaled_jacobi([0, bad, 0], [1, 0, 0], [-1, 0, 0], m)


class TestJacobiCoords:
    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            JacobiCoords(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            JacobiCoords(1.0, -1.0, 0.5)

    def test_theta_outside_zero_to_pi_rejected(self):
        for theta in (-0.1, math.pi + 0.1):
            with pytest.raises(DomainError):
                JacobiCoords(1.0, 1.0, theta)
        # acos round-off just past the ends is tolerated
        assert JacobiCoords(1.0, 1.0, math.pi + 1e-15).theta > math.pi


class TestInternalCoords:
    def test_pythagorean(self):
        x = internal_from_jacobi(JacobiCoords(3, 4, math.pi / 2))
        assert (x.x1, x.x2) == (3, 4)
        assert x.x3 == pytest.approx(5.0, abs=1e-12)

    def test_theta_zero_gives_difference(self):
        x = internal_from_jacobi(JacobiCoords(1, 1, 0.0))
        assert x.x3 == pytest.approx(0.0, abs=1e-12)

    def test_theta_pi_gives_sum(self):
        x = internal_from_jacobi(JacobiCoords(1, 1, math.pi))
        assert x.x3 == pytest.approx(2.0, abs=1e-12)

    def test_triangle_inequality_by_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            j = JacobiCoords(rng.uniform(0.01, 10), rng.uniform(0.01, 10), rng.uniform(0, math.pi))
            x = internal_from_jacobi(j)
            assert abs(x.x1 - x.x2) - 1e-12 <= x.x3 <= x.x1 + x.x2 + 1e-12

    def test_triangle_violation_rejected(self):
        with pytest.raises(DomainError):
            InternalCoords(1, 1, 3)


class TestPairDistances:
    def test_matches_cartesian_geometry(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = Masses(*rng.uniform(0.3, 4.0, size=3))
            pos = rng.standard_normal((3, 3)) * 3
            d_direct = np.array([
                np.linalg.norm(pos[1] - pos[2]),
                np.linalg.norm(pos[0] - pos[2]),
                np.linalg.norm(pos[0] - pos[1]),
            ])
            try:
                j = mass_scaled_jacobi(pos[0], pos[1], pos[2], m)
            except DegenerateConfigurationError:
                continue
            x = internal_from_jacobi(j)
            d = pair_distances([x.x1, x.x2, x.x3], m)
            assert np.allclose(d, d_direct, rtol=1e-10)
