import math

import numpy as np
import pytest

from tribody import (
    DomainError,
    FrameGauge,
    external_frame,
    frame_residual,
    internal_frame,
)

IDENTITY = FrameGauge(np.eye(3))


def random_spd(rng, scale=1.0):
    A = rng.standard_normal((3, 3))
    return A @ A.T + 0.1 * np.eye(3) * scale


class TestFrameGauge:
    def test_non_orthogonal_rejected(self):
        with pytest.raises(DomainError):
            FrameGauge(np.diag([1.0, 1.0, 1.0 + 1e-9]))
        with pytest.raises(DomainError):
            FrameGauge(np.ones((3, 3)))


class TestInternalFrame:
    def test_identity_gauge(self):
        f = internal_frame(4.0, 1.0, IDENTITY)
        assert np.allclose(f.x, [2, 0, 0])
        assert np.allclose(f.y, [0, 2, 0])
        assert np.allclose(f.z, [0, 0, 2])

    def test_gamma33_rescales_z_only(self):
        f = internal_frame(4.0, 4.0, IDENTITY)
        assert np.allclose(f.x, [2, 0, 0])
        assert np.allclose(f.y, [0, 2, 0])
        assert np.allclose(f.z, [0, 0, 1])

    def test_all_six_equations(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            g = rng.uniform(0.01, 10)
            g33 = rng.uniform(0.01, 10)
            f = internal_frame(g, g33, FrameGauge.random(rng))
            x, y, z = f.x, f.y, f.z
            for mu in range(3):
                assert x[mu] ** 2 + y[mu] ** 2 + g33 * z[mu] ** 2 == pytest.approx(g, abs=1e-12)
            for mu, nu in ((0, 1), (0, 2), (1, 2)):
                bil = x[mu] * x[nu] + y[mu] * y[nu] + g33 * z[mu] * z[nu]
                assert abs(bil) < 1e-12

    def test_degenerate_gamma33(self):
        with pytest.raises(DomainError, match="gamma33 must be positive"):
            internal_frame(1.0, 0.0, IDENTITY)

    def test_nonpositive_g_rejected(self):
        for g in (0.0, -1.0, np.nan):
            with pytest.raises(DomainError):
                internal_frame(g, 1.0, IDENTITY)


class TestExternalFrame:
    def test_identity_case(self):
        f = external_frame(1.0, np.eye(3), IDENTITY)
        assert np.allclose(f.as_matrix(), np.eye(3))

    def test_diagonal_cholesky(self):
        f = external_frame(1.0, np.diag([4.0, 1.0, 1.0]), IDENTITY)
        W = f.as_matrix()
        assert W[0, 0] == pytest.approx(0.5)
        assert W[1, 1] == pytest.approx(1.0)
        assert W[2, 2] == pytest.approx(1.0)
        assert np.max(np.abs(W - np.diag(np.diag(W)))) < 1e-14

    def test_nonpositive_g_rejected(self):
        for g in (0.0, -1.0, np.nan):
            with pytest.raises(DomainError):
                external_frame(g, np.eye(3), IDENTITY)

    def test_non_spd_rejected(self):
        with pytest.raises(DomainError, match="external metric block is not positive definite"):
            external_frame(1.0, np.diag([1.0, -1.0, 1.0]), IDENTITY)

    def test_non_finite_gamma_rejected(self):
        # a NaN block would otherwise factor into a NaN frame without an error
        for bad in (np.nan, np.inf):
            Gamma = np.eye(3)
            Gamma[1, 1] = bad
            with pytest.raises(DomainError):
                external_frame(1.0, Gamma, IDENTITY)

    def test_all_six_equations_with_designations(self):
        # diagonal equations W_mu' Gamma W_mu = g and the bilinear conditions
        # written with the a_i, b_j, c_k designations, term by term
        rng = np.random.default_rng(77)
        for _ in range(500):
            g = rng.uniform(0.01, 10)
            Gamma = random_spd(rng)
            f = external_frame(g, Gamma, FrameGauge.random(rng))
            W = f.as_matrix()  # rows u, v, w; columns mu = 4, 5, 6
            u, v, w = W
            for mu in range(3):
                quad = (Gamma[0, 0] * u[mu] ** 2 + Gamma[1, 1] * v[mu] ** 2
                        + Gamma[2, 2] * w[mu] ** 2
                        + 2 * (Gamma[0, 1] * u[mu] * v[mu]
                               + Gamma[0, 2] * u[mu] * w[mu]
                               + Gamma[1, 2] * v[mu] * w[mu]))
                assert quad == pytest.approx(g, abs=1e-10)
            a = [Gamma[i, 0] * u[1] + Gamma[i, 1] * v[1] + Gamma[i, 2] * w[1] for i in range(3)]
            b = [Gamma[j, 0] * u[2] + Gamma[j, 1] * v[2] + Gamma[j, 2] * w[2] for j in range(3)]
            c = [Gamma[k, 0] * u[0] + Gamma[k, 1] * v[0] + Gamma[k, 2] * w[0] for k in range(3)]
            assert abs(a[0] * u[0] + a[1] * v[0] + a[2] * w[0]) < 1e-10
            assert abs(b[0] * u[1] + b[1] * v[1] + b[2] * w[1]) < 1e-10
            assert abs(c[0] * u[2] + c[1] * v[2] + c[2] * w[2]) < 1e-10


class TestFrameResidual:
    def test_constructed_frames_have_small_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            g = rng.uniform(0.05, 5)
            g33 = rng.uniform(0.05, 5)
            Gamma = random_spd(rng)
            fi = internal_frame(g, g33, FrameGauge.random(rng))
            fe = external_frame(g, Gamma, FrameGauge.random(rng))
            gamma = np.zeros((6, 6))
            gamma[0, 0] = gamma[1, 1] = 1.0
            gamma[2, 2] = g33
            gamma[3:, 3:] = Gamma
            assert frame_residual(fi, fe, gamma, g) < 1e-10

    def test_zero_frame_residual_is_g(self):
        from tribody.frames import ExternalFrame, InternalFrame
        zero3 = np.zeros(3)
        fi = InternalFrame(zero3, zero3, zero3)
        fe = ExternalFrame(zero3, zero3, zero3)
        gamma = np.eye(6)
        assert frame_residual(fi, fe, gamma, 2.5) == pytest.approx(2.5)

    def test_residual_continuous_in_perturbation(self):
        fi = internal_frame(1.0, 1.0, IDENTITY)
        fe = external_frame(1.0, np.eye(3), IDENTITY)
        gamma = np.eye(6)
        base = frame_residual(fi, fe, gamma, 1.0)
        from tribody.frames import InternalFrame
        for delta in (1e-6, 1e-4, 1e-2):
            fi2 = InternalFrame(fi.x + np.array([delta, 0, 0]), fi.y, fi.z)
            r = frame_residual(fi2, fe, gamma, 1.0)
            assert r < base + 3 * delta + 1e-12


class TestGaugeFamily:
    def test_two_gauges_related_by_orthogonal_map(self):
        rng = np.random.default_rng(31)
        g, g33 = 2.0, 3.0
        O1, O2 = FrameGauge.random(rng), FrameGauge.random(rng)
        f1 = internal_frame(g, g33, O1)
        f2 = internal_frame(g, g33, O2)
        # V representation: V = sqrt(g) O, so V2 = (O2 O1^-1) V1
        S = np.diag([1.0, 1.0, math.sqrt(g33)])
        V1 = S @ f1.as_matrix()
        V2 = S @ f2.as_matrix()
        R = O2.O @ O1.O.T
        assert np.allclose(V2, R @ V1, atol=1e-12)

    def test_external_gauges_related_by_orthogonal_map(self):
        # W = sqrt(g) L^-T O, so L^T W2 = (L^T W1) O1^T O2
        rng = np.random.default_rng(37)
        g, Gamma = 1.7, random_spd(rng)
        O1, O2 = FrameGauge.random(rng), FrameGauge.random(rng)
        L = np.linalg.cholesky(Gamma)
        W1 = external_frame(g, Gamma, O1).as_matrix()
        W2 = external_frame(g, Gamma, O2).as_matrix()
        assert np.allclose(L.T @ W2, L.T @ W1 @ O1.O.T @ O2.O, atol=1e-12)
