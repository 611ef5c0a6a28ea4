"""Potential models: batched evaluation, analytic gradients and the pair
geometry, as properties over random masses and configurations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tribody import (
    FreePotential,
    GravityPotential,
    Masses,
    MorsePotential,
    pair_distances,
)

from helpers import CallablePotential

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

mass = st.floats(0.1, 10.0)
masses = st.builds(Masses, mass, mass, mass)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def models(draw):
    m = draw(masses)
    if draw(st.booleans()):
        return m, MorsePotential(m, D=draw(st.floats(0.1, 5.0)), alpha=draw(st.floats(0.2, 3.0)),
                                 d0=draw(st.floats(0.5, 3.0)))
    return m, GravityPotential(m, G=draw(st.floats(0.1, 5.0)), softening=draw(st.floats(0.1, 1.0)))


def triangles(seed, n):
    """n internal configurations (x1, x2, x3) that satisfy the triangle
    inequality with some room, so no pair separation vanishes."""
    rng = np.random.default_rng(seed)
    x1, x2 = rng.uniform(0.5, 4.0, size=(2, n))
    lo, hi = np.abs(x1 - x2), x1 + x2
    x3 = lo + rng.uniform(0.05, 0.95, size=n) * (hi - lo)
    return np.stack([x1, x2, x3], axis=-1)


@PROPERTY
@given(models(), seeds)
def test_batch_equals_row_by_row(model, seed):
    _, pot = model
    X = triangles(seed, 64).reshape(4, 16, 3)
    rows = X.reshape(-1, 3)
    u_rows = np.array([pot.evaluate(x) for x in rows]).reshape(4, 16)
    g_rows = np.array([pot.gradient(x) for x in rows]).reshape(4, 16, 3)
    np.testing.assert_allclose(pot.evaluate(X), u_rows, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(pot.gradient(X), g_rows, rtol=1e-15, atol=0.0)
    assert isinstance(pot.evaluate(rows[0]), float)


@PROPERTY
@given(models(), seeds)
def test_gradient_matches_central_differences(model, seed):
    _, pot = model
    X = triangles(seed, 8)
    h = 1e-6
    fd = np.stack([(pot.evaluate(X + h * e) - pot.evaluate(X - h * e)) / (2 * h)
                   for e in np.eye(3)], axis=-1)
    # rounding in the differences grows with |U| / h
    scale = max(1.0, float(np.max(np.abs(pot.evaluate(X)))))
    np.testing.assert_allclose(pot.gradient(X), fd, rtol=1e-6, atol=1e-8 * scale)


@PROPERTY
@given(models(), seeds)
def test_pair_distances_match_kinematics(model, seed):
    # the energy is the closed-form pair law at the kinematic separations,
    # column p - 1 being the pair without body p
    m, pot = model
    X = triangles(seed, 32)
    d = pair_distances(X, m)
    if isinstance(pot, GravityPotential):
        mm = (m.m2 * m.m3, m.m1 * m.m3, m.m1 * m.m2)
        u = sum(-pot.G * mm[p] / np.sqrt(d[:, p] ** 2 + pot.softening**2) for p in range(3))
    else:
        u = (pot.D * ((1.0 - np.exp(-pot.alpha * (d - pot.d0))) ** 2 - 1.0)).sum(-1)
    np.testing.assert_allclose(pot.evaluate(X), u, rtol=1e-12, atol=1e-12)


class TestPointwiseModels:
    def test_callable_is_mapped_over_rows(self):
        # a point-wise callable: on a batch, x[0] would be the first row
        pot = CallablePotential(lambda x: x[0], lambda x: np.array([1.0, 0.0, x[2]]))
        X = np.arange(12.0).reshape(2, 2, 3)
        assert np.array_equal(pot.evaluate(X), X[..., 0])
        expected = np.stack([np.ones((2, 2)), np.zeros((2, 2)), X[..., 2]], axis=-1)
        assert np.array_equal(pot.gradient(X), expected)
        assert pot.evaluate(X[0, 1]) == 3.0

    def test_free_potential_shapes(self):
        pot = FreePotential()
        X = np.ones((5, 3))
        assert np.array_equal(pot.evaluate(X), np.zeros(5))
        assert np.array_equal(pot.gradient(X), np.zeros((5, 3)))
        assert pot.evaluate(X[0]) == 0.0
