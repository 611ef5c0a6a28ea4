"""Quantum-fluctuation noise as a Langevin extension.

Freezes the geodesic coefficients along a reference trajectory, then
propagates a momentum ensemble under white noise of power eps in both
the additive (Euler) and multiplicative (Stratonovich Heun) forms, each
drawing two-point increments.  Zero noise must reproduce the
deterministic flow; finite noise spreads the ensemble at a rate set by
eps.
"""

import numpy as np

from tribody import (
    CoefficientSchedule,
    EnergySurface,
    GeodesicState,
    Masses,
    MorsePotential,
    NoiseModel,
    integrate,
    run_ensemble,
)

masses = Masses(1.0, 1.0, 1.0)
potential = MorsePotential(masses, D=1.0, alpha=1.0, d0=2.0)
surface = EnergySurface(E=1.0, U0=3.0, potential=potential)
state0 = GeodesicState(x=[2.0, 3.0, 3.5], xi=[0.1, -0.2, 0.05])

traj = integrate(state0, surface, J=(0.1, 0.0, 0.0), s_end=2.0,
                 tol=1e-10, n_samples=256)
schedule = CoefficientSchedule.from_trajectory(traj)

# sanity: eps = 0 collapses both steppers onto the deterministic flow
quiet = NoiseModel(epsilon=0.0, seed=0)
for mode in ("additive", "multiplicative"):
    res = run_ensemble(8, schedule, state0.xi, ds=5e-4, mode=mode, noise=quiet)
    err = np.max(np.abs(res.xi_final - traj.xi[-1]))
    print(f"zero-noise {mode:>14s}: endpoint error vs deterministic = {err:.2e}")

# ensemble spread grows with the noise power
print("\n  eps      rms momentum spread at s = 2")
for eps in (1e-4, 1e-3, 1e-2):
    noise = NoiseModel(epsilon=eps, seed=7)
    res = run_ensemble(2000, schedule, state0.xi, ds=2e-3,
                       mode="additive", noise=noise)
    spread = np.sqrt(np.mean(np.var(res.xi_final, axis=0)))
    print(f"  {eps:.0e}  {spread:.5f}   (blowups: {len(res.blowups)})")

# counter-based noise: the same seed reproduces the ensemble bit for bit
a = run_ensemble(100, schedule, state0.xi, ds=2e-3, mode="additive",
                 noise=NoiseModel(epsilon=1e-3, seed=42))
b = run_ensemble(100, schedule, state0.xi, ds=2e-3, mode="additive",
                 noise=NoiseModel(epsilon=1e-3, seed=42))
print("\nsame-seed reruns bit-identical:", np.array_equal(a.xi_final, b.xi_final))
