"""Quantum chaos via KL divergence, and scattering-channel labels.

Attaches probability tubes to two neighboring trajectories, measures
the Kullback-Leibler distance between their momentum densities, fits
the exponential growth rate, and finally labels the asymptotic outcomes
of a few constructed three-body motions.
"""

import numpy as np

from tribody import (
    CoefficientSchedule,
    EnergySurface,
    FpeConfig,
    GeodesicState,
    Masses,
    MomentumGrid,
    MorsePotential,
    chaos_report,
    classify_channel,
    fpe_evolve,
    integrate,
    internal_from_jacobi,
    kl_divergence,
    mass_scaled_jacobi,
)


def gaussian(spec, center, sigma):
    mesh = spec.mesh()
    grid = spec.copy_with(np.exp(-0.5 * np.sum((mesh - np.asarray(center)) ** 2, -1) / sigma**2))
    grid.P[0] = grid.P[-1] = 0.0
    grid.P[:, 0] = grid.P[:, -1] = 0.0
    grid.P[:, :, 0] = grid.P[:, :, -1] = 0.0
    grid.normalize()
    return grid


# --- two probability tubes from neighboring initial shapes ---
masses = Masses(1.0, 1.0, 1.0)
potential = MorsePotential(masses, D=1.0, alpha=1.0, d0=2.0)
surface = EnergySurface(E=1.0, U0=3.0, potential=potential)
xi0 = np.array([0.1, -0.2, 0.05])
delta = 1e-3

snapshots = tuple(np.linspace(0.4, 2.0, 5))
spec = MomentumGrid([-1.5] * 3, [1.5] * 3, (24, 24, 24))
series = []
for dx in (0.0, delta):
    traj = integrate(GeodesicState(x=np.array([2.0, 3.0, 3.5]) + dx, xi=xi0),
                     surface, J=(0.1, 0.0, 0.0), s_end=2.0, tol=1e-9,
                     n_samples=256)
    cfg = FpeConfig(epsilon=0.01,
                    schedule=CoefficientSchedule.from_trajectory(traj))
    res = fpe_evolve(gaussian(spec, xi0, 0.25), (0.0, traj.s[-1]), cfg,
                     snapshot_s=snapshots)
    series.append(res.snapshots)

s_vals, D = [], []
for (s, ga), (_, gb) in zip(*series):
    ga.normalize()
    gb.normalize()
    s_vals.append(s)
    D.append(kl_divergence(ga, gb)[0])
print("KL distance between neighboring tubes:")
for s, d in zip(s_vals, D):
    print(f"  s = {s:.2f}: D = {d:.3e}")
report = chaos_report(np.array(s_vals), np.array(D))
print(f"fitted growth rate k = {report.k:.3f}"
      f" (log-residual {report.residual:.3f}) -> verdict: {report.verdict}")

# --- channel labels on constructed outcomes ---
times = np.linspace(0.0, 10.0, 50)


def internal(r1, r2, r3):
    rows = []
    for t in times:
        j = mass_scaled_jacobi(r1(t), r2(t), r3(t), masses)
        x = internal_from_jacobi(j)
        rows.append([x.x1, x.x2, x.x3])
    return np.array(rows)


motions = {
    "pair (2,3) bound, body 1 escapes": internal(
        lambda t: np.array([0.0, 0.0, 2.0 + 4.0 * t]),
        lambda t: np.array([0.5 + 0.2 * np.sin(3 * t), 0.0, 0.0]),
        lambda t: np.array([-0.5 - 0.2 * np.sin(3 * t), 0.0, 0.0])),
    "all three separate": internal(
        lambda t: (1.0 + 3.0 * t) * np.array([1.0, 0.0, 0.0]),
        lambda t: (1.0 + 3.0 * t) * np.array([-0.5, 0.9, 0.0]),
        lambda t: (1.0 + 3.0 * t) * np.array([-0.5, -0.9, 0.0])),
    "lingering triple complex": internal(
        lambda t: np.array([1.0 + 0.3 * np.sin(t), 0.0, 0.0]),
        lambda t: np.array([-0.5, 0.9 + 0.3 * np.cos(t), 0.0]),
        lambda t: np.array([-0.5, -0.9, 0.2 * np.sin(2 * t)])),
}
print("\nchannel classification:")
for name, x in motions.items():
    label = classify_channel(times, x, masses, r_bound=3.0, r_free=10.0)
    print(f"  {name:35s} -> {label.value}")
