"""Chaos quantification and asymptotic-channel labels.

The chaos indicator is the Kullback-Leibler distance between two
momentum-density tubes attached to neighboring classical trajectories;
sustained exponential growth D_ab(s) ~ exp(k*s) with k > 0 marks the
motion as quantum-chaotic.  Scattering outcomes are labeled by which
pair, if any, stays bound while the third body escapes.  The verdict's
gates and the channel window are constants here, which no config sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, FitError
from .kinematics import Masses, pair_distances
from .fokker_planck import MomentumGrid

__all__ = [
    "ChannelLabel",
    "ChaosReport",
    "kl_divergence",
    "growth_rate",
    "chaos_report",
    "classify_channel",
]

KL_FLOOR = 1e-300         # stand-in for Pb where Pa > 0 but Pb is not
RESIDUAL_MAX = 0.2        # the verdict trusts a fit whose RMS log-residual is below this
MIN_DECADES = 1.0         # fewest decades of growth of a "chaotic" series
WINDOW_FRAC = 0.2         # share of the samples in the channel reference window
MIN_WINDOW_SAMPLES = 4    # fewest samples in the channel reference window


class ChannelLabel(Enum):
    BOUND_23_FREE_1 = "bound_23_free_1"
    BOUND_12_FREE_3 = "bound_12_free_3"
    BOUND_13_FREE_2 = "bound_13_free_2"
    FULL_BREAKUP = "full_breakup"
    TRANSIENT = "transient"


def kl_divergence(
    Pa: MomentumGrid,
    Pb: MomentumGrid,
    return_diagnostics: bool = False,
):
    """Sum of Pa*ln(Pa/Pb)*cellvol over cells with Pa > 0.

    Cells where Pa > 0 but Pb is at or below KL_FLOOR use Pb = KL_FLOOR
    and are counted in the support-mismatch diagnostic.  Asymmetric by design:
    the direction is (a || b).
    """
    if not Pa.same_spec(Pb):
        raise DomainError("grids must share an identical spec")
    pa = Pa.P
    pb = Pb.P
    mask = pa > 0.0
    mismatch = int(np.count_nonzero(mask & (pb <= KL_FLOOR)))
    pb_safe = np.maximum(pb, KL_FLOOR)
    val = float(np.sum(pa[mask] * np.log(pa[mask] / pb_safe[mask])) * Pa.cell_volume)
    if return_diagnostics:
        return val, {"support_mismatch_cells": mismatch}
    return val


def growth_rate(s, D):
    """Least-squares slope k of ln D versus s over the samples with D > 0,
    of which at least 3 are required, plus the RMS log-residual."""
    s = np.asarray(s, dtype=float).reshape(-1)
    D = np.asarray(D, dtype=float).reshape(-1)
    mask = D > 0.0
    if np.count_nonzero(mask) < 3:
        raise FitError("need >= 3 samples with D > 0")
    sf, lf = s[mask], np.log(D[mask])
    k, b = np.polyfit(sf, lf, 1)
    resid = float(np.sqrt(np.mean((lf - (k * sf + b)) ** 2)))
    return float(k), resid


@dataclass
class ChaosReport:
    """KL series, fitted growth rate, and the chaos verdict."""

    s: np.ndarray
    D: np.ndarray
    k: float
    residual: float
    decades: float         # log10(max D / min D) over the fitted samples
    verdict: str
    fit_window: tuple
    direction: str = "a||b"
    thresholds: dict = field(default_factory=dict)
    # per KL pair, the cells where Pa > 0 and Pb is floored
    # (kl_divergence's diagnostic); set by the caller that has them
    support_mismatch_cells: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "series": [[float(a), float(b)] for a, b in zip(self.s, self.D)],
                "k": self.k,
                "residual": self.residual,
                "decades": self.decades,
                "verdict": self.verdict,
                "fit_window": list(self.fit_window),
                "direction": self.direction,
                "thresholds": self.thresholds,
                "support_mismatch_cells": self.support_mismatch_cells,
            },
            indent=2,
            sort_keys=True,
        )


def chaos_report(s, D) -> ChaosReport:
    """Fit the KL series over its whole span and apply the verdict gate.

    "chaotic" requires k > 0, RMS log-residual below RESIDUAL_MAX, and at
    least MIN_DECADES decades of growth over the fitted samples; decaying
    or flat series with a clean fit, and an all-zero series, are
    "regular"; anything else (including an unusable fit) is "inconclusive".
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    D = np.asarray(D, dtype=float).reshape(-1)
    if np.any(D < 0.0):
        raise DomainError("KL series must be nonnegative")
    k = resid = decades = 0.0   # identical tubes: zero distance throughout
    if not np.all(D == 0.0):
        try:
            k, resid = growth_rate(s, D)
        except FitError:   # NaN fails both tests of the gate below
            k = resid = decades = float("nan")
        else:
            fitted = D[D > 0.0]
            decades = float(np.log10(fitted.max() / fitted.min()))
    if k > 0.0 and resid < RESIDUAL_MAX and decades >= MIN_DECADES:
        verdict = "chaotic"
    elif resid < RESIDUAL_MAX and (k <= 0.0 or decades < MIN_DECADES):
        verdict = "regular"
    else:
        verdict = "inconclusive"
    return ChaosReport(s=s, D=D, k=k, residual=resid, decades=decades, verdict=verdict,
                       fit_window=(float(s[0]), float(s[-1])),
                       thresholds={"residual_max": RESIDUAL_MAX, "min_decades": MIN_DECADES})


def _monotone_growing(d, tol_frac=1e-9):
    tol = tol_frac * max(abs(d[0]), abs(d[-1]), 1.0)
    return bool(np.all(np.diff(d) >= -tol) and d[-1] > d[0])


def classify_channel(
    s,
    x,
    masses: Masses,
    r_bound: float,
    r_free: float,
) -> ChannelLabel:
    """Label the asymptotic outcome of a trajectory.

    A pair is bound when its separation stays below r_bound over the final
    reference window, the last WINDOW_FRAC of the samples, while the third
    body's distance from the pair's center of mass grows monotonically
    past r_free.  All three separations growing past r_free means full
    breakup; anything else is a transient complex.  Recommended:
    r_bound = 3*d0, r_free = 10*d0 of the potential length scale.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(len(s), 3)
    n_win = max(MIN_WINDOW_SAMPLES, int(math.ceil(WINDOW_FRAC * len(s))))
    if len(s) < MIN_WINDOW_SAMPLES:
        raise DomainError("trajectory shorter than the minimum reference window")
    w = slice(len(s) - n_win, len(s))

    # column c is the pair without body c + 1: the pairs (free, i) and
    # (free, j) are columns j and i, the pair (i, j) is column free
    d = pair_distances(x[w], masses)
    m = (masses.m1, masses.m2, masses.m3)
    bound = (ChannelLabel.BOUND_23_FREE_1, ChannelLabel.BOUND_13_FREE_2,
             ChannelLabel.BOUND_12_FREE_3)
    for free, label in enumerate(bound):
        i, j = (c for c in range(3) if c != free)
        mij = m[i] + m[j]
        # |r_free - cm(i,j)|^2 = (mi*d_fi^2 + mj*d_fj^2)/(mi+mj) - mi*mj*d_ij^2/(mi+mj)^2
        val = (m[i] * d[:, j]**2 + m[j] * d[:, i]**2) / mij - m[i] * m[j] * d[:, free]**2 / mij**2
        third = np.sqrt(np.maximum(val, 0.0))
        if d[:, free].max() < r_bound and _monotone_growing(third) and third[-1] > r_free:
            return label

    if all(_monotone_growing(d[:, c]) and d[-1, c] > r_free for c in range(3)):
        return ChannelLabel.FULL_BREAKUP
    return ChannelLabel.TRANSIENT
