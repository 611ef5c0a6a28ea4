"""Helpers shared by the test modules."""

import numpy as np

from tribody import PotentialModel


class CallablePotential(PotentialModel):
    """Wrap plain point-wise callables f(x) and grad(x) as a potential model.

    The callables see one point (3,) at a time; batched input is mapped
    over its rows here, so they need not broadcast.
    """

    def __init__(self, f, grad):
        self._f = f
        self._grad = grad

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self._f(x))
        return np.array([float(self._f(p)) for p in x.reshape(-1, 3)]).reshape(x.shape[:-1])

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        rows = [np.asarray(self._grad(p), dtype=float) for p in x.reshape(-1, 3)]
        return np.array(rows).reshape(x.shape)
