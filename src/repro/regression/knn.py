"""Distance-weighted k-nearest-neighbour regression.

A fully nonparametric calibration model: predict a device's spec as the
inverse-distance-weighted average of the most similar training devices'
measured specs.  Works well when the training set densely covers the
process spread, degrades gracefully when it does not -- which is exactly
the trade the paper's hardware experiment faced with only 28 calibration
devices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.regression.rowwise import rowwise_matmul

__all__ = ["KNNRegressor"]


class KNNRegressor:
    """k-NN with inverse-distance weights.

    Parameters
    ----------
    k:
        Neighbour count (clipped to the training-set size at fit time).
    weights:
        ``"distance"`` (default) or ``"uniform"``.
    """

    def __init__(self, k: int = 5, weights: str = "distance"):
        if k < 1:
            raise ValueError("k must be >= 1")
        if weights not in ("distance", "uniform"):
            raise ValueError("weights must be 'distance' or 'uniform'")
        self.k = int(k)
        self.weights = weights
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNNRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
            raise ValueError("x must be (n, d) and y (n,)")
        if len(x) < 1:
            raise ValueError("training set is empty")
        self._x = x.copy()
        self._y = y.copy()
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._x is None or self._y is None:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self._x.shape[1]:
            raise ValueError(
                f"feature count {x.shape[1]} != fitted {self._x.shape[1]}"
            )
        k = min(self.k, len(self._x))
        # pairwise squared distances, (n_query, n_train)
        d2 = (
            np.sum(x**2, axis=1)[:, None]
            - 2.0 * rowwise_matmul(x, self._x)
            + np.sum(self._x**2, axis=1)[None, :]
        )
        d2 = np.maximum(d2, 0.0)
        idx = np.argpartition(d2, kth=k - 1, axis=1)[:, :k]
        rows = np.arange(len(x))[:, None]
        neigh_d = np.sqrt(d2[rows, idx])
        neigh_y = self._y[idx]
        if self.weights == "uniform":
            pred = neigh_y.mean(axis=1)
        else:
            # exact matches get all the weight
            w = 1.0 / np.maximum(neigh_d, 1e-12)
            exact = neigh_d <= 1e-12
            has_exact = exact.any(axis=1)
            w[has_exact] = exact[has_exact].astype(float)
            pred = np.sum(w * neigh_y, axis=1) / np.sum(w, axis=1)
        return pred[0] if single else pred
