"""Feature and target standardization.

Figure 5 of the paper normalizes both signatures and specifications
before fitting the calibration relationships; :class:`StandardScaler`
is that normalization (zero mean, unit variance per column, with
constant columns left untouched rather than divided by zero).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["StandardScaler"]


class StandardScaler:
    """Column-wise standardization fitted on training data.

    ``transform`` accepts either a matrix ``(n_samples, n_features)`` or a
    single sample vector ``(n_features,)`` and returns the same shape.
    """

    def __init__(self):
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None

    @property
    def n_features(self) -> int:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        return len(self.mean_)

    def _fit_key(self) -> tuple:
        """What, besides the training array, decides this fit (see
        :class:`~repro.regression.pipeline.Pipeline`)."""
        return ("StandardScaler",)

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or len(x) < 1:
            raise ValueError("fit expects a non-empty (n_samples, n_features) array")
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        # constant columns carry no information; leave them unscaled so
        # transform() maps them to exactly zero
        self.scale_ = np.where(std > 0.0, std, 1.0)
        return self

    def _coerce(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("scaler is not fitted")
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ValueError("expected a vector or a matrix")
        if x.shape[-1] != self.n_features:
            raise ValueError(
                f"feature count {x.shape[-1]} != fitted {self.n_features}"
            )
        return x

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = self._coerce(x)
        return (x - self.mean_) / self.scale_

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        z = self._coerce(z)
        return z * self.scale_ + self.mean_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)
