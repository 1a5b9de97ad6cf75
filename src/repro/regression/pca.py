"""Principal-component analysis from scratch.

The FFT-magnitude signature has as many components as spectrum bins, but
the underlying process variation spans only a handful of directions (the
LNA's signature is essentially two-dimensional).  PCA compresses the
signature before nonlinear models that scale poorly with input dimension
(polynomial expansion, k-NN, MARS).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.regression.memo import memoized
from repro.regression.rowwise import rowwise_matmul

__all__ = ["PCA"]


def _centred_svd(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mean, s, vt)`` of ``x`` minus its column means."""
    mean = x.mean(axis=0)
    _u, s, vt = np.linalg.svd(x - mean, full_matrices=False)
    return mean, s, vt


class PCA:
    """SVD-based PCA.

    Parameters
    ----------
    n_components:
        Number of components kept.  ``None`` keeps all (up to the data
        rank).
    """

    def __init__(self, n_components: Optional[int] = None):
        if n_components is not None and n_components < 1:
            raise ValueError("n_components must be >= 1 or None")
        self.n_components = n_components
        self.mean_: Optional[np.ndarray] = None
        self.components_: Optional[np.ndarray] = None  # (n_components, n_features)
        self.explained_variance_: Optional[np.ndarray] = None
        self.total_variance_: float = 0.0

    def _fit_key(self) -> tuple:
        """What, besides the training array, decides this fit (see
        :class:`~repro.regression.pipeline.Pipeline`)."""
        return ("PCA", self.n_components)

    def fit(self, x: np.ndarray) -> "PCA":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or len(x) < 2:
            raise ValueError("fit expects at least two samples")
        # PCA fits of several component counts on one read-only array
        # share its SVD inside a fit memo (repro.regression.memo)
        self.mean_, s, vt = memoized("centred_svd", (x,), lambda: _centred_svd(x))
        var = s**2 / max(len(x) - 1, 1)
        k = len(s) if self.n_components is None else min(self.n_components, len(s))
        self.components_ = vt[:k]
        self.explained_variance_ = var[:k]
        self.total_variance_ = float(var.sum())
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.components_ is None or self.mean_ is None:
            raise RuntimeError("PCA is not fitted")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != len(self.mean_):
            raise ValueError(
                f"feature count {x.shape[1]} != fitted {len(self.mean_)}"
            )
        z = rowwise_matmul(x - self.mean_, self.components_)
        return z[0] if single else z

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        if self.components_ is None or self.mean_ is None:
            raise RuntimeError("PCA is not fitted")
        z = np.asarray(z, dtype=float)
        single = z.ndim == 1
        if single:
            z = z[None, :]
        x = z @ self.components_ + self.mean_
        return x[0] if single else x

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def explained_variance_ratio(self) -> np.ndarray:
        """Fraction of the *total* data variance captured per component."""
        if self.explained_variance_ is None:
            raise RuntimeError("PCA is not fitted")
        if self.total_variance_ == 0.0:
            return np.zeros_like(self.explained_variance_)
        return self.explained_variance_ / self.total_variance_
