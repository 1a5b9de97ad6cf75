"""Polynomial feature expansion and polynomial ridge regression.

The calibration relationship between FFT-bin magnitudes and specs in dB
is mildly nonlinear (log compression, describing-function gain).  A
degree-2 polynomial over a PCA-compressed signature captures most of that
curvature at very low model complexity.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import List, Optional, Tuple

import numpy as np

from repro.regression.linear import RidgeRegression

__all__ = ["PolynomialFeatures", "PolynomialRidge"]


class PolynomialFeatures:
    """Expand features with all monomials up to ``degree``.

    For inputs ``(x1, .., xd)`` and degree 2 the output columns are
    ``x1..xd, x1^2, x1 x2, .., xd^2`` (no constant column -- downstream
    models fit their own intercept).
    """

    def __init__(self, degree: int = 2, interaction_only: bool = False):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = int(degree)
        self.interaction_only = bool(interaction_only)
        #: per output column: (column of its prefix monomial or -1, input)
        self._steps: Optional[List[Tuple[int, int]]] = None
        self._n_inputs: Optional[int] = None

    def fit(self, x: np.ndarray) -> "PolynomialFeatures":
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be (n_samples, n_features)")
        d = x.shape[1]
        combos: List[Tuple[int, ...]] = []
        for deg in range(1, self.degree + 1):
            for combo in combinations_with_replacement(range(d), deg):
                if self.interaction_only and len(set(combo)) != len(combo):
                    continue
                combos.append(combo)
        # a monomial's prefix has a lower degree, so it comes first
        column = {combo: j for j, combo in enumerate(combos)}
        self._steps = [(column.get(combo[:-1], -1), combo[-1]) for combo in combos]
        self._n_inputs = d
        return self

    @property
    def n_output_features(self) -> int:
        if self._steps is None:
            raise RuntimeError("not fitted")
        return len(self._steps)

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self._steps is None or self._n_inputs is None:
            raise RuntimeError("not fitted")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self._n_inputs:
            raise ValueError(
                f"feature count {x.shape[1]} != fitted {self._n_inputs}"
            )
        # each monomial is its prefix monomial times one input: the
        # left-to-right product np.prod(x[:, combo], axis=1) takes
        out = np.empty((len(x), len(self._steps)))
        for j, (prefix, k) in enumerate(self._steps):
            if prefix < 0:
                out[:, j] = x[:, k]
            else:
                np.multiply(out[:, prefix], x[:, k], out=out[:, j])
        return out[0] if single else out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)


class PolynomialRidge:
    """Ridge regression on polynomial features.

    Intended for low-dimensional inputs (apply PCA first for FFT-bin
    signatures); the feature count grows combinatorially with dimension.
    """

    def __init__(self, degree: int = 2, alpha: float = 1.0):
        self.features = PolynomialFeatures(degree=degree)
        self.model = RidgeRegression(alpha=alpha)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "PolynomialRidge":
        z = self.features.fit_transform(np.asarray(x, dtype=float))
        self.model.fit(z, np.asarray(y, dtype=float))
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.model.predict(self.features.transform(np.asarray(x, dtype=float)))
