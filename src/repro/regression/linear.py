"""Ordinary and ridge least squares.

The workhorse calibration models.  With standardized FFT-bin features
(tens to hundreds of columns) and on the order of a hundred training
devices, ridge regularization is what keeps the calibration from chasing
measurement noise -- exactly the Equation-10 trade-off, now at the
regression stage.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.regression.memo import memoized
from repro.regression.rowwise import rowwise_matmul

__all__ = ["LinearRegression", "RidgeRegression"]


class RidgeRegression:
    """Linear model ``y = X w + b`` with L2 penalty on ``w``.

    Solved in closed form: ``w = (X^T X + alpha I)^-1 X^T y`` on centered
    data, so the intercept is never penalized.  With fewer samples than
    features the equivalent dual form ``w = X^T (X X^T + alpha I)^-1 y``
    is solved instead.
    """

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = float(alpha)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be (n_samples, n_features)")
        if y.ndim != 1 or len(y) != len(x):
            raise ValueError("y must be a vector matching x's row count")
        if len(x) < 2:
            raise ValueError("need at least two training samples")
        n_samples, n_features = x.shape
        # wide data (e.g. thousands of raw FFT bins, a dozen devices):
        # the dual form w = Xc^T (Xc Xc^T + alpha I)^-1 yc is the same
        # solution from an n x n system, O(n^2 d) instead of O(d^3)
        dual = n_samples < n_features
        # every alpha fitted on one read-only x shares its centring and
        # Gram inside a fit memo (repro.regression.memo)
        x_mean, xc, base = memoized(
            ("centred_gram", dual), (x,), lambda: _centred_gram(x, dual)
        )
        y_mean = y.mean()
        yc = y - y_mean
        # solve instead of invert: better conditioned and faster
        try:
            if dual:
                kernel = base + self.alpha * np.eye(n_samples)
                w = xc.T @ np.linalg.solve(kernel, yc)
            else:
                gram = base + self.alpha * np.eye(n_features)
                w = np.linalg.solve(gram, xc.T @ yc)
        except np.linalg.LinAlgError:
            gram = xc.T @ xc + self.alpha * np.eye(n_features)
            w, *_ = np.linalg.lstsq(gram, xc.T @ yc, rcond=None)
        self.coef_ = w
        self.intercept_ = float(y_mean - x_mean @ w)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != len(self.coef_):
            raise ValueError(
                f"feature count {x.shape[1]} != fitted {len(self.coef_)}"
            )
        out = rowwise_matmul(x, self.coef_) + self.intercept_
        return out[0] if single else out


def _centred_gram(x: np.ndarray, dual: bool):
    """``(mean, xc, gram)``: ``x``'s column means, ``x`` centred on them,
    and ``xc @ xc.T`` (``dual``) or ``xc.T @ xc``."""
    x_mean = x.mean(axis=0)
    xc = x - x_mean
    return x_mean, xc, xc @ xc.T if dual else xc.T @ xc


class LinearRegression(RidgeRegression):
    """Ordinary least squares (ridge with a tiny numerical alpha).

    A strictly zero penalty can leave the normal equations singular when
    features outnumber samples; the 1e-10 floor keeps the closed form
    usable without meaningfully biasing well-posed fits.
    """

    def __init__(self):
        super().__init__(alpha=1e-10)
