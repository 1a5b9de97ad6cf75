"""Prediction-quality metrics.

The paper reports "std(err)" on its scatter plots (Figures 8-10) and "RMS
error" for the hardware experiment (Figures 12-13); both are provided
here along with the usual companions.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rmse", "std_err", "mae", "bias", "r2_score", "first_minimum"]


def _pair(y_true, y_pred):
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("y_true and y_pred must be equal-length vectors")
    if len(y_true) == 0:
        raise ValueError("empty inputs")
    return y_true, y_pred


def rmse(y_true, y_pred) -> float:
    """Root-mean-square prediction error."""
    y_true, y_pred = _pair(y_true, y_pred)
    return float(np.sqrt(np.mean((y_pred - y_true) ** 2)))


def std_err(y_true, y_pred) -> float:
    """Standard deviation of the prediction error (bias removed).

    This is the "std(err)" the paper quotes under its scatter plots.
    """
    y_true, y_pred = _pair(y_true, y_pred)
    return float(np.std(y_pred - y_true))


def mae(y_true, y_pred) -> float:
    """Mean absolute prediction error."""
    y_true, y_pred = _pair(y_true, y_pred)
    return float(np.mean(np.abs(y_pred - y_true)))


def bias(y_true, y_pred) -> float:
    """Mean signed prediction error."""
    y_true, y_pred = _pair(y_true, y_pred)
    return float(np.mean(y_pred - y_true))


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination.

    1 for perfect prediction, 0 for predicting the mean, negative for
    worse than the mean.  Returns 0 when the targets are constant and
    perfectly predicted, -inf when constant and mispredicted.
    """
    y_true, y_pred = _pair(y_true, y_pred)
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if ss_tot == 0.0:
        return 0.0 if ss_res == 0.0 else -np.inf
    return 1.0 - ss_res / ss_tot


def first_minimum(values: np.ndarray) -> int:
    """Index a running strict-minimum scan over ``values`` ends on.

    The loop ``best = 0; if values[i] < values[best]: best = i``: the
    first occurrence of the smallest non-NaN value, NaNs never picked
    -- unless ``values[0]`` is NaN, which no comparison can displace.
    """
    values = np.asarray(values, dtype=float)
    if np.isnan(values[0]):
        return 0
    return int(np.argmin(np.where(np.isnan(values), np.inf, values)))
