"""Composable transform + regressor pipelines.

A pipeline owns the full signature-to-spec path of Figure 5:
standardize the raw FFT-bin signature, optionally compress it with PCA,
then regress.  The same fitted pipeline is used at calibration time (fit)
and production time (predict).

Inside a fit memo (:mod:`repro.regression.memo`), pipelines that start
with the same front end -- ``PCA(k)``, ``StandardScaler``, or both in a
row -- fitted on the same read-only array share that front end's fit
and its output.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.regression.memo import memoized

__all__ = ["Pipeline"]


class Pipeline:
    """Sequential transforms ending in a regressor.

    Every step except the last must expose ``fit``/``transform``; the
    last must expose ``fit(X, y)``/``predict(X)``.
    """

    def __init__(self, steps: Sequence):
        steps = list(steps)
        if not steps:
            raise ValueError("pipeline needs at least a final regressor")
        for s in steps[:-1]:
            if not (hasattr(s, "fit") and hasattr(s, "transform")):
                raise TypeError(f"{s!r} is not a transformer")
        last = steps[-1]
        if not (hasattr(last, "fit") and hasattr(last, "predict")):
            raise TypeError(f"{last!r} is not a regressor")
        self.steps: List = steps

    def fit(self, x: np.ndarray, y: np.ndarray) -> "Pipeline":
        z = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if z.ndim != 2:
            raise ValueError(
                f"x must be 2-D (n_samples, n_features), got shape {z.shape}"
            )
        if len(z) != len(y):
            raise ValueError(
                f"x and y disagree on sample count: {len(z)} signatures "
                f"vs {len(y)} spec values"
            )
        self._n_features = z.shape[1]
        for s in self.steps[:-1]:
            z = _fit_transform(s, z)
        self.steps[-1].fit(z, y)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        z = np.asarray(x, dtype=float)
        if z.ndim != 2:
            raise ValueError(
                f"x must be 2-D (n_samples, n_features), got shape {z.shape}"
            )
        n_fitted = getattr(self, "_n_features", None)
        if n_fitted is not None and z.shape[1] != n_fitted:
            raise ValueError(
                f"pipeline was fitted on {n_fitted} features but got "
                f"{z.shape[1]}"
            )
        for s in self.steps[:-1]:
            z = s.transform(z)
        return self.steps[-1].predict(z)


def _fit_transform(step, z: np.ndarray) -> np.ndarray:
    """``step.fit(z).transform(z)``, shared in a fit memo by keyed steps.

    A step with a ``_fit_key`` (its class and settings, which with ``z``
    decide the fit) fitted on a read-only ``z`` inside a fit memo
    shares the first such fit: later steps copy its fitted state into
    themselves, so every pipeline still owns its steps, and get its
    read-only output.
    """
    fit_key = getattr(step, "_fit_key", None)
    if fit_key is None:
        return step.fit(z).transform(z)

    def fit():
        step.fit(z)
        return dict(vars(step)), step.transform(z)

    state, out = memoized(("fit", fit_key()), (z,), fit)
    vars(step).update(state)
    return out
