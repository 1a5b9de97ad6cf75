"""Forward-stagewise adaptive hinge regression (MARS-style).

A from-scratch implementation of the multivariate-adaptive-regression
family the paper's references [4] and [9] draw on: the model is a sum of
hinge basis functions

    y ~ b0 + sum_m c_m * h_m(x),    h(x) = max(0, +/-(x_j - t))

grown greedily.  Each forward step scans every (feature, knot, sign)
candidate, adds the pair of hinges that most reduces the residual sum of
squares, and refits all coefficients by least squares.  Growth stops at
``max_terms`` or when the generalized cross-validation (GCV) score stops
improving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.regression.metrics import first_minimum
from repro.regression.rowwise import rowwise_matmul

__all__ = ["HingeBasis", "MARSRegressor"]


@dataclass(frozen=True)
class HingeBasis:
    """One hinge function ``max(0, sign * (x[feature] - knot))``."""

    feature: int
    knot: float
    sign: int  # +1 or -1

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        v = self.sign * (x[:, self.feature] - self.knot)
        return np.maximum(v, 0.0)


class MARSRegressor:
    """Greedy hinge-basis regression.

    Parameters
    ----------
    max_terms:
        Maximum number of hinge bases (pairs count as two).
    n_knots:
        Candidate knots per feature (taken at training-data quantiles).
    min_improvement:
        Forward growth stops when the relative GCV improvement of the
        best candidate falls below this threshold.
    ridge:
        Small L2 term stabilizing the repeated least-squares refits.
    """

    def __init__(
        self,
        max_terms: int = 10,
        n_knots: int = 7,
        min_improvement: float = 1e-4,
        ridge: float = 1e-8,
    ):
        if max_terms < 2:
            raise ValueError("max_terms must be >= 2")
        if n_knots < 1:
            raise ValueError("n_knots must be >= 1")
        self.max_terms = int(max_terms)
        self.n_knots = int(n_knots)
        self.min_improvement = float(min_improvement)
        self.ridge = float(ridge)
        self.bases_: List[HingeBasis] = []
        self.coef_: Optional[np.ndarray] = None  # includes intercept first

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def _design(self, x: np.ndarray, bases: List[HingeBasis]) -> np.ndarray:
        cols = [np.ones(len(x))]
        cols.extend(b.evaluate(x) for b in bases)
        return np.column_stack(cols)

    def _solve(self, design: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Ridge least squares; a ``(K, n, p)`` stack solves K designs.

        Each stacked slice gets bit-for-bit the coefficients of its own
        2-D solve, and a singular Gram anywhere raises ``LinAlgError``.
        """
        design_t = np.swapaxes(design, -1, -2)
        gram = design_t @ design + self.ridge * np.eye(design.shape[-1])
        return np.linalg.solve(gram, (design_t @ y)[..., None])[..., 0]

    def _gcv(self, rss, n: int, n_params: int):
        """Friedman's GCV criterion with the usual complexity penalty
        (elementwise for an array of residual sums of squares)."""
        penalty = n_params + 0.5 * 3.0 * (n_params - 1)
        denom = (1.0 - penalty / n) ** 2 if penalty < n else np.inf
        if denom == 0 or not np.isfinite(denom):
            return np.full(np.shape(rss), np.inf) if np.ndim(rss) else np.inf
        return rss / (n * denom)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MARSRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or len(x) != len(y):
            raise ValueError("x must be (n, d) and y (n,)")
        n, d = x.shape
        if n < 4:
            raise ValueError("need at least four training samples")

        # candidate knots at interior quantiles of each feature, in
        # feature-major order; every candidate's hinge pair is evaluated
        # once, as rows of (C, n)
        qs = np.linspace(0.0, 1.0, self.n_knots + 2)[1:-1]
        knots = np.quantile(x, qs, axis=0).T.ravel()
        features = np.repeat(np.arange(d), len(qs))
        diff = x[:, features] - knots
        hinge_pos = np.maximum(diff, 0.0).T.copy()
        hinge_neg = np.maximum(-diff, 0.0).T.copy()
        # a pair already in the model is not a candidate
        open_ = np.ones(len(knots), dtype=bool)

        bases: List[HingeBasis] = []
        design = self._design(x, bases)
        coef = self._solve(design, y)
        resid = y - design @ coef
        best_gcv = self._gcv(float(resid @ resid), n, design.shape[1])

        while len(bases) + 2 <= self.max_terms:
            active = np.flatnonzero(open_)
            if not active.size:
                break
            # every candidate's trial design, Gram, solve, residual and
            # GCV as one stacked (K, n, p + 2) operation each
            p = design.shape[1]
            trials = np.empty((len(active), n, p + 2))
            trials[:, :, :p] = design
            trials[:, :, p] = hinge_pos[active]
            trials[:, :, p + 1] = hinge_neg[active]
            coefs = self._solve(trials, y)
            resid = y - (trials @ coefs[:, :, None])[:, :, 0]
            rss = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
            gcvs = self._gcv(rss, n, p + 2)
            # the one-candidate-at-a-time scan's pick: its first strict
            # minimum (a NaN never displaces it)
            k_best = first_minimum(gcvs)
            gcv = float(gcvs[k_best])
            if best_gcv - gcv < self.min_improvement * max(best_gcv, 1e-300):
                break
            c = active[k_best]
            j, t = int(features[c]), float(knots[c])
            bases.extend([HingeBasis(j, t, +1), HingeBasis(j, t, -1)])
            # float ==, like HingeBasis equality: tied knots leave
            # together, a NaN knot never does
            open_ &= (features != j) | (knots != t)
            design = trials[k_best]
            coef = coefs[k_best]
            best_gcv = gcv

        self.bases_ = bases
        self.coef_ = coef
        return self

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        out = rowwise_matmul(self._design(x, self.bases_), self.coef_)
        return out[0] if single else out

    @property
    def n_terms(self) -> int:
        """Number of hinge bases in the fitted model."""
        return len(self.bases_)
