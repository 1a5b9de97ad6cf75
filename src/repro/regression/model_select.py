"""k-fold cross-validation and model selection.

The calibration stage picks, per specification, whichever regression
pipeline cross-validates best on the training devices.  Model factories
(zero-argument callables returning unfitted models) keep state from
leaking between folds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.regression.metrics import rmse
from repro.regression.memo import fit_memo

__all__ = ["kfold_indices", "cross_val_rmse", "select_best_model"]

ModelFactory = Callable[[], object]


def kfold_indices(
    n: int, k: int, rng: np.random.Generator
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold split of ``range(n)`` into (train, test) index pairs."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    perm = rng.permutation(n)
    folds = np.array_split(perm, k)
    out = []
    for i in range(k):
        test = folds[i]
        train = np.concatenate([folds[j] for j in range(k) if j != i])
        out.append((train, test))
    return out


def _cross_val_scores(
    candidates: Dict[str, ModelFactory],
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> Dict[str, float]:
    """Mean held-out RMSE per candidate over one k-fold split from ``rng``.

    Folds run in the outer loop, so every candidate fits the same
    read-only fold arrays, and inside one fit memo per fold
    (:mod:`repro.regression.memo`) the candidates share the fold's
    centred SVD, their common front ends and the ridge Gram.  A candidate
    that fails to fit on some fold (e.g. a degenerate design matrix) is
    charged an infinite score and skips its remaining folds.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fold_scores: Dict[str, Optional[List[float]]] = {
        name: [] for name in candidates
    }
    for train, test in kfold_indices(len(x), k, rng):
        fold = (x[train], y[train], x[test], y[test])
        for arr in fold:
            arr.setflags(write=False)
        x_train, y_train, x_test, y_test = fold
        with fit_memo():
            for name, factory in candidates.items():
                scores = fold_scores[name]
                if scores is None:
                    continue
                model = factory()
                try:
                    model.fit(x_train, y_train)
                    scores.append(rmse(y_test, model.predict(x_test)))
                except (np.linalg.LinAlgError, ValueError):
                    fold_scores[name] = None
    return {
        name: float("inf") if scores is None else float(np.mean(scores))
        for name, scores in fold_scores.items()
    }


def cross_val_rmse(
    factory: ModelFactory,
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> float:
    """Mean held-out RMSE over ``k`` folds.

    A model that fails to fit on some fold (e.g. a degenerate design
    matrix) is charged an infinite score rather than crashing the
    selection loop.
    """
    return _cross_val_scores({"model": factory}, x, y, k, rng)["model"]


def select_best_model(
    candidates: Dict[str, ModelFactory],
    x: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    rng: np.random.Generator | None = None,
) -> Tuple[str, object, Dict[str, float]]:
    """Cross-validate every candidate and refit the winner on all data.

    Every candidate sees the same folds.  A non-finite score (a failed
    or NaN cross-validation) ranks as ``inf``, so the winner never
    depends on candidate order.  Returns ``(name, fitted_model, scores)``.
    """
    if not candidates:
        raise ValueError("no candidate models supplied")
    rng = rng if rng is not None else np.random.default_rng()
    # one split seed shared by every candidate so they see the same folds
    split_seed = int(rng.integers(0, 2**31 - 1))
    scores = _cross_val_scores(
        candidates, x, y, k, np.random.default_rng(split_seed)
    )
    ranked = {
        name: score if np.isfinite(score) else np.inf
        for name, score in scores.items()
    }
    best_name = min(ranked, key=ranked.get)
    if not np.isfinite(ranked[best_name]):
        raise RuntimeError("every candidate model failed cross-validation")
    best = candidates[best_name]()
    best.fit(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    return best_name, best, scores
