"""Signature calibration: training the signature -> specification maps.

Figure 5, left box: "First, a training set of devices are measured for
their specifications as well as signature test responses.  Using
nonlinear regression techniques on the measured data, normalized
calibration relationships between the specifications and signatures are
extracted."

:class:`CalibrationSession` fits one regression pipeline per
specification, choosing among several model families by k-fold
cross-validation on the training devices.  The resulting
:class:`CalibrationModel` is the artifact shipped to the production
floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.circuits.device import SpecSet
from repro.regression.knn import KNNRegressor
from repro.regression.linear import RidgeRegression
from repro.regression.mars import MARSRegressor
from repro.regression.model_select import select_best_model
from repro.regression.pca import PCA
from repro.regression.pipeline import Pipeline
from repro.regression.polynomial import PolynomialRidge
from repro.regression.scaling import StandardScaler
from repro.runtime.executor import (
    Executor,
    default_chunksize,
    get_executor,
    spawn_seeds,
)

__all__ = [
    "CalibrationModel",
    "CalibrationSession",
    "default_candidates",
    "measure_signatures",
]


def _capture_batch_task(board, stimulus, n_bins, task) -> np.ndarray:
    """One pickled batched capture over a device chunk."""
    devices, seeds = task
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return board.signature_batch(devices, stimulus, rngs=rngs, n_bins=n_bins)


def _chunk_bounds(n: int, executor, chunksize: Optional[int], align: int = 1):
    """``(start, stop)`` bounds for dispatching ``n`` devices in batches.

    Serial backends get the whole lot as one batch (maximum
    vectorization); pooled backends split it so every worker stays busy.
    Per-device RNG seeding makes the results independent of the split.

    ``align`` rounds the chunk size up to a multiple (multi-site boards
    publish ``chunk_alignment = n_sites``): crosstalk couples positional
    insertion groups, so a boundary mid-insertion would change which
    devices share an insertion and break chunking-invariance.
    """
    workers = getattr(executor, "workers", 1)
    if chunksize is None:
        chunksize = n if workers <= 1 else default_chunksize(n, workers)
    chunksize = max(1, chunksize)
    align = max(1, int(align))
    if align > 1:
        chunksize = ((chunksize + align - 1) // align) * align
    return [(i, min(i + chunksize, n)) for i in range(0, n, chunksize)]


def measure_signatures(
    board,
    stimulus,
    devices: Sequence,
    rng: np.random.Generator,
    *,
    n_bins: Optional[int] = None,
    executor: Optional[Union[Executor, str]] = None,
    chunksize: Optional[int] = None,
) -> np.ndarray:
    """Capture one signature per device as an (N, m) matrix.

    The Monte-Carlo measurement loop behind every training / validation
    set (Figure 5's left box).  Each device's measurement noise comes
    from its own RNG stream spawned from ``rng`` (one 64-bit draw
    consumed), so the matrix is bit-identical for any ``executor``
    backend -- serial, thread, or process -- any worker count, and any
    ``chunksize``.  Devices are measured in vectorized chunks through
    ``board.signature_batch`` (the whole lot at once on a serial
    backend).

    Parameters
    ----------
    board:
        :class:`~repro.loadboard.signature_path.SignatureTestBoard` (or
        anything with its ``signature_batch`` method).
    stimulus:
        Stimulus applied to every device.
    devices:
        Device instances, one row per device in this order.
    rng:
        Master generator for the batch's measurement noise.
    n_bins:
        Signature truncation forwarded to ``board.signature_batch``.
    executor:
        Batch backend (:mod:`repro.parallel`): an Executor instance, a
        backend name like ``"process"``, or ``None`` for serial.
    chunksize:
        Devices shipped per worker task (pooled backends only).
    """
    devices = list(devices)
    seeds = spawn_seeds(rng, len(devices))
    if not devices:
        # an empty capture still knows its bin count: (0, m), not (0, 0)
        return board.signature_batch([], stimulus, rngs=[], n_bins=n_bins)
    ex = get_executor(executor)
    # ship device *chunks*, one batched capture per task; per-device
    # seeds keep the result independent of chunking
    tasks = [
        (devices[a:b], seeds[a:b])
        for a, b in _chunk_bounds(
            len(devices), ex, chunksize, getattr(board, "chunk_alignment", 1)
        )
    ]
    blocks = ex.map_tasks(
        partial(_capture_batch_task, board, stimulus, n_bins),
        tasks,
        chunksize=1,
    )
    return np.vstack(blocks)


def default_candidates(n_train: int) -> Dict[str, Callable[[], Pipeline]]:
    """The standard calibration model zoo.

    The nonlinear families run PCA *on the raw (unstandardized) FFT-bin
    magnitudes first*: the signature's information lives on a
    low-dimensional manifold whose bins carry signal far above the
    noise floor, while many other bins are pure measurement noise.
    Standardizing before PCA would inflate those noise bins to unit
    variance and poison the components; centering alone preserves the
    natural signal-to-noise ordering.  Polynomial degree and component
    count adapt to the training-set size (the hardware experiment has
    only 28 calibration devices).
    """
    n_pc = max(2, min(4, n_train // 12))
    poly_degree = 3 if n_train >= 60 else 2

    def ridge(alpha: float) -> Callable[[], Pipeline]:
        return lambda: Pipeline([StandardScaler(), RidgeRegression(alpha=alpha)])

    def pca_poly(n: int, degree: int, alpha: float) -> Callable[[], Pipeline]:
        return lambda: Pipeline(
            [PCA(n), StandardScaler(), PolynomialRidge(degree=degree, alpha=alpha)]
        )

    candidates: Dict[str, Callable[[], Pipeline]] = {
        "ridge_0.1": ridge(0.1),
        "ridge_1": ridge(1.0),
        "ridge_10": ridge(10.0),
        "pca2_poly2": pca_poly(2, 2, 1e-3),
        f"pca{n_pc}_poly{poly_degree}": pca_poly(n_pc, poly_degree, 1e-3),
        f"pca{n_pc}_poly2": pca_poly(n_pc, 2, 1e-3),
        "knn": lambda: Pipeline(
            [
                PCA(n_pc),
                StandardScaler(),
                KNNRegressor(k=min(5, max(2, n_train // 5))),
            ]
        ),
        "mars": lambda: Pipeline(
            [PCA(n_pc), StandardScaler(), MARSRegressor(max_terms=12)]
        ),
    }
    return candidates


@dataclass
class CalibrationModel:
    """Fitted signature -> specs mapping, one pipeline per spec."""

    spec_names: Sequence[str]
    pipelines: Dict[str, Pipeline]
    chosen: Dict[str, str]  # spec -> winning model family
    cv_scores: Dict[str, Dict[str, float]]  # spec -> family -> CV RMSE

    def predict_matrix(self, signatures: np.ndarray) -> np.ndarray:
        """Predict all specs for a batch of signatures; shape (N, n_specs)."""
        signatures = np.asarray(signatures, dtype=float)
        if signatures.ndim == 1:
            signatures = signatures[None, :]
        cols = [
            self.pipelines[name].predict(signatures) for name in self.spec_names
        ]
        return np.column_stack(cols)

    def predict(self, signature: np.ndarray) -> SpecSet:
        """Predict the spec set of one device from its signature."""
        row = self.predict_matrix(np.asarray(signature, dtype=float)[None, :])[0]
        return SpecSet.from_vector(row)

    def summary(self) -> str:
        lines = []
        for name in self.spec_names:
            score = self.cv_scores[name][self.chosen[name]]
            lines.append(
                f"{name}: {self.chosen[name]} (CV RMSE {score:.4f})"
            )
        return "\n".join(lines)


class CalibrationSession:
    """Fits a :class:`CalibrationModel` from training measurements.

    Parameters
    ----------
    spec_names:
        Order and naming of the spec columns (defaults to the gain / NF /
        IIP3 triple).
    candidates:
        Model zoo; ``None`` selects :func:`default_candidates` sized to
        the training set.
    cv_folds:
        Cross-validation folds (clipped to the training-set size).
    """

    def __init__(
        self,
        spec_names: Sequence[str] = SpecSet.NAMES,
        candidates: Optional[Dict[str, Callable[[], Pipeline]]] = None,
        cv_folds: int = 5,
    ):
        self.spec_names = tuple(spec_names)
        self.candidates = candidates
        self.cv_folds = int(cv_folds)

    def fit(
        self,
        signatures: np.ndarray,
        spec_matrix: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> CalibrationModel:
        """Fit the calibration relationships.

        Parameters
        ----------
        signatures:
            Training signatures, shape (N, m).
        spec_matrix:
            Measured training specs, shape (N, n_specs), columns ordered
            as ``spec_names``.
        rng:
            Controls the cross-validation splits.
        """
        signatures = np.asarray(signatures, dtype=float)
        spec_matrix = np.asarray(spec_matrix, dtype=float)
        if signatures.ndim != 2 or spec_matrix.ndim != 2:
            raise ValueError("signatures and spec_matrix must be 2-D")
        if len(signatures) != len(spec_matrix):
            raise ValueError("signature and spec row counts differ")
        if spec_matrix.shape[1] != len(self.spec_names):
            raise ValueError(
                f"expected {len(self.spec_names)} spec columns, "
                f"got {spec_matrix.shape[1]}"
            )
        n = len(signatures)
        if n < 8:
            raise ValueError("need at least 8 training devices")
        rng = rng if rng is not None else np.random.default_rng()
        candidates = (
            self.candidates if self.candidates is not None else default_candidates(n)
        )
        folds = min(self.cv_folds, n // 2)

        pipelines: Dict[str, Pipeline] = {}
        chosen: Dict[str, str] = {}
        scores: Dict[str, Dict[str, float]] = {}
        for j, name in enumerate(self.spec_names):
            best_name, model, cv = select_best_model(
                candidates, signatures, spec_matrix[:, j], k=folds, rng=rng
            )
            pipelines[name] = model
            chosen[name] = best_name
            scores[name] = cv
        return CalibrationModel(
            spec_names=self.spec_names,
            pipelines=pipelines,
            chosen=chosen,
            cv_scores=scores,
        )
