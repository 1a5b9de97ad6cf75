"""The production signature-test flow.

Figure 5, right box: "During production test, the signature response of
the DUT is measured on a low-cost tester and the performance
specifications are computed from the obtained signature."

:class:`ProductionTestFlow` owns the pieces a test-floor insertion needs:
the signature board (with its stimulus), the calibration model, and the
datasheet limits.  It produces a lot's results as columns plus run-level
yield and throughput statistics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import partial
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.circuits.device import RFDevice, SpecSet
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.loadboard.signature_path import SignaturePath
from repro.runtime.calibration import CalibrationModel, _capture_chunk
from repro.runtime.executor import (
    Executor,
    _chunk_size,
    _device_chunks,
    get_executor,
    spawn_seeds,
)
from repro.runtime.specs import SpecificationLimits

__all__ = ["DeviceTestRecord", "ProductionRunResult", "ProductionTestFlow"]


def _insertion_batch_task(
    flow: "ProductionTestFlow", task
) -> "ProductionRunResult":
    """One pickled insertion over a device chunk: capture, predict, bin.

    The chunk is captured, predicted and binned as whole matrices (one
    ``signature_batch``, one ``predict_matrix``, one limit check): the
    chunk's result columns.  The regression kernels are row-invariant
    (:mod:`repro.regression.rowwise`), so a row's prediction does not
    depend on the chunk it was predicted in.

    The task is a :func:`~repro.runtime.executor._device_chunks` chunk,
    ``(ids, devices, seed_blocks)``: ``seed_blocks`` holds one
    :class:`~repro.runtime.executor.SeedBlock` per lot the chunk covers
    (the streaming service captures several queued lots as one chunk),
    in row order, so every row draws from its own generator.

    With limits set, a row whose signature has a NaN or inf entry fails:
    a model that ignores the signature (a hinge-free MARS fit is a
    constant) would otherwise predict passing specs from it.
    """
    ids, _, seed_blocks = task
    signatures = _capture_chunk(flow.board, flow.stimulus, task)
    predicted = flow.calibration.predict_matrix(signatures)
    passed = None if flow.limits is None else (
        flow.limits.check_matrix(predicted) & np.isfinite(signatures).all(axis=1)
    )
    # chunk bounds, and the starts of the lots a chunk covers, are
    # aligned to the site count, so the chunk-local position determines the site
    return ProductionRunResult(
        np.array(ids, dtype=np.int64), signatures, predicted, passed,
        np.arange(len(ids), dtype=np.int64) % flow.board.n_sites,
        np.concatenate([block.words for block in seed_blocks]),
        flow.board.device_test_time(),
    )


@dataclass(frozen=True, eq=False)
class DeviceTestRecord:
    """One device's outcome, a row view of a :class:`ProductionRunResult`."""

    device_id: int
    predicted: SpecSet
    passed: Optional[bool]  # None when no limits were configured
    test_time: float
    signature: np.ndarray  # a read-only row of the lot's signature matrix
    #: load-board site that captured this device (0 on single-site boards)
    site_index: int = 0

    def __eq__(self, other) -> bool:  # field by field; a NaN equals a NaN
        scalars = ("device_id", "passed", "test_time", "site_index")
        return isinstance(other, DeviceTestRecord) and all(
            getattr(self, name) == getattr(other, name) for name in scalars
        ) and all(np.array_equal(a, b, equal_nan=True) for a, b in (
            (self.predicted.as_vector(), other.predicted.as_vector()),
            (self.signature, other.signature)))


@dataclass(frozen=True, eq=False)
class ProductionRunResult:
    """A lot's outcome as read-only columns, one row per device in lot order.

    The columns are the chunk matrices the capture, predict and limit
    check returned, nothing copied per device.  ``result[i]``, iteration
    and :attr:`records` build :class:`DeviceTestRecord` views on demand;
    ``result[a:b]`` is a sub-result sharing the columns.
    """

    device_id: np.ndarray
    signatures: np.ndarray  #: ``(N, m)``
    predicted: np.ndarray  #: ``(N, 3)``, NAMES order
    passed: Optional[np.ndarray]  #: ``(N,)`` bool; None without limits
    site: np.ndarray  #: load-board site per row
    seed_words: np.ndarray  #: each row's PCG64 seed
    test_time: float  #: tester seconds per device (one flow, one value)

    def _columns(self):  # the per-row fields, in order; test_time stays last
        return [getattr(self, f.name) for f in fields(self) if f.name != "test_time"]

    def __post_init__(self):
        for column in self._columns():
            if column is not None:
                column.flags.writeable = False

    @classmethod
    def concat(cls, parts: Sequence["ProductionRunResult"]) -> "ProductionRunResult":
        """The rows of ``parts`` in order (a single part is returned as it is)."""
        if len(parts) == 1:
            return parts[0]
        columns = zip(*(part._columns() for part in parts))
        return cls(*(None if c[0] is None else np.concatenate(c) for c in columns),
                   parts[0].test_time)

    def __len__(self) -> int:
        return len(self.device_id)

    def __getitem__(self, key: Union[int, slice]):
        if isinstance(key, slice):
            return ProductionRunResult(
                *(None if c is None else c[key] for c in self._columns()), self.test_time
            )
        index = range(len(self))[key]
        return next(iter(self[index:index + 1]))

    def __iter__(self) -> Iterator[DeviceTestRecord]:
        passed = itertools.repeat(None) if self.passed is None else self.passed.tolist()
        for device_id, specs, verdict, signature, site in zip(
            self.device_id.tolist(), self.predicted.tolist(), passed, self.signatures,
            self.site.tolist(),
        ):
            yield DeviceTestRecord(device_id, SpecSet(*specs), verdict, self.test_time,
                                   signature, site)

    @property
    def records(self) -> List[DeviceTestRecord]:
        """Per-device record views, built on each read."""
        return list(self)

    @property
    def n_devices(self) -> int:
        return len(self)

    @property
    def yield_fraction(self) -> float:
        """Pass fraction (requires limits to have been configured)."""
        if self.passed is None or not len(self):
            raise ValueError("no pass/fail information recorded")
        return int(np.count_nonzero(self.passed)) / len(self)

    @property
    def total_test_time(self) -> float:
        # the per-device float sum, left to right
        return sum(itertools.repeat(self.test_time, len(self)))

    @property
    def mean_test_time(self) -> float:
        if not len(self):
            raise ValueError("empty run")
        return self.total_test_time / len(self)

    def throughput_per_hour(self) -> float:
        """Devices per tester-hour at this flow's test time."""
        if self.mean_test_time <= 0:
            raise ValueError("test time must be positive")
        return 3600.0 / self.mean_test_time

    def predicted_matrix(self) -> np.ndarray:
        """All predicted specs as an (N, 3) matrix (empty run: (0, 3))."""
        return self.predicted.copy()


class ProductionTestFlow:
    """Signature capture + spec prediction + binning for one DUT family."""

    def __init__(
        self,
        board: SignaturePath,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        calibration: CalibrationModel,
        limits: Optional[SpecificationLimits] = None,
    ):
        self.board = board
        self.stimulus = stimulus
        self.calibration = calibration
        self.limits = limits

    def run(
        self,
        devices: Sequence[RFDevice],
        rng: np.random.Generator,
        *,
        executor: Optional[Union[Executor, str]] = None,
        chunksize: Optional[int] = None,
    ) -> ProductionRunResult:
        """Test a lot of devices, optionally across a worker pool.

        Each device gets its own RNG stream spawned from ``rng`` (one
        64-bit draw is consumed), so the per-device records -- kept in
        input order -- are bit-identical for any ``executor`` backend,
        worker count, or ``chunksize``.  The lot is split into device
        chunks (the whole lot at once on a serial backend), and each
        chunk is captured, predicted and binned as one matrix.  An empty
        lot is one empty chunk, so its result has the same columns as
        any other: ``(0, m)`` signatures, a ``(0,)`` verdict column with
        limits, and the board's test time.

        Parameters
        ----------
        devices:
            The lot, tested as ``device_id`` 0..N-1 in the given order.
        rng:
            Master generator for the lot's measurement noise.
        executor:
            Batch backend (:mod:`repro.parallel`): an
            :class:`~repro.runtime.executor.Executor`, a backend name
            like ``"process"`` / ``"process:4"``, or ``None`` for
            serial.
        chunksize:
            Devices shipped per worker task (pooled backends only).
        """
        devices = list(devices)
        seeds = spawn_seeds(rng, len(devices))
        ex = get_executor(executor)
        size = _chunk_size(len(devices), ex, chunksize, self.board.n_sites)
        return ProductionRunResult.concat(
            ex.map_tasks(
                partial(_insertion_batch_task, self),
                list(_device_chunks([(devices, seeds)], size)),
                chunksize=1,
            )
        )
