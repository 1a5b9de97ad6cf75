"""The production signature-test flow.

Figure 5, right box: "During production test, the signature response of
the DUT is measured on a low-cost tester and the performance
specifications are computed from the obtained signature."

:class:`ProductionTestFlow` owns the pieces a test-floor insertion needs:
the signature board (with its stimulus), the calibration model, and the
datasheet limits.  It produces per-device records plus run-level yield
and throughput statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.circuits.device import RFDevice, SpecSet
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.loadboard.signature_path import SignatureTestBoard
from repro.runtime.calibration import CalibrationModel
from repro.runtime.executor import (
    Executor,
    _chunk_bounds,
    get_executor,
    spawn_seeds,
)
from repro.runtime.specs import SpecificationLimits

__all__ = ["DeviceTestRecord", "ProductionRunResult", "ProductionTestFlow"]


def _insertion_batch_task(
    flow: "ProductionTestFlow", task
) -> List["DeviceTestRecord"]:
    """One pickled insertion over a device chunk: capture, predict, bin.

    The chunk is captured, predicted and binned as whole matrices (one
    ``signature_batch``, one ``predict_matrix``, one limit check); each
    record then reads its row.  The regression kernels are row-invariant
    (:mod:`repro.regression.rowwise`), so a row's prediction does not
    depend on the chunk it was predicted in.

    The task is ``(ids, devices, seed_blocks)``: ``seed_blocks`` holds
    one :class:`~repro.runtime.executor.SeedBlock` per lot the chunk
    covers (the streaming service captures several queued lots as one
    chunk), in row order, so every row draws from its own generator.

    With limits set, a row whose signature has a NaN or inf entry fails:
    a model that ignores the signature (a hinge-free MARS fit is a
    constant) would otherwise predict passing specs from it.
    """
    ids, devices, seed_blocks = task
    # no local name: the generators are freed once the capture returns
    signatures = flow.board.signature_batch(
        devices,
        flow.stimulus,
        rngs=[rng for block in seed_blocks for rng in block.generators()],
        n_bins=flow.signature_bins,
    )
    predicted = flow.calibration.predict_matrix(signatures)
    if flow.limits is not None:
        verdicts = flow.limits.check_matrix(predicted)
        verdicts &= np.isfinite(signatures).all(axis=1)
        passed = [bool(p) for p in verdicts]
    else:
        passed = [None] * len(ids)
    # multi-site boards amortize the (contention-inflated) insertion
    # time over the sites; single-site boards keep the config's time
    if hasattr(flow.board, "device_test_time"):
        test_time = flow.board.device_test_time()
    else:
        test_time = flow.board.config.total_test_time()
    site_of = getattr(flow.board, "site_of", None)
    return [
        DeviceTestRecord(
            device_id=device_id,
            predicted=SpecSet.from_vector(predicted[position]),
            passed=passed[position],
            test_time=test_time,
            # detach the row from the batch matrix
            signature=signatures[position].copy(),
            # chunk bounds, and the starts of the lots a chunk covers,
            # are aligned to the site count, so the chunk-local
            # position determines the site
            site_index=site_of(position) if site_of is not None else 0,
        )
        for position, device_id in enumerate(ids)
    ]


@dataclass(frozen=True)
class DeviceTestRecord:
    """Outcome of testing one device."""

    device_id: int
    predicted: SpecSet
    passed: Optional[bool]  # None when no limits were configured
    test_time: float
    signature: np.ndarray
    #: load-board site that captured this device (0 on single-site boards)
    site_index: int = 0


@dataclass
class ProductionRunResult:
    """Aggregate statistics of a production run."""

    records: List[DeviceTestRecord] = field(default_factory=list)

    @property
    def n_devices(self) -> int:
        return len(self.records)

    @property
    def yield_fraction(self) -> float:
        """Pass fraction (requires limits to have been configured)."""
        judged = [r for r in self.records if r.passed is not None]
        if not judged:
            raise ValueError("no pass/fail information recorded")
        return sum(r.passed for r in judged) / len(judged)

    @property
    def total_test_time(self) -> float:
        return sum(r.test_time for r in self.records)

    @property
    def mean_test_time(self) -> float:
        if not self.records:
            raise ValueError("empty run")
        return self.total_test_time / len(self.records)

    def throughput_per_hour(self) -> float:
        """Devices per tester-hour at this flow's test time."""
        if self.mean_test_time <= 0:
            raise ValueError("test time must be positive")
        return 3600.0 / self.mean_test_time

    def predicted_matrix(self) -> np.ndarray:
        """All predicted specs as an (N, 3) matrix (empty run: (0, 3))."""
        if not self.records:
            return np.empty((0, len(SpecSet.NAMES)))
        return np.vstack([r.predicted.as_vector() for r in self.records])


class ProductionTestFlow:
    """Signature capture + spec prediction + binning for one DUT family."""

    def __init__(
        self,
        board: SignatureTestBoard,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        calibration: CalibrationModel,
        limits: Optional[SpecificationLimits] = None,
        signature_bins: Optional[int] = None,
    ):
        self.board = board
        self.stimulus = stimulus
        self.calibration = calibration
        self.limits = limits
        self.signature_bins = signature_bins

    def test_device(
        self,
        device: RFDevice,
        rng: np.random.Generator,
        device_id: int = 0,
    ) -> DeviceTestRecord:
        """One production insertion: a one-device lot.

        Like :meth:`run`, this spawns the device's noise stream from
        ``rng`` (one 64-bit draw consumed) instead of drawing from
        ``rng`` directly, so the record equals ``run([device], rng)``'s
        only record (up to ``device_id``).
        """
        (record,) = _insertion_batch_task(
            self, ([device_id], [device], (spawn_seeds(rng, 1),))
        )
        return record

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
        chunk is captured, predicted and binned as one matrix.

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
        tasks = [
            (list(range(a, b)), devices[a:b], (seeds[a:b],))
            for a, b in _chunk_bounds(
                len(devices), ex, chunksize,
                getattr(self.board, "chunk_alignment", 1),
            )
        ]
        blocks = ex.map_tasks(partial(_insertion_batch_task, self), tasks, chunksize=1)
        return ProductionRunResult(
            records=[record for block in blocks for record in block]
        )
