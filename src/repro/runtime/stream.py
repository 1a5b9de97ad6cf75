"""Stream datatypes for the continuous production-test service.

The paper's economics only work at production scale: signatures exist
to cut per-device test time across millions of DUTs, which means the
test floor is a *stream* of lots arriving from many test cells, not one
finished list.  This module holds the small, executor-agnostic pieces
of that stream:

* :class:`Lot` -- one submitted unit of work: a device list plus the
  per-device seed block frozen at submission time.
* :class:`StreamRecord` -- one emitted per-device outcome, wrapping the
  offline :class:`~repro.runtime.production.DeviceTestRecord` with its
  stream coordinates and latency.
* :class:`ServiceClosed` / :class:`SubmitTimeout` -- the submission
  error surface.

Determinism contract
--------------------
A lot's per-device seeds are spawned from its master seed *at
submission time*, in submission order, with exactly the
:func:`~repro.runtime.executor.spawn_seeds` call the offline
``ProductionTestFlow.run`` makes.  Everything downstream -- which
executor backend captures the lot, how it is chunked, when the records
are drained -- therefore cannot change a single bit of the results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.runtime.executor import SeedBlock, SeedLike, spawn_seeds
from repro.runtime.production import DeviceTestRecord

__all__ = [
    "Lot",
    "StreamRecord",
    "ServiceClosed",
    "SubmitTimeout",
    "batched",
    "iter_lot_chunks",
]


class ServiceClosed(RuntimeError):
    """Raised when a lot is submitted to a closed (or closing) service."""


class SubmitTimeout(TimeoutError):
    """Raised when a bounded ingest queue stays full past the timeout.

    This is the backpressure signal a test cell acts on: the service is
    saturated, so slow down (or route the lot to another tester).
    """


@dataclass(frozen=True)
class Lot:
    """One submitted lot: devices plus their frozen per-device seeds.

    Build lots with :meth:`Lot.seeded` (or let
    :meth:`StreamingTestService.submit
    <repro.runtime.service.StreamingTestService.submit>` build them);
    the constructor itself assumes ``seeds`` is the
    :class:`~repro.runtime.executor.SeedBlock` spawned in submission
    order.
    """

    lot_id: int
    devices: Sequence
    seeds: SeedBlock
    #: simulated test cell that produced the lot (metrics tag only)
    cell_id: int = 0
    #: submission timestamp on the service clock (filled in by submit)
    submitted_at: float = 0.0

    def __post_init__(self) -> None:
        if len(self.devices) != len(self.seeds):
            raise ValueError(
                f"lot {self.lot_id}: {len(self.devices)} devices but "
                f"{len(self.seeds)} seeds"
            )
        if not isinstance(self.seeds, SeedBlock):
            raise TypeError("a lot's seeds must be a SeedBlock (see Lot.seeded)")

    def __len__(self) -> int:
        return len(self.devices)

    @classmethod
    def seeded(
        cls,
        lot_id: int,
        devices: Sequence,
        seed: SeedLike,
        cell_id: int = 0,
        submitted_at: float = 0.0,
    ) -> "Lot":
        """Freeze a lot's per-device streams from its master ``seed``.

        Derives one child seed per device as a
        :class:`~repro.runtime.executor.SeedBlock` -- the identical
        derivation ``ProductionTestFlow.run`` performs, so streamed and
        offline captures of the same (devices, seed) pair are
        bit-identical.
        """
        return cls(
            lot_id=lot_id,
            devices=list(devices),
            seeds=spawn_seeds(seed, len(devices)),
            cell_id=cell_id,
            submitted_at=submitted_at,
        )


@dataclass(frozen=True)
class StreamRecord:
    """One per-device outcome, emitted incrementally by the service."""

    lot_id: int
    cell_id: int
    record: DeviceTestRecord
    #: seconds from lot submission to record emission (service clock)
    latency: float

    @property
    def device_id(self) -> int:
        return self.record.device_id


def iter_lot_chunks(lot: Lot, chunksize: int):
    """``(ids, devices, seeds)`` capture tasks covering ``lot`` in order.

    The triple matches the task shape of
    :func:`repro.runtime.production._insertion_batch_task`, so a chunk
    can be shipped to any executor backend unchanged.
    """
    if chunksize < 1:
        raise ValueError("chunksize must be >= 1")
    n = len(lot)
    for start in range(0, n, chunksize):
        stop = min(start + chunksize, n)
        yield (
            list(range(start, stop)),
            list(lot.devices[start:stop]),
            lot.seeds[start:stop],
        )


def batched(iterable, size: int):
    """Yield lists of up to ``size`` items (dispatch waves)."""
    if size < 1:
        raise ValueError("size must be >= 1")
    iterator = iter(iterable)
    while True:
        wave = list(itertools.islice(iterator, size))
        if not wave:
            return
        yield wave
