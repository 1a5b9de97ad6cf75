"""Stream datatypes for the continuous production-test service.

The paper's economics only work at production scale: signatures exist
to cut per-device test time across millions of DUTs, which means the
test floor is a *stream* of lots arriving from many test cells, not one
finished list.  This module holds the small, executor-agnostic pieces
of that stream:

* :class:`Lot` -- one submitted unit of work: a device list plus the
  per-device seed block frozen at submission time.
* :class:`StreamRecord` -- one emitted per-device outcome: a row of the
  lot's columns, with its stream coordinates and latency, whose offline
  :class:`~repro.runtime.production.DeviceTestRecord` is built on demand.
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
from typing import Optional, Sequence

from repro.runtime.executor import SeedBlock, SeedLike, spawn_seeds
from repro.runtime.production import DeviceTestRecord, ProductionRunResult

__all__ = [
    "Lot",
    "StreamRecord",
    "ServiceClosed",
    "SubmitTimeout",
    "batched",
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


class StreamRecord:
    """One per-device outcome, emitted incrementally by the service.

    A view of row ``row`` of a lot piece's columns (``block``, a
    :class:`~repro.runtime.production.ProductionRunResult`):
    :attr:`device_id` reads the id column, and :attr:`record` -- the
    row's :class:`DeviceTestRecord` -- is built on its first read, so a
    drainer that reads only ids builds none.
    """

    __slots__ = ("lot_id", "cell_id", "latency", "_record", "_block", "_row")

    def __init__(
        self,
        lot_id: int,
        cell_id: int,
        latency: float,
        block: ProductionRunResult,
        row: int,
    ):
        self.lot_id = lot_id
        self.cell_id = cell_id
        #: seconds from lot submission to record emission (service clock)
        self.latency = latency
        self._record: Optional[DeviceTestRecord] = None
        self._block = block
        self._row = row

    @property
    def record(self) -> DeviceTestRecord:
        if self._record is None:
            self._record = self._block[self._row]
        return self._record

    @property
    def device_id(self) -> int:
        return int(self._block.device_id[self._row])

    def __eq__(self, other) -> bool:
        if not isinstance(other, StreamRecord):
            return NotImplemented
        return (self.lot_id, self.cell_id, self.record, self.latency) == (
            other.lot_id, other.cell_id, other.record, other.latency
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"StreamRecord(lot_id={self.lot_id}, cell_id={self.cell_id}, "
            f"device_id={self.device_id}, latency={self.latency})"
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
