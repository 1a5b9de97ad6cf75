"""The streaming production-test service: from one lot to a factory.

``ProductionTestFlow.run`` tests one finished list and returns.  A real
test floor is a *service*: N test cells keep handing lots to one
calibration server for hours, and the floor is judged on sustained
throughput and tail latency, not on one batch.
:class:`StreamingTestService` is that long-running layer on top of the
unchanged offline flow:

* test cells :meth:`~StreamingTestService.submit` lots into a *bounded*
  ingest queue -- a full queue blocks (or raises
  :class:`~repro.runtime.stream.SubmitTimeout`), which is the service's
  backpressure signal;
* a dispatcher thread shards each lot into device chunks and ships
  them through the existing executor backends via the same batched
  ``signature_batch`` task the offline flow uses;
* per-device :class:`~repro.runtime.stream.StreamRecord` results are
  emitted incrementally (chunk wave by chunk wave, not lot by lot) and
  drained with :meth:`~StreamingTestService.records`;
* live metrics -- DUTs/sec, p50/p99 per-device latency, queue depth --
  are one :meth:`~StreamingTestService.metrics` call away.

Determinism contract
--------------------
Per-device seed streams are frozen at submission time with the exact
:func:`~repro.runtime.executor.spawn_seeds` derivation the offline flow
uses, so for the same (devices, master seed) pair the streamed records
are bit-identical to ``ProductionTestFlow.run`` -- regardless of
backend, chunking, queue capacity, or when the consumer drains.  The
``streaming-offline-equivalence`` relation in :mod:`repro.verify`
enforces this on every CI run.
"""

from __future__ import annotations

import queue
import threading
import time
from functools import partial
from typing import Dict, Iterator, Optional, Sequence, Union

from repro.runtime.executor import (
    Executor,
    SeedLike,
    _chunk_bounds,
    get_executor,
)
from repro.runtime.metrics import LatencyTracker, MetricsSnapshot, ThroughputMeter
from repro.runtime.production import ProductionTestFlow, _insertion_batch_task
from repro.runtime.stream import (
    Lot,
    ServiceClosed,
    StreamRecord,
    SubmitTimeout,
    batched,
    iter_lot_chunks,
)

__all__ = ["StreamingTestService"]

#: default ingest-queue capacity in lots (the backpressure bound)
DEFAULT_MAX_PENDING_LOTS = 8


class _EndOfStream:
    """Sentinel closing the record outbox (one instance per service)."""


class StreamingTestService:
    """Long-running streaming front end over a :class:`ProductionTestFlow`.

    Parameters
    ----------
    flow:
        The calibrated production flow; its board, calibration and
        limits are used unchanged (the service adds no physics).
    executor:
        Capture backend (:mod:`repro.parallel`): an
        :class:`~repro.runtime.executor.Executor` instance (caller owns
        its lifetime), a name like ``"process:4"`` (service-owned,
        closed with the service), or ``None`` for serial.
    max_pending_lots:
        Ingest-queue capacity; a full queue makes ``submit`` block --
        bounded memory no matter how fast the cells produce.
    chunksize:
        Devices per capture task (default: the offline flow's chunking
        for the resolved backend).
    clock:
        Monotonic time source for metrics (tests inject a fake one).

    Use as a context manager, or call :meth:`close` -- both drain every
    accepted lot before releasing service-owned pools::

        with StreamingTestService(flow, executor="thread:4") as svc:
            for lot_id, devices, seed in cells:
                svc.submit(devices, seed)
            svc.close()
            records = list(svc.records())
    """

    def __init__(
        self,
        flow: ProductionTestFlow,
        *,
        executor: Optional[Union[Executor, str]] = None,
        max_pending_lots: int = DEFAULT_MAX_PENDING_LOTS,
        chunksize: Optional[int] = None,
        clock=time.monotonic,
    ):
        if max_pending_lots < 1:
            raise ValueError("max_pending_lots must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.flow = flow
        # a string/None spec resolves to a service-owned executor; an
        # Executor instance stays caller-owned (shared across services)
        self._owns_executor = not isinstance(executor, Executor)
        self._executor = get_executor(executor)
        self._chunksize = chunksize
        self._clock = clock
        self._started_at = clock()

        self._inbox: "queue.Queue[Union[Lot, _EndOfStream]]" = queue.Queue(
            maxsize=max_pending_lots
        )
        self._outbox: "queue.Queue[Union[StreamRecord, _EndOfStream]]" = queue.Queue()
        self._eos = _EndOfStream()

        self._lock = threading.Lock()
        self._closing = False
        self._next_lot_id = 0
        self._lots_submitted = 0
        self._lots_completed = 0
        self._devices_submitted = 0
        self._throughput = ThroughputMeter()
        self._latency = LatencyTracker()
        self._failure: Optional[BaseException] = None

        # multi-site observability: boards modeling shared-instrument
        # contention amortize the arbitration overhead per device, and
        # emitted records carry their site for per-site accounting
        board = flow.board
        self._track_sites = hasattr(board, "site_of")
        self._site_counts: Dict[int, int] = {}
        if hasattr(board, "arbitration_seconds") and hasattr(board, "n_sites"):
            self._arbitration_per_device = (
                board.arbitration_seconds() / board.n_sites
            )
        else:
            self._arbitration_per_device = 0.0
        self._contention_wait = 0.0

        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-stream-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # ingest side (test cells)
    # ------------------------------------------------------------------
    @property
    def executor(self) -> Executor:
        """The resolved capture backend this service dispatches to."""
        return self._executor

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called (submissions rejected)."""
        with self._lock:
            return self._closing

    def submit(
        self,
        devices: Sequence,
        seed: SeedLike,
        *,
        cell_id: int = 0,
        timeout: Optional[float] = None,
    ) -> Lot:
        """Submit one lot; blocks (bounded queue) when the service is busy.

        The per-device seed streams are frozen here, in submission
        order, so results cannot depend on queueing or scheduling.
        Raises :class:`ServiceClosed` after :meth:`close`, and
        :class:`SubmitTimeout` when the ingest queue stays full past
        ``timeout`` seconds (the backpressure signal).
        """
        with self._lock:
            if self._closing:
                raise ServiceClosed(
                    "service is closed: draining already-accepted lots, "
                    "new submissions are rejected"
                )
            lot = Lot.seeded(
                lot_id=self._next_lot_id,
                devices=devices,
                seed=seed,
                cell_id=cell_id,
                submitted_at=self._clock(),
            )
            self._next_lot_id += 1
        try:
            self._inbox.put(lot, timeout=timeout)
        except queue.Full:
            raise SubmitTimeout(
                f"ingest queue stayed full ({self._inbox.maxsize} lots) for "
                f"{timeout} s; the service is saturated -- slow the cells "
                "down or add capture workers"
            ) from None
        with self._lock:
            self._lots_submitted += 1
            self._devices_submitted += len(lot)
        return lot

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting lots, drain everything in flight (idempotent).

        Every accepted lot is fully captured and emitted before the
        dispatcher exits -- a record, once submitted, is never dropped.
        Service-owned executors are shut down afterwards.  Raises the
        dispatcher's error if a capture failed mid-stream.
        """
        with self._lock:
            first_close = not self._closing
            self._closing = True
        if first_close:
            # a live dispatcher frees inbox slots, so a bounded put
            # eventually lands; if it died mid-stream (capture error)
            # nothing drains, and the sentinel is unnecessary anyway
            while True:
                try:
                    self._inbox.put(self._eos, timeout=0.05)
                    break
                except queue.Full:
                    if not self._dispatcher.is_alive():
                        break
        self._dispatcher.join(timeout=timeout)
        if self._dispatcher.is_alive():
            raise SubmitTimeout(
                f"dispatcher still draining after {timeout} s (queue depth "
                f"{self._inbox.qsize()} lots)"
            )
        if self._owns_executor:
            self._executor.close()
        self._raise_failure()

    def __enter__(self) -> "StreamingTestService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # drain side (the floor's data sink)
    # ------------------------------------------------------------------
    def records(self, timeout: Optional[float] = None) -> Iterator[StreamRecord]:
        """Yield per-device records as they are emitted.

        Ends when the service is closed *and* every accepted lot has
        been emitted.  With a ``timeout``, raises ``queue.Empty`` if no
        record (and no end-of-stream) arrives in time -- for liveness
        checks in monitoring code.
        """
        while True:
            item = self._outbox.get(timeout=timeout)
            if isinstance(item, _EndOfStream):
                # re-arm for any concurrent/subsequent drainers
                self._outbox.put(item)
                self._raise_failure()
                return
            yield item

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> MetricsSnapshot:
        """One consistent snapshot of the live service metrics."""
        with self._lock:
            emitted = self._throughput.total
            completed = self._lots_completed
            in_flight_lots = self._lots_submitted - completed
            in_flight_devices = self._devices_submitted - emitted
            return MetricsSnapshot(
                devices_emitted=emitted,
                lots_completed=completed,
                lots_in_flight=in_flight_lots,
                devices_in_flight=in_flight_devices,
                queue_depth=self._inbox.qsize(),
                queue_capacity=self._inbox.maxsize,
                duts_per_second=self._throughput.cumulative_rate(),
                duts_per_second_windowed=self._throughput.windowed_rate(),
                latency_p50_s=self._latency.p50,
                latency_p99_s=self._latency.p99,
                latency_mean_s=self._latency.mean,
                latency_worst_s=self._latency.worst,
                elapsed_s=self._clock() - self._started_at,
                site_devices_emitted=(
                    dict(sorted(self._site_counts.items()))
                    if self._track_sites
                    else None
                ),
                contention_wait_s=self._contention_wait,
            )

    # ------------------------------------------------------------------
    # dispatcher internals
    # ------------------------------------------------------------------
    def _lot_chunksize(self, lot: Lot) -> int:
        align = getattr(self.flow.board, "chunk_alignment", 1)
        bounds = _chunk_bounds(len(lot), self._executor, self._chunksize, align)
        return bounds[0][1] - bounds[0][0] if bounds else 1

    def _dispatch_loop(self) -> None:
        """Pull lots FIFO, capture them in chunk waves, emit records."""
        workers = max(1, getattr(self._executor, "workers", 1))
        task_fn = partial(_insertion_batch_task, self.flow)
        while True:
            lot = self._inbox.get()
            if isinstance(lot, _EndOfStream):
                break
            try:
                chunks = iter_lot_chunks(lot, self._lot_chunksize(lot))
                # one wave = one task per worker: every backend stays
                # saturated inside a wave, and records still leave the
                # service wave by wave instead of lot by lot
                for wave in batched(chunks, workers):
                    blocks = self._executor.map_tasks(task_fn, wave, chunksize=1)
                    now = self._clock()
                    latency = now - lot.submitted_at
                    emitted = []
                    for block in blocks:
                        for record in block:
                            emitted.append(
                                StreamRecord(
                                    lot_id=lot.lot_id,
                                    cell_id=lot.cell_id,
                                    record=record,
                                    latency=latency,
                                )
                            )
                    with self._lock:
                        self._throughput.record(now, len(emitted))
                        for stream_record in emitted:
                            self._latency.record(latency)
                            if self._track_sites:
                                site = stream_record.record.site_index
                                self._site_counts[site] = (
                                    self._site_counts.get(site, 0) + 1
                                )
                        self._contention_wait += (
                            len(emitted) * self._arbitration_per_device
                        )
                    for stream_record in emitted:
                        self._outbox.put(stream_record)
                with self._lock:
                    self._lots_completed += 1
            except BaseException as exc:  # surface on close()/records()
                with self._lock:
                    self._failure = exc
                break
        self._outbox.put(self._eos)

    def _raise_failure(self) -> None:
        with self._lock:
            failure = self._failure
            self._failure = None
        if failure is not None:
            raise failure
