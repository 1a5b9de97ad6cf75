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
* a dispatcher thread takes every lot already queued, captures them
  as one row stream cut into device chunks, and ships the chunks
  through the existing executor backends via the same batched
  ``signature_batch`` task the offline flow uses -- the per-call cost
  of a capture is paid once per batch of lots, not once per lot;
* results leave chunk wave by chunk wave, one block of result columns
  per lot piece, and :meth:`~StreamingTestService.records` drains them
  as per-device :class:`~repro.runtime.stream.StreamRecord` views;
* live metrics -- DUTs/sec, p50/p99 per-device latency, queue depth --
  are one :meth:`~StreamingTestService.metrics` call away.

Determinism contract
--------------------
Per-device seed streams are frozen at submission time with the exact
:func:`~repro.runtime.executor.spawn_seeds` derivation the offline flow
uses, so for the same (devices, master seed) pair the streamed records
are bit-identical to ``ProductionTestFlow.run`` -- regardless of
backend, chunking, queue capacity, which lots share a capture, or when
the consumer drains.  Capture rows are independent, and a lot joins a
batch only at an insertion boundary of the board (see
:meth:`StreamingTestService._coalesce`), so a multi-site board sees
each lot's insertions exactly as the offline flow does.  The
``streaming-offline-equivalence`` relation in :mod:`repro.verify`
enforces this on every CI run.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import Counter
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.runtime.executor import (
    Executor,
    SeedLike,
    _chunk_size,
    _device_chunks,
    get_executor,
)
from repro.runtime.metrics import LatencyTracker, MetricsSnapshot, ThroughputMeter
from repro.runtime.production import (
    ProductionRunResult,
    ProductionTestFlow,
    _insertion_batch_task,
)
from repro.runtime.stream import (
    Lot,
    ServiceClosed,
    StreamRecord,
    SubmitTimeout,
    batched,
)

__all__ = ["StreamingTestService"]

#: default ingest-queue capacity in lots (the backpressure bound)
DEFAULT_MAX_PENDING_LOTS = 8


class _EndOfStream:
    """Sentinel closing the record outbox (one instance per service)."""


class _Outbox(queue.Queue):
    """Emitted ``(lot, latency, block)`` items; :meth:`unget` puts one back first."""

    def unget(self, item) -> None:
        with self.not_empty:
            self.queue.appendleft(item)
            self.not_empty.notify()


class _Batch:
    """Queued lots captured as one row stream, and how far it got."""

    def __init__(self, lots: List[Lot], skip: int = 0):
        self.lots = lots
        #: the row stream's end offset of each lot
        self.ends = list(itertools.accumulate(len(lot) for lot in lots))
        #: leading rows an earlier attempt already emitted (dropped)
        self.skip = skip
        self.rows_done = 0
        self.lots_done = 0


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
        bounded memory no matter how fast the cells produce.  The
        dispatcher takes at most this many lots per capture, so the
        service holds at most ``2 * max_pending_lots`` accepted lots.
    chunksize:
        Devices per capture task (default: the offline flow's chunking
        of a batch's rows for the resolved backend).
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
        self._outbox = _Outbox()
        self._eos = _EndOfStream()

        self._lock = threading.Lock()
        self._closing = False
        self._next_lot_id = 0
        self._lots_submitted = 0
        self._lots_completed = 0
        self._devices_submitted = 0
        self._throughput = ThroughputMeter()
        self._latency = LatencyTracker()
        self._captures = 0
        self._failure: Optional[BaseException] = None

        # multi-site observability: shared-instrument contention is
        # amortized per device, and emitted records carry their site for
        # per-site accounting
        board = flow.board
        self._track_sites = board.n_sites > 1
        self._site_counts: Dict[int, int] = Counter()
        self._arbitration_per_device = board.arbitration_seconds() / board.n_sites
        self._contention_wait = 0.0
        self._task_fn = partial(_insertion_batch_task, flow)

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
            self._throughput.start(lot.submitted_at)
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
        checks in monitoring code.  Records are views built from the
        emitted blocks; a drainer that stops mid-block hands the rest back.
        """
        while True:
            item = self._outbox.get(timeout=timeout)
            if isinstance(item, _EndOfStream):
                # re-arm for any concurrent/subsequent drainers
                self._outbox.put(item)
                self._raise_failure()
                return
            lot, latency, block = item
            taken = 0
            try:
                for row in range(len(block)):
                    taken = row + 1
                    yield StreamRecord(lot.lot_id, lot.cell_id, latency, block, row)
            finally:
                if taken < len(block):
                    self._outbox.unget((lot, latency, block[taken:]))

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
                captures=self._captures,
            )

    # ------------------------------------------------------------------
    # dispatcher internals
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Pull queued lots FIFO, capture each batch of them, emit records."""
        head = self._inbox.get()
        while not isinstance(head, _EndOfStream):
            lots, carried = self._coalesce(head)
            if not self._capture_batch(lots):
                break
            head = carried if carried is not None else self._inbox.get()
        self._outbox.put(self._eos)

    def _coalesce(
        self, head: Lot
    ) -> Tuple[List[Lot], Optional[Union[Lot, _EndOfStream]]]:
        """``head`` plus the lots queued behind it, and the next batch's head.

        Drains the inbox without blocking.  A lot joins only at an
        insertion boundary -- the rows already in the batch are a
        multiple of the board's ``n_sites`` -- so a multi-site
        board assigns sites and crosstalk groups exactly as it does
        offline; otherwise the lot (or the end-of-stream sentinel) is
        handed back to start the next batch.  At most
        ``max_pending_lots`` lots leave the inbox per batch, the handed
        back one included.
        """
        lots, rows = [head], len(head)
        while len(lots) < self._inbox.maxsize:
            try:
                item = self._inbox.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, _EndOfStream) or rows % self.flow.board.n_sites:
                return lots, item
            lots.append(item)
            rows += len(item)
        return lots, None

    def _capture_batch(self, lots: List[Lot]) -> bool:
        """Capture and emit ``lots``; False (failure stored) if one raised.

        A coalesced batch that raises is re-run one lot at a time, so the
        lots before the failing one emit and the error surfaces exactly
        as if every lot had been dispatched alone.
        """
        batch = _Batch(lots)
        try:
            self._capture(batch)
            return True
        except BaseException as exc:  # surface on close()/records()
            failure = exc
        if len(lots) > 1:
            try:
                for i in range(batch.lots_done, len(lots)):
                    start = batch.ends[i] - len(lots[i])
                    self._capture(
                        _Batch([lots[i]], skip=max(0, batch.rows_done - start))
                    )
                return True
            except BaseException as exc:
                failure = exc
        with self._lock:
            self._failure = failure
        return False

    def _capture(self, batch: _Batch) -> None:
        """One capture of a batch's row stream, emitted chunk wave by wave."""
        chunksize = _chunk_size(
            batch.ends[-1], self._executor, self._chunksize, self.flow.board.n_sites
        )
        with self._lock:
            self._captures += 1
        # one wave = one task per worker: every backend stays saturated
        # inside a wave, and records still leave the service wave by wave
        chunks = _device_chunks(
            [(lot.devices, lot.seeds) for lot in batch.lots], chunksize
        )
        for wave in batched(chunks, self._executor.workers):
            self._emit(batch, self._executor.map_tasks(self._task_fn, wave, chunksize=1))

    def _emit(self, batch: _Batch, results: List[ProductionRunResult]) -> None:
        """Emit the batch's next rows: one block of columns per lot piece."""
        now = self._clock()
        wave = ProductionRunResult.concat(results)
        start, stop = batch.rows_done, batch.rows_done + len(wave)
        pieces, completed = [], batch.lots_done
        for lot, end in zip(batch.lots[completed:], batch.ends[completed:]):
            first, last = max(start, batch.skip, end - len(lot)), min(stop, end)
            if first < last:
                pieces.append((lot, now - lot.submitted_at, wave[first - start:last - start]))
            if end > stop:
                break
            batch.lots_done += 1
        batch.rows_done = stop
        emitted = sum(len(block) for _, _, block in pieces)
        with self._lock:
            self._throughput.record(now, emitted)
            for _, latency, block in pieces:
                self._latency.record(latency, len(block))
                if self._track_sites:
                    self._site_counts.update(block.site.tolist())
            self._contention_wait += emitted * self._arbitration_per_device
            self._lots_completed += batch.lots_done - completed
        for piece in pieces:
            self._outbox.put(piece)

    def _raise_failure(self) -> None:
        with self._lock:
            failure = self._failure
            self._failure = None
        if failure is not None:
            raise failure
