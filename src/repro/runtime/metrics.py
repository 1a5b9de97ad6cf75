"""Live throughput / latency metrics for the streaming test service.

A production floor is judged in DUTs per second and tail latency, so
the streaming service keeps three small instruments updated on every
emitted record:

* :class:`ThroughputMeter` -- cumulative and windowed devices/second.
* :class:`LatencyTracker` -- per-device latency quantiles (p50/p99)
  over a bounded ring of recent observations.
* :class:`MetricsSnapshot` -- one immutable, JSON-able reading of
  everything, produced by ``StreamingTestService.metrics()``.

All instruments take timestamps as plain floats from an injected clock,
so tests drive them with a fake clock and never sleep.  Memory is
bounded: a soak that streams millions of devices keeps only a fixed
ring of recent latencies and emission times (exact cumulative counts
are kept separately).
"""

from __future__ import annotations

import collections
import itertools
import json
from dataclasses import asdict, dataclass
from typing import Deque, Dict, Optional

import numpy as np

__all__ = ["LatencyTracker", "MetricsSnapshot", "ThroughputMeter"]

#: recent observations kept for windowed rates and latency quantiles
DEFAULT_WINDOW = 4096


class ThroughputMeter:
    """Devices/second, cumulative and over a sliding window of emissions.

    The cumulative rate divides the emitted count by the span from the
    stream's origin (:meth:`start`, the service's first submission) to
    the latest emission, so a stream whose records all leave in one
    burst still has a rate.  Once the stream outgrows the window, the
    windowed rate uses only the last ``window`` per-device emission
    timestamps, so it tracks the *current* service speed even after a
    slow warm-up.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 2:
            raise ValueError("window must be >= 2")
        self._times: Deque[float] = collections.deque(maxlen=window)
        self.total = 0
        self._origin: Optional[float] = None
        self._first: Optional[float] = None
        self._last: Optional[float] = None

    def start(self, timestamp: float) -> None:
        """Mark the stream's origin; the earliest mark wins."""
        if self._origin is None or timestamp < self._origin:
            self._origin = timestamp

    def record(self, timestamp: float, count: int = 1) -> None:
        """Register ``count`` devices emitted at ``timestamp``."""
        if count < 1:
            return
        self.total += count
        if self._first is None:
            self._first = timestamp
        self._last = timestamp
        self._times.extend(itertools.repeat(timestamp, count))

    def cumulative_rate(self) -> float:
        """Devices/second since the origin.

        Without a :meth:`start` mark the first emission is the origin,
        and its first device only marks time zero (0.0 before two
        devices).
        """
        if self._last is None:
            return 0.0
        if self._origin is not None:
            span = self._last - self._origin
            return self.total / span if span > 0 else 0.0
        span = self._last - self._first
        return (self.total - 1) / span if span > 0 else 0.0

    def windowed_rate(self) -> float:
        """Devices/second over the recent emission window.

        Until the window drops its first device it spans the whole
        stream, and the rate is the cumulative one when the origin is
        marked.  Otherwise the devices stamped at the window's oldest
        timestamp only mark its start: counting them would over-count
        bursts of ``k`` devices by up to 2x.
        """
        if self._origin is not None and len(self._times) == self.total:
            return self.cumulative_rate()
        if len(self._times) < 2:
            return 0.0
        oldest = self._times[0]
        span = self._times[-1] - oldest
        if span <= 0:
            return 0.0
        burst = itertools.takewhile(lambda t: t == oldest, self._times)
        at_oldest = sum(1 for _ in burst)
        return (len(self._times) - at_oldest) / span


class LatencyTracker:
    """Per-device latency quantiles over a bounded ring of observations.

    Quantiles are computed over the last ``window`` latencies (exact
    order statistics on the ring, not a sketch); ``count`` and ``mean``
    stay exact over the whole stream.
    """

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self._ring: Deque[float] = collections.deque(maxlen=window)
        self.count = 0
        self._sum = 0.0
        self.worst = 0.0

    def record(self, latency: float, count: int = 1) -> None:
        latency = float(latency)
        self._ring.extend(itertools.repeat(latency, count))
        self.count += count
        for _ in range(count):  # one add per device, as device by device
            self._sum += latency
        if count > 0 and latency > self.worst:
            self.worst = latency

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Latency quantile ``q`` in [0, 1] over the recent window."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        if not self._ring:
            return 0.0
        return float(np.quantile(np.asarray(self._ring, dtype=float), q))

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)


@dataclass(frozen=True)
class MetricsSnapshot:
    """One immutable reading of the service's live metrics."""

    #: total per-device records emitted so far
    devices_emitted: int
    #: lots fully processed / still queued or being captured
    lots_completed: int
    lots_in_flight: int
    #: devices inside queued or in-capture lots (not yet emitted)
    devices_in_flight: int
    #: ingest queue depth in lots (the backpressure gauge)
    queue_depth: int
    queue_capacity: int
    #: devices/second since the first submission and over the recent window
    duts_per_second: float
    duts_per_second_windowed: float
    #: per-device submission->emission latency stats (seconds)
    latency_p50_s: float
    latency_p99_s: float
    latency_mean_s: float
    latency_worst_s: float
    #: seconds on the service clock since the service started
    elapsed_s: float
    #: devices emitted per load-board site (None on single-site boards)
    site_devices_emitted: Optional[Dict[int, int]] = None
    #: modeled shared-instrument arbitration wait accumulated across
    #: emitted devices (seconds; 0 without contention modeling)
    contention_wait_s: float = 0.0
    #: dispatcher captures run so far; each serves every lot that was
    #: queued when it started (``lots_completed / captures`` lots each)
    captures: int = 0

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary(self) -> str:
        """One human line, the way a floor dashboard would show it."""
        return (
            f"{self.devices_emitted} DUTs "
            f"({self.lots_completed} lots) in {self.elapsed_s:.2f} s | "
            f"{self.duts_per_second:.1f} DUTs/s "
            f"(window {self.duts_per_second_windowed:.1f}) | "
            f"latency p50 {self.latency_p50_s * 1e3:.1f} ms "
            f"p99 {self.latency_p99_s * 1e3:.1f} ms | "
            f"queue {self.queue_depth}/{self.queue_capacity}"
        )
