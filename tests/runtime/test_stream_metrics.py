"""Tests for repro.runtime.metrics and the stream health monitor.

Every instrument takes plain-float timestamps from an injected clock,
so these tests drive them with synthetic time and never sleep.
"""

import json

import numpy as np
import pytest

from repro.runtime.metrics import LatencyTracker, MetricsSnapshot, ThroughputMeter
from repro.runtime.monitoring import StreamHealthMonitor


def _snapshot(**overrides):
    base = dict(
        devices_emitted=100,
        lots_completed=4,
        lots_in_flight=1,
        devices_in_flight=25,
        queue_depth=1,
        queue_capacity=8,
        duts_per_second=50.0,
        duts_per_second_windowed=50.0,
        latency_p50_s=0.010,
        latency_p99_s=0.025,
        latency_mean_s=0.012,
        latency_worst_s=0.030,
        elapsed_s=2.0,
    )
    base.update(overrides)
    return MetricsSnapshot(**base)


class TestThroughputMeter:
    def test_cumulative_rate(self):
        meter = ThroughputMeter()
        for t in (0.0, 1.0, 2.0, 3.0):
            meter.record(t)
        # 4 devices across a 3 s span = 1 inter-arrival per second
        assert meter.total == 4
        assert meter.cumulative_rate() == pytest.approx(1.0)

    def test_batch_counts(self):
        meter = ThroughputMeter()
        meter.record(0.0, count=5)
        meter.record(2.0, count=5)
        assert meter.total == 10
        assert meter.cumulative_rate() == pytest.approx(9 / 2.0)
        meter.record(3.0, count=0)  # no-op
        assert meter.total == 10

    def test_windowed_rate_tracks_recent_speed(self):
        meter = ThroughputMeter(window=4)
        # slow warm-up, then 10x faster: the window must see the fast part
        for t in (0.0, 10.0):
            meter.record(t)
        for t in (10.1, 10.2, 10.3, 10.4):
            meter.record(t)
        assert meter.windowed_rate() == pytest.approx(10.0, rel=1e-6)
        assert meter.cumulative_rate() < 1.0

    def test_single_burst_rates_from_the_origin(self):
        # a one-lot stream: every record leaves in one emission
        meter = ThroughputMeter()
        meter.start(0.5)
        meter.record(2.5, count=16)
        assert meter.cumulative_rate() == pytest.approx(16 / 2.0)
        # the window still holds the whole stream, origin included
        assert meter.windowed_rate() == pytest.approx(16 / 2.0)
        unmarked = ThroughputMeter()
        unmarked.record(2.5, count=16)
        assert unmarked.windowed_rate() == 0.0  # one timestamp is not a span

    def test_two_equal_bursts(self):
        meter = ThroughputMeter()
        meter.start(0.5)
        meter.start(0.0)  # the earliest mark wins
        meter.record(1.0, count=10)
        meter.record(2.0, count=10)
        assert meter.cumulative_rate() == pytest.approx(20 / 2.0)
        assert meter.windowed_rate() == pytest.approx(20 / 2.0)

    def test_two_equal_bursts_in_a_full_window(self):
        meter = ThroughputMeter(window=20)
        meter.start(0.0)
        for t in (1.0, 2.0, 3.0):
            meter.record(t, count=10)
        # the window holds the last 20 devices over 1 s: 10 of them
        # arrived within it (at t = 3), not 19
        assert meter.windowed_rate() == pytest.approx(10.0)
        assert meter.cumulative_rate() == pytest.approx(30 / 3.0)

    def test_degenerate_cases(self):
        meter = ThroughputMeter()
        assert meter.cumulative_rate() == 0.0
        assert meter.windowed_rate() == 0.0
        meter.record(1.0)
        assert meter.cumulative_rate() == 0.0  # one point is not a rate
        meter.record(1.0)  # same instant: zero span stays rate 0
        assert meter.cumulative_rate() == 0.0
        with pytest.raises(ValueError):
            ThroughputMeter(window=1)


class TestLatencyTracker:
    def test_quantiles_over_known_data(self):
        tracker = LatencyTracker()
        for latency in np.linspace(0.0, 1.0, 101):
            tracker.record(latency)
        assert tracker.p50 == pytest.approx(0.50, abs=1e-9)
        assert tracker.p99 == pytest.approx(0.99, abs=1e-9)
        assert tracker.quantile(0.0) == pytest.approx(0.0)
        assert tracker.worst == pytest.approx(1.0)
        assert tracker.mean == pytest.approx(0.5)
        assert tracker.count == 101

    def test_ring_is_bounded_but_totals_stay_exact(self):
        tracker = LatencyTracker(window=10)
        for latency in range(100):
            tracker.record(float(latency))
        # quantiles see only the last 10 observations...
        assert tracker.quantile(0.0) == pytest.approx(90.0)
        # ...while count / mean / worst cover the whole stream
        assert tracker.count == 100
        assert tracker.mean == pytest.approx(np.mean(np.arange(100.0)))
        assert tracker.worst == pytest.approx(99.0)

    def test_counted_record_equals_one_record_per_device(self):
        # the streaming service records one latency per lot piece
        rng = np.random.default_rng(4)
        batched, single = LatencyTracker(window=8), LatencyTracker(window=8)
        for latency, count in zip(rng.uniform(0.0, 1.0, 6), [3, 1, 0, 5, 2, 4]):
            batched.record(latency, count)
            for _ in range(count):
                single.record(latency)
        assert batched.count == single.count == 15
        assert batched.mean == single.mean  # the same adds, in the same order
        assert batched.worst == single.worst
        assert batched.p50 == single.p50 and batched.p99 == single.p99

    def test_empty_and_validation(self):
        tracker = LatencyTracker()
        assert tracker.p50 == 0.0
        assert tracker.mean == 0.0
        with pytest.raises(ValueError):
            tracker.quantile(1.5)
        with pytest.raises(ValueError):
            LatencyTracker(window=0)


class TestMetricsSnapshot:
    def test_json_roundtrip(self):
        snapshot = _snapshot()
        assert json.loads(snapshot.to_json()) == snapshot.to_dict()
        assert snapshot.to_dict()["devices_emitted"] == 100

    def test_summary_reads_like_a_dashboard_line(self):
        line = _snapshot().summary()
        assert "100 DUTs" in line
        assert "50.0 DUTs/s" in line
        assert "p99 25.0 ms" in line
        assert "queue 1/8" in line


class TestStreamHealthMonitor:
    def test_healthy_by_default(self):
        monitor = StreamHealthMonitor()
        assert monitor.healthy
        state = monitor.observe(_snapshot())
        assert state.healthy
        assert state.reasons == ()

    def test_throughput_floor_uses_ewma(self):
        monitor = StreamHealthMonitor(min_duts_per_second=10.0, smoothing=0.5)
        assert monitor.observe(
            _snapshot(duts_per_second_windowed=50.0)
        ).healthy
        # one slow snapshot halves the EWMA (25 > 10): still healthy
        assert monitor.observe(_snapshot(duts_per_second_windowed=0.0)).healthy
        # a sustained stall drags it under the floor
        state = monitor.observe(_snapshot(duts_per_second_windowed=0.0))
        state = monitor.observe(_snapshot(duts_per_second_windowed=0.0))
        assert not state.healthy
        assert any("throughput" in reason for reason in state.reasons)
        assert not monitor.healthy

    def test_queue_saturation_needs_patience(self):
        monitor = StreamHealthMonitor(max_queue_fraction=0.75, queue_patience=3)
        saturated = _snapshot(queue_depth=7, queue_capacity=8)
        assert monitor.observe(saturated).healthy
        assert monitor.observe(saturated).healthy
        state = monitor.observe(saturated)  # third consecutive check
        assert not state.healthy
        assert any("queue" in reason for reason in state.reasons)

    def test_queue_drain_resets_patience(self):
        monitor = StreamHealthMonitor(max_queue_fraction=0.75, queue_patience=2)
        saturated = _snapshot(queue_depth=8, queue_capacity=8)
        monitor.observe(saturated)
        monitor.observe(_snapshot(queue_depth=0))  # drained: counter resets
        assert monitor.observe(saturated).healthy

    def test_latency_ceiling(self):
        monitor = StreamHealthMonitor(max_latency_p99_s=0.020)
        state = monitor.observe(_snapshot(latency_p99_s=0.050))
        assert not state.healthy
        assert any("p99" in reason for reason in state.reasons)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamHealthMonitor(min_duts_per_second=-1.0)
        with pytest.raises(ValueError):
            StreamHealthMonitor(max_queue_fraction=0.0)
        with pytest.raises(ValueError):
            StreamHealthMonitor(smoothing=0.0)
        with pytest.raises(ValueError):
            StreamHealthMonitor(queue_patience=0)
