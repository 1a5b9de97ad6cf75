"""Tests for repro.runtime.service and the stream datatypes.

The contracts under test, in order of importance:

* bit-equality -- streamed records match the offline
  ``ProductionTestFlow.run`` for the same (devices, master seed) pair,
  on every executor backend;
* graceful shutdown -- ``close()`` drains every accepted lot, rejects
  new submissions with :class:`ServiceClosed`, and never drops a
  record, including the empty-stream and single-device edge cases;
* backpressure -- a full bounded ingest queue surfaces as
  :class:`SubmitTimeout`, not as unbounded memory;
* failure transparency -- a capture error mid-stream is re-raised at
  ``close()``, not swallowed by the dispatcher thread.
"""

import queue
import threading

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.parameters import ParameterSpace, ProcessParameter
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.runtime.calibration import CalibrationSession
from repro.runtime.production import ProductionTestFlow
from repro.runtime.service import StreamingTestService
from repro.runtime.specs import lna_limits
from repro.runtime.stream import (
    Lot,
    ServiceClosed,
    StreamRecord,
    SubmitTimeout,
    batched,
    iter_lot_chunks,
)
from repro.testgen.pwl import StimulusEncoding

BACKENDS = [None, "thread:2", "process:2"]


@pytest.fixture(scope="module")
def flow_setup():
    """A small but complete calibrated production flow."""
    rng = np.random.default_rng(42)
    space = ParameterSpace(
        [
            ProcessParameter("gain_db", 16.0, 0.08),
            ProcessParameter("nf_db", 2.2, 0.10),
            ProcessParameter("iip3_dbm", 3.0, 0.10),
        ]
    )

    def factory(params):
        return BehavioralAmplifier(
            900e6, params["gain_db"], params["nf_db"], params["iip3_dbm"]
        )

    config = SignaturePathConfig(
        digitizer_noise_vrms=1e-3, digitizer_bits=None, include_device_noise=False
    )
    board = SignatureTestBoard(config)
    stim = StimulusEncoding(8, config.capture_seconds, 0.4).decode(
        np.array([-0.2, -0.1, 0.0, 0.1, 0.2, 0.15, 0.05, -0.15])
    )

    train_points = space.sample(rng, 40)
    train_devices = [factory(space.to_dict(p)) for p in train_points]
    train_specs = np.vstack([d.specs().as_vector() for d in train_devices])
    train_sigs = np.vstack(
        [board.signature(d, stim, rng=rng) for d in train_devices]
    )
    calibration = CalibrationSession().fit(train_sigs, train_specs, rng=rng)
    flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
    return space, factory, flow


def _lot_devices(flow_setup, n, seed=0):
    space, factory, _ = flow_setup
    rng = np.random.default_rng(seed)
    return [factory(space.to_dict(p)) for p in space.sample(rng, n)]


def _assert_records_match(stream_records, offline_records):
    assert len(stream_records) == len(offline_records)
    for stream_record, reference in zip(stream_records, offline_records):
        assert stream_record.record.device_id == reference.device_id
        assert np.array_equal(stream_record.record.signature, reference.signature)
        assert np.array_equal(
            stream_record.record.predicted.as_vector(),
            reference.predicted.as_vector(),
        )
        assert stream_record.record.passed == reference.passed


class TestBitEquality:
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_streamed_matches_offline(self, flow_setup, executor):
        flow = flow_setup[2]
        devices = _lot_devices(flow_setup, 7)
        offline = flow.run(devices, np.random.default_rng(11))
        with StreamingTestService(flow, executor=executor, chunksize=2) as svc:
            svc.submit(devices, np.random.default_rng(11))
            svc.close()
            _assert_records_match(list(svc.records()), offline.records)

    def test_multi_lot_interleaving_preserves_per_lot_results(self, flow_setup):
        flow = flow_setup[2]
        lots = {i: _lot_devices(flow_setup, 3 + i, seed=i) for i in range(3)}
        with StreamingTestService(flow, executor="thread:2") as svc:
            for i, devices in lots.items():
                svc.submit(devices, np.random.default_rng(100 + i), cell_id=i)
            svc.close()
            streamed = list(svc.records())
        for i, devices in lots.items():
            offline = flow.run(devices, np.random.default_rng(100 + i))
            mine = [r for r in streamed if r.lot_id == i]
            assert all(r.cell_id == i for r in mine)
            _assert_records_match(mine, offline.records)


@pytest.mark.allow_nonfinite
class TestFailClosed:
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_nan_device_fails_in_stream(self, flow_setup, executor):
        space, factory, flow = flow_setup
        nominal = space.to_dict(space.nominal_vector())
        devices = [factory(nominal) for _ in range(5)]
        devices[2] = factory({**nominal, "gain_db": float("nan")})
        offline = flow.run(devices, np.random.default_rng(21))
        with StreamingTestService(flow, executor=executor, chunksize=2) as svc:
            svc.submit(devices, np.random.default_rng(21))
            svc.close()
            streamed = [stream_record.record for stream_record in svc.records()]
        assert [r.passed for r in streamed] == [True, True, False, True, True]
        for record, reference in zip(streamed, offline.records):
            assert np.array_equal(
                record.predicted.as_vector(),
                reference.predicted.as_vector(),
                equal_nan=True,
            )
            assert record.passed is reference.passed
            assert flow.limits.check(record.predicted) is record.passed


class TestGracefulShutdown:
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_empty_stream(self, flow_setup, executor):
        flow = flow_setup[2]
        with StreamingTestService(flow, executor=executor) as svc:
            svc.close()
            assert list(svc.records()) == []
            snapshot = svc.metrics()
        assert snapshot.devices_emitted == 0
        assert snapshot.lots_completed == 0
        assert snapshot.lots_in_flight == 0

    @pytest.mark.parametrize("executor", BACKENDS)
    def test_single_device_stream(self, flow_setup, executor):
        flow = flow_setup[2]
        devices = _lot_devices(flow_setup, 1)
        offline = flow.run(devices, np.random.default_rng(5))
        with StreamingTestService(flow, executor=executor) as svc:
            svc.submit(devices, np.random.default_rng(5))
            svc.close()
            _assert_records_match(list(svc.records()), offline.records)

    def test_close_drains_every_accepted_lot(self, flow_setup):
        flow = flow_setup[2]
        n_lots, lot_size = 6, 4
        with StreamingTestService(flow, max_pending_lots=2) as svc:
            for i in range(n_lots):
                svc.submit(_lot_devices(flow_setup, lot_size, seed=i), i)
            svc.close()
            records = list(svc.records())
            snapshot = svc.metrics()
        assert len(records) == n_lots * lot_size
        assert snapshot.lots_completed == n_lots
        assert snapshot.devices_in_flight == 0

    def test_submit_after_close_is_rejected(self, flow_setup):
        flow = flow_setup[2]
        svc = StreamingTestService(flow)
        svc.close()
        assert svc.closed
        with pytest.raises(ServiceClosed):
            svc.submit(_lot_devices(flow_setup, 2), 0)

    def test_close_is_idempotent(self, flow_setup):
        flow = flow_setup[2]
        svc = StreamingTestService(flow)
        svc.submit(_lot_devices(flow_setup, 2), 0)
        svc.close()
        svc.close()
        assert len(list(svc.records())) == 2

    def test_concurrent_drain_never_drops_a_record(self, flow_setup):
        flow = flow_setup[2]
        n_lots, lot_size = 5, 3
        got = []
        with StreamingTestService(flow, executor="thread:2") as svc:
            drainer = threading.Thread(
                target=lambda: got.extend(svc.records()), daemon=True
            )
            drainer.start()
            for i in range(n_lots):
                svc.submit(_lot_devices(flow_setup, lot_size, seed=i), i)
            svc.close()
            drainer.join(timeout=30)
        assert not drainer.is_alive()
        assert len(got) == n_lots * lot_size
        assert sorted({r.lot_id for r in got}) == list(range(n_lots))


class _GatedBoard:
    """Board proxy that blocks captures until the test opens the gate."""

    def __init__(self, board, gate):
        self._board = board
        self._gate = gate

    def __getattr__(self, name):
        return getattr(self._board, name)

    def signature_batch(self, *args, **kwargs):
        self._gate.wait(timeout=30)
        return self._board.signature_batch(*args, **kwargs)


class _BrokenBoard:
    """Board proxy whose captures always fail."""

    def __init__(self, board):
        self._board = board

    def __getattr__(self, name):
        return getattr(self._board, name)

    def signature_batch(self, *args, **kwargs):
        raise RuntimeError("capture exploded")


def _proxied_flow(flow, board):
    return ProductionTestFlow(
        board, flow.stimulus, flow.calibration, limits=flow.limits
    )


class TestBackpressure:
    def test_full_queue_times_out(self, flow_setup):
        flow = flow_setup[2]
        gate = threading.Event()
        slow = _proxied_flow(flow, _GatedBoard(flow.board, gate))
        svc = StreamingTestService(slow, max_pending_lots=1)
        try:
            # lot 1 occupies the dispatcher (blocked on the gate), lot 2
            # fills the one-slot inbox, so lot 3 must hit the timeout
            svc.submit(_lot_devices(flow_setup, 2, seed=0), 0)
            svc.submit(_lot_devices(flow_setup, 2, seed=1), 1, timeout=30)
            with pytest.raises(SubmitTimeout):
                svc.submit(_lot_devices(flow_setup, 2, seed=2), 2, timeout=0.05)
        finally:
            gate.set()
            svc.close()
        # backpressure rejected the lot; the accepted ones still drained
        assert len(list(svc.records())) == 4

    def test_capture_failure_surfaces_on_close(self, flow_setup):
        flow = flow_setup[2]
        broken = _proxied_flow(flow, _BrokenBoard(flow.board))
        svc = StreamingTestService(broken)
        svc.submit(_lot_devices(flow_setup, 2), 0)
        with pytest.raises(RuntimeError, match="capture exploded"):
            svc.close()

    def test_records_timeout_signals_stalled_stream(self, flow_setup):
        flow = flow_setup[2]
        gate = threading.Event()
        slow = _proxied_flow(flow, _GatedBoard(flow.board, gate))
        svc = StreamingTestService(slow)
        try:
            svc.submit(_lot_devices(flow_setup, 2), 0)
            with pytest.raises(queue.Empty):
                next(svc.records(timeout=0.05))
        finally:
            gate.set()
            svc.close()


class TestServiceMetrics:
    def test_quiescent_snapshot_is_consistent(self, flow_setup):
        flow = flow_setup[2]
        with StreamingTestService(flow, max_pending_lots=3) as svc:
            for i in range(2):
                svc.submit(_lot_devices(flow_setup, 4, seed=i), i)
            svc.close()
            list(svc.records())
            snapshot = svc.metrics()
        assert snapshot.devices_emitted == 8
        assert snapshot.lots_completed == 2
        assert snapshot.lots_in_flight == 0
        assert snapshot.devices_in_flight == 0
        assert snapshot.queue_capacity == 3
        assert snapshot.duts_per_second > 0
        assert 0 < snapshot.latency_p50_s <= snapshot.latency_worst_s

    def test_injected_clock_drives_timestamps(self, flow_setup):
        flow = flow_setup[2]
        with StreamingTestService(flow, clock=lambda: 5.0) as svc:
            svc.submit(_lot_devices(flow_setup, 2), 0)
            svc.close()
            records = list(svc.records())
            snapshot = svc.metrics()
        assert snapshot.elapsed_s == 0.0
        assert all(r.latency == 0.0 for r in records)

    def test_constructor_validation(self, flow_setup):
        flow = flow_setup[2]
        with pytest.raises(ValueError):
            StreamingTestService(flow, max_pending_lots=0)
        with pytest.raises(ValueError):
            StreamingTestService(flow, chunksize=0)


class TestStreamTypes:
    def test_lot_seed_count_must_match_devices(self):
        with pytest.raises(ValueError):
            Lot(lot_id=0, devices=[object()], seeds=[])

    def test_seeded_lot_freezes_per_device_streams(self):
        lot = Lot.seeded(3, [object(), object()], seed=7, cell_id=1)
        assert len(lot) == 2
        assert lot.cell_id == 1
        assert all(
            isinstance(s, np.random.SeedSequence) for s in lot.seeds
        )
        replay = Lot.seeded(3, [object(), object()], seed=7)
        assert [s.entropy for s in lot.seeds] == [s.entropy for s in replay.seeds]

    def test_iter_lot_chunks_covers_in_order(self):
        lot = Lot.seeded(0, [f"d{i}" for i in range(5)], seed=1)
        chunks = list(iter_lot_chunks(lot, 2))
        assert [ids for ids, _, _ in chunks] == [[0, 1], [2, 3], [4]]
        assert [devs for _, devs, _ in chunks] == [
            ["d0", "d1"], ["d2", "d3"], ["d4"]
        ]
        with pytest.raises(ValueError):
            list(iter_lot_chunks(lot, 0))

    def test_batched_waves(self):
        assert list(batched(range(5), 2)) == [[0, 1], [2, 3], [4]]
        assert list(batched([], 3)) == []
        with pytest.raises(ValueError):
            list(batched(range(3), 0))

    def test_stream_record_exposes_device_id(self, flow_setup):
        flow = flow_setup[2]
        rec = flow.test_device(
            _lot_devices(flow_setup, 1)[0], np.random.default_rng(0), device_id=9
        )
        wrapped = StreamRecord(lot_id=2, cell_id=1, record=rec, latency=0.5)
        assert wrapped.device_id == 9
