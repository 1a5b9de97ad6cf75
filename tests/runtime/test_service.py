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
import time

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.parameters import ParameterSpace, ProcessParameter
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.runtime.calibration import CalibrationSession
from repro.runtime.executor import _device_chunks
from repro.runtime.production import ProductionTestFlow
from repro.runtime.service import StreamingTestService
from repro.runtime.specs import lna_limits
from repro.runtime.stream import (
    Lot,
    ServiceClosed,
    StreamRecord,
    SubmitTimeout,
    batched,
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


class _CountingGatedBoard(_GatedBoard):
    """Gated proxy that records the rows of every capture."""

    def __init__(self, board, gate):
        super().__init__(board, gate)
        self.rows = []

    def signature_batch(self, devices, *args, **kwargs):
        self.rows.append(len(devices))
        return super().signature_batch(devices, *args, **kwargs)


class _StepBoard:
    """Board proxy that holds each capture until the test releases it."""

    def __init__(self, board):
        self._board = board
        self.entered = threading.Semaphore(0)
        self.release = threading.Semaphore(0)

    def __getattr__(self, name):
        return getattr(self._board, name)

    def signature_batch(self, *args, **kwargs):
        self.entered.release()
        assert self.release.acquire(timeout=30)
        return self._board.signature_batch(*args, **kwargs)


class _FailingBoard(_GatedBoard):
    """Gated proxy whose capture fails when it holds a marked device."""

    def __init__(self, board, gate, bad_devices):
        super().__init__(board, gate)
        self._bad = {id(device) for device in bad_devices}

    def signature_batch(self, devices, *args, **kwargs):
        self._gate.wait(timeout=30)
        if any(id(device) in self._bad for device in devices):
            raise RuntimeError("bad lot")
        return self._board.signature_batch(devices, *args, **kwargs)


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


class TestCoalescing:
    def test_one_capture_serves_every_queued_lot(self, flow_setup):
        flow = flow_setup[2]
        gate = threading.Event()
        board = _CountingGatedBoard(flow.board, gate)
        lots = [_lot_devices(flow_setup, 3, seed=i) for i in range(5)]
        with StreamingTestService(_proxied_flow(flow, board), max_pending_lots=4) as svc:
            for i, devices in enumerate(lots):
                svc.submit(devices, np.random.default_rng(200 + i))
                while not board.rows:  # lot 0 holds the dispatcher at the gate
                    threading.Event().wait(0.005)
            gate.set()
            svc.close()
            streamed = list(svc.records())
            snapshot = svc.metrics()
        # lots 1-4 queued behind lot 0 share the next capture
        assert board.rows == [3, 12]
        assert snapshot.captures == len(board.rows)
        assert snapshot.lots_completed == 5
        assert [r.lot_id for r in streamed] == [i for i in range(5) for _ in range(3)]
        for i, devices in enumerate(lots):
            offline = flow.run(devices, np.random.default_rng(200 + i))
            _assert_records_match([r for r in streamed if r.lot_id == i], offline.records)

    def test_a_batch_of_empty_lots_completes_and_emits_nothing(self, flow_setup):
        flow = flow_setup[2]
        gate = threading.Event()
        board = _CountingGatedBoard(flow.board, gate)
        with StreamingTestService(_proxied_flow(flow, board), max_pending_lots=4) as svc:
            for i in range(4):
                svc.submit([], np.random.default_rng(300 + i))
                deadline = time.monotonic() + 30
                while not board.rows:  # lot 0 holds the dispatcher at the gate
                    assert time.monotonic() < deadline
                    threading.Event().wait(0.005)
            gate.set()
            svc.close()
            streamed = list(svc.records())
            snapshot = svc.metrics()
        # lots 1-3 share the second capture: one empty chunk
        assert board.rows == [0, 0]
        assert snapshot.captures == 2
        assert snapshot.lots_completed == 4
        assert streamed == [] and snapshot.devices_emitted == 0

    def test_each_lot_keeps_its_own_latency(self, flow_setup):
        flow = flow_setup[2]
        gate = threading.Event()
        now = [0.0]
        slow = _proxied_flow(flow, _GatedBoard(flow.board, gate))
        with StreamingTestService(slow, clock=lambda: now[0]) as svc:
            for i in range(3):
                now[0] = float(i)
                svc.submit(_lot_devices(flow_setup, 2, seed=i), i)
            now[0] = 10.0
            gate.set()
            svc.close()
            latencies = {r.lot_id: r.latency for r in svc.records()}
            snapshot = svc.metrics()
        assert latencies == {0: 10.0, 1: 9.0, 2: 8.0}
        # six devices from the first submission at t = 0 to t = 10
        assert snapshot.duts_per_second == pytest.approx(0.6)

    def test_in_flight_lots_never_exceed_twice_the_queue(self, flow_setup):
        flow = flow_setup[2]
        board = _StepBoard(flow.board)
        pending = 3
        n_lots = 12
        svc = StreamingTestService(_proxied_flow(flow, board), max_pending_lots=pending)
        submitter = threading.Thread(
            target=lambda: [
                svc.submit(_lot_devices(flow_setup, 2, seed=i), i) for i in range(n_lots)
            ],
            daemon=True,
        )
        submitter.start()
        seen = []
        try:
            while True:
                # the dispatcher is inside a capture: let the submitter
                # fill the inbox (or finish), then count what is held
                assert board.entered.acquire(timeout=30)
                while submitter.is_alive() and svc.metrics().queue_depth < pending:
                    threading.Event().wait(0.005)
                threading.Event().wait(0.05)
                seen.append(svc.metrics().lots_in_flight)
                board.release.release()
                if not submitter.is_alive() and svc.metrics().queue_depth == 0:
                    break
        finally:
            board.release.release(n_lots)
            submitter.join(timeout=30)
            svc.close()
        assert len(list(svc.records())) == 2 * n_lots
        assert max(seen) <= 2 * pending
        # the bound is reached: a full batch in capture, a full inbox
        assert max(seen) == 2 * pending


class TestCoalescedFailure:
    def test_lots_before_the_failing_lot_emit(self, flow_setup):
        flow = flow_setup[2]
        gate = threading.Event()
        lots = [_lot_devices(flow_setup, 2, seed=i) for i in range(5)]
        board = _FailingBoard(flow.board, gate, bad_devices=lots[3])
        svc = StreamingTestService(_proxied_flow(flow, board), max_pending_lots=4)
        for i, devices in enumerate(lots):
            svc.submit(devices, np.random.default_rng(300 + i))
        gate.set()
        with pytest.raises(RuntimeError, match="bad lot"):
            svc.close()
        streamed = list(svc.records())
        # lot 3 shared a capture with lots 1 and 2 (and 0, if the
        # dispatcher woke late), which raised: the earlier lots still
        # emit, lot 3 and the later lot 4 never do
        assert [r.lot_id for r in streamed] == [0, 0, 1, 1, 2, 2]
        for i in range(3):
            offline = flow.run(lots[i], np.random.default_rng(300 + i))
            _assert_records_match([r for r in streamed if r.lot_id == i], offline.records)
        assert svc.metrics().lots_completed == 3


class TestBlocks:
    """The outbox holds one block of result columns per lot piece."""

    def test_one_outbox_item_per_lot_piece(self, flow_setup):
        flow = flow_setup[2]
        gate = threading.Event()
        gated = _proxied_flow(flow, _GatedBoard(flow.board, gate))
        with StreamingTestService(gated, max_pending_lots=4) as svc:
            for i in range(4):
                svc.submit(_lot_devices(flow_setup, 3, seed=i), i)
            gate.set()
            svc.close()
            items = list(svc._outbox.queue)
            streamed = list(svc.records())
        blocks = items[:-1]  # then the end-of-stream sentinel
        assert len(blocks) == 4
        assert [lot.lot_id for lot, _, _ in blocks] == [0, 1, 2, 3]
        assert [len(block) for _, _, block in blocks] == [3] * 4
        assert [(r.lot_id, r.device_id) for r in streamed] == [
            (lot, device) for lot in range(4) for device in range(3)
        ]

    def test_a_drainer_that_stops_mid_block_drops_nothing(self, flow_setup):
        flow = flow_setup[2]
        devices = _lot_devices(flow_setup, 5)
        offline = flow.run(devices, np.random.default_rng(11))
        with StreamingTestService(flow) as svc:
            svc.submit(devices, np.random.default_rng(11))
            svc.close()
            drainer = svc.records()
            first = [next(drainer), next(drainer)]
            drainer.close()  # hands the other three back, in order
            rest = list(svc.records())
        _assert_records_match(first + rest, offline.records)

    def test_per_lot_metrics_count_every_device(self, flow_setup):
        flow = flow_setup[2]
        ticks = iter(range(1000))
        with StreamingTestService(flow, clock=lambda: float(next(ticks))) as svc:
            svc.submit(_lot_devices(flow_setup, 3, seed=0), 0)
            svc.submit(_lot_devices(flow_setup, 2, seed=1), 1)
            svc.close()
            latencies = [r.latency for r in svc.records()]
            snapshot = svc.metrics()
        assert snapshot.devices_emitted == 5
        assert snapshot.latency_mean_s == sum(latencies) / 5
        assert snapshot.latency_worst_s == max(latencies)


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

    def test_lot_seeds_must_be_a_seed_block(self):
        # chunk tasks build their generators from the block
        with pytest.raises(TypeError):
            Lot(lot_id=0, devices=[object()], seeds=np.random.SeedSequence(1).spawn(1))

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
        chunks = list(_device_chunks([(lot.devices, lot.seeds)], 2))
        assert [ids for ids, _, _ in chunks] == [[0, 1], [2, 3], [4]]
        assert [devs for _, devs, _ in chunks] == [
            ["d0", "d1"], ["d2", "d3"], ["d4"]
        ]
        with pytest.raises(ValueError):
            list(_device_chunks([(lot.devices, lot.seeds)], 0))

    def test_iter_lot_chunks_spans_lots(self):
        # three lots (one empty) as one row stream: chunks cross lot
        # boundaries, ids stay lot-local, every row keeps its own seed
        lots = [
            Lot.seeded(0, ["a0", "a1", "a2"], seed=1),
            Lot.seeded(1, [], seed=2),
            Lot.seeded(2, ["b0", "b1", "b2"], seed=3),
        ]
        chunks = list(_device_chunks([(lot.devices, lot.seeds) for lot in lots], 4))
        assert [ids for ids, _, _ in chunks] == [[0, 1, 2, 0], [1, 2]]
        assert [devs for _, devs, _ in chunks] == [
            ["a0", "a1", "a2", "b0"], ["b1", "b2"]
        ]
        words = [
            np.vstack([block.words for block in blocks]) for _, _, blocks in chunks
        ]
        assert np.array_equal(
            np.vstack(words), np.vstack([lots[0].seeds.words, lots[2].seeds.words])
        )
        assert [len(blocks) for _, _, blocks in chunks] == [2, 1]

    def test_batched_waves(self):
        assert list(batched(range(5), 2)) == [[0, 1], [2, 3], [4]]
        assert list(batched([], 3)) == []
        with pytest.raises(ValueError):
            list(batched(range(3), 0))

    def test_stream_record_exposes_device_id(self, flow_setup):
        flow = flow_setup[2]
        # a lot piece's row reads its id from the column, not its position
        block = flow.run(_lot_devices(flow_setup, 3), np.random.default_rng(0))[1:]
        wrapped = StreamRecord(lot_id=2, cell_id=1, latency=0.5, block=block, row=1)
        assert wrapped.device_id == 2
        assert wrapped.record == block[1]

    def test_id_only_drain_builds_no_record(self, flow_setup, monkeypatch):
        # a stream record is a row view of its lot piece's columns: reading
        # ids builds no DeviceTestRecord, reading .record builds one, once
        from repro.runtime import production

        flow = flow_setup[2]
        lots = [_lot_devices(flow_setup, 5, seed=i) for i in range(3)]
        built = []
        real = production.DeviceTestRecord

        def counting(*args, **kwargs):
            built.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(production, "DeviceTestRecord", counting)
        with StreamingTestService(flow) as svc:
            for i, devices in enumerate(lots):
                svc.submit(devices, i)
            svc.close()
            streamed = list(svc.records())
        ids = [(r.lot_id, r.device_id) for r in streamed]
        assert sorted(ids) == [(lot, i) for lot in range(3) for i in range(5)]
        assert built == []
        first = streamed[0]
        assert first.record is first.record
        assert len(built) == 1
        monkeypatch.undo()
        offline = flow.run(lots[first.lot_id], first.lot_id)
        _assert_records_match([first], [offline[first.device_id]])
