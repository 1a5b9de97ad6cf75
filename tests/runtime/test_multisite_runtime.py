"""Multi-site boards through the runtime layer.

Site-aligned chunking is the load-bearing contract: crosstalk couples
positional insertion groups, so ``_chunk_size`` must never split one
-- ``measure_signatures``, ``ProductionTestFlow.run`` and the
streaming service all stay bit-identical to the whole-lot capture for
any executor and any requested chunk size.  On top of that, every
record must carry the site that captured it, and the stream metrics
must expose per-site counts and the modeled contention wait.
"""

import copy
import threading

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.device import SpecSet
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.scenario_paths import (
    AbmAccessPath,
    AbmPathConfig,
    BistPathConfig,
    BistSignaturePath,
)
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig
from repro.regression.linear import RidgeRegression
from repro.regression.pipeline import Pipeline
from repro.regression.scaling import StandardScaler
from repro.runtime.calibration import CalibrationModel, measure_signatures
from repro.runtime.executor import (
    ThreadExecutor,
    _chunk_size,
    _device_chunks,
    get_executor,
    spawn_seeds,
)
from repro.runtime.production import ProductionTestFlow
from repro.runtime.service import StreamingTestService
from repro.runtime.specs import lna_limits


def _cfg():
    return SignaturePathConfig(
        carrier_freq=900e6,
        carrier_power_dbm=10.0,
        lpf_cutoff_hz=0.45e6,
        lpf_order=5,
        digitizer_rate=2e6,
        digitizer_noise_vrms=1e-3,
        capture_seconds=64e-6,
        envelope_oversample=2,
        dut_coupling="tuned",
    )


def _board(n_sites=2, **site_overrides):
    sites = dict(
        n_sites=n_sites,
        crosstalk_coupling=0.02,
        lo_retune_seconds=1e-3,
        digitizer_readout_seconds=2e-3,
    )
    sites.update(site_overrides)
    return MultiSiteBoard(_cfg(), MultiSiteConfig(**sites))


def _lot(n, seed=3):
    rng = np.random.default_rng(seed)
    return [
        BehavioralAmplifier(
            900e6,
            float(rng.uniform(8.0, 18.0)),
            float(rng.uniform(0.5, 3.5)),
            float(rng.uniform(-12.0, -2.0)),
        )
        for _ in range(n)
    ]


@pytest.fixture
def stim():
    rng = np.random.default_rng(5)
    return PiecewiseLinearStimulus(rng.uniform(-0.7, 0.7, 6), 64e-6)


def _ridge_flow(board, stim, seed=41):
    """A small calibrated flow through the given board."""
    rng = np.random.default_rng(seed)
    train = _lot(12, seed=seed)
    sigs = measure_signatures(
        board, stim, train, np.random.default_rng(int(rng.integers(0, 2**63)))
    )
    spec_matrix = np.vstack([d.specs().as_vector() for d in train])
    pipelines = {}
    for j, name in enumerate(SpecSet.NAMES):
        pipeline = Pipeline([StandardScaler(), RidgeRegression(alpha=1.0)])
        pipeline.fit(sigs, spec_matrix[:, j])
        pipelines[name] = pipeline
    calibration = CalibrationModel(
        spec_names=SpecSet.NAMES,
        pipelines=pipelines,
        chosen={name: "ridge_1" for name in SpecSet.NAMES},
        cv_scores={name: {"ridge_1": 0.0} for name in SpecSet.NAMES},
    )
    return ProductionTestFlow(board, stim, calibration, limits=lna_limits())


class TestChunkAlignment:
    def test_chunk_bounds_round_up_to_alignment(self):
        ex = get_executor("thread:2")
        size = _chunk_size(10, ex, 3, 4)
        assert size == 4
        chunks = list(_device_chunks([(list(range(10)), spawn_seeds(0, 10))], size))
        assert [ids for ids, _, _ in chunks] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]
        ]

    def test_alignment_one_is_unchanged(self):
        ex = get_executor("thread:2")
        assert _chunk_size(10, ex, 3, 1) == _chunk_size(10, ex, 3) == 3

    def test_serial_lot_is_one_chunk(self):
        # a serial backend captures the whole lot at once; lots without
        # rows yield one empty chunk, and a size beyond the lot one chunk
        ex = get_executor(None)
        assert _chunk_size(10, ex, None) == 10
        assert _chunk_size(0, ex, None) == 1
        assert _chunk_size(10, get_executor("thread:2"), 0) == 1
        for n_lots in (1, 3):
            pieces = [([], spawn_seeds(lot, 0)) for lot in range(n_lots)]
            ((ids, devices, (seeds,)),) = _device_chunks(pieces, 1)
            assert ids == devices == [] and seeds.words.shape == (0, 4)
        chunks = list(_device_chunks([(list(range(10)), spawn_seeds(0, 10))], 50))
        assert [ids for ids, _, _ in chunks] == [list(range(10))]

    def test_measure_signatures_chunking_invariant_with_crosstalk(self, stim):
        board = _board(n_sites=3)
        devices = _lot(8)
        whole = measure_signatures(
            board, stim, devices, np.random.default_rng(7)
        )
        for chunksize in (1, 2, 5):
            chunked = measure_signatures(
                board,
                stim,
                devices,
                np.random.default_rng(7),
                executor=ThreadExecutor(2),
                chunksize=chunksize,
            )
            assert np.array_equal(chunked, whole)


class TestProductionFlow:
    def test_records_carry_site_index(self, stim):
        board = _board(n_sites=2)
        flow = _ridge_flow(board, stim)
        result = flow.run(_lot(5, seed=9), np.random.default_rng(13))
        assert [r.site_index for r in result.records] == [0, 1, 0, 1, 0]

    def test_site_index_survives_chunked_executors(self, stim):
        board = _board(n_sites=2)
        flow = _ridge_flow(board, stim)
        devices = _lot(6, seed=9)
        serial = flow.run(devices, np.random.default_rng(13))
        pooled = flow.run(
            devices,
            np.random.default_rng(13),
            executor="thread:2",
            chunksize=3,  # rounded up to a multiple of n_sites
        )
        for a, b in zip(pooled.records, serial.records):
            assert a.site_index == b.site_index
            assert np.array_equal(a.signature, b.signature)
            assert a.passed == b.passed

    def test_test_time_is_amortized_insertion_time(self, stim):
        board = _board(n_sites=4)
        flow = _ridge_flow(board, stim)
        result = flow.run(_lot(4, seed=9), np.random.default_rng(13))
        assert result.records[0].test_time == pytest.approx(
            board.device_test_time()
        )
        assert board.device_test_time() < board.insertion_test_time()

    def test_single_site_records_default_to_site_zero(self, stim):
        flow = _ridge_flow(SignatureTestBoard(_cfg()), stim)
        result = flow.run(_lot(3, seed=9), np.random.default_rng(13))
        assert all(r.site_index == 0 for r in result.records)


class TestStreamingMetrics:
    def test_per_site_counts_and_contention_wait(self, stim):
        board = _board(n_sites=2)
        flow = _ridge_flow(board, stim)
        with StreamingTestService(flow) as service:
            service.submit(_lot(5, seed=9), np.random.default_rng(21))
            service.submit(_lot(2, seed=10), np.random.default_rng(22))
            service.close()
            records = list(service.records())
            snapshot = service.metrics()
        assert len(records) == 7
        assert snapshot.site_devices_emitted == {0: 4, 1: 3}
        assert sum(snapshot.site_devices_emitted.values()) == 7
        expected_wait = 7 * board.arbitration_seconds() / board.n_sites
        assert snapshot.contention_wait_s == pytest.approx(expected_wait)
        for stream_record in records:
            assert stream_record.record.site_index in (0, 1)

    def test_streamed_records_match_offline_multisite_flow(self, stim):
        board = _board(n_sites=2)
        flow = _ridge_flow(board, stim)
        devices = _lot(6, seed=9)
        offline = flow.run(devices, np.random.default_rng(33))
        with StreamingTestService(flow, executor="thread:2") as service:
            service.submit(devices, np.random.default_rng(33))
            service.close()
            streamed = list(service.records())
        assert len(streamed) == len(offline.records)
        for stream_record, reference in zip(streamed, offline.records):
            assert np.array_equal(
                stream_record.record.signature, reference.signature
            )
            assert stream_record.record.site_index == reference.site_index

    def test_single_site_board_reports_no_site_metrics(self, stim):
        flow = _ridge_flow(SignatureTestBoard(_cfg()), stim)
        with StreamingTestService(flow) as service:
            service.submit(_lot(2, seed=9), np.random.default_rng(21))
            service.close()
            list(service.records())
            snapshot = service.metrics()
        assert snapshot.site_devices_emitted is None
        assert snapshot.contention_wait_s == 0.0


_PATHS = {
    "board": lambda: SignatureTestBoard(_cfg()),
    "bist": lambda: BistSignaturePath(BistPathConfig()),
    "abm": lambda: AbmAccessPath(AbmPathConfig(_cfg())),
    "multisite-1": lambda: _board(n_sites=1),
    "multisite-3": lambda: _board(n_sites=3),
}


class TestDeclaredSurfaces:
    """Every path declares the lot geometry the runtime reads."""

    @pytest.mark.parametrize("kind", sorted(_PATHS))
    def test_lot_geometry(self, kind, stim):
        path = _PATHS[kind]()
        if kind.startswith("multisite"):
            sites = int(kind[-1])
            assert path.n_sites == sites
            assert path.device_test_time() == path.insertion_test_time() / sites
            # one readout per extra site, one LO retune per extra site
            assert path.arbitration_seconds() == pytest.approx((sites - 1) * 3e-3)
        else:
            assert path.n_sites == 1
            assert path.device_test_time() == path.config.total_test_time()
            assert path.arbitration_seconds() == 0.0
        flow = _ridge_flow(path, stim)
        result = flow.run(_lot(7, seed=9), np.random.default_rng(13))
        assert np.array_equal(result.site, np.arange(7) % path.n_sites)
        assert result.test_time == path.device_test_time()
        with StreamingTestService(flow) as service:
            service.submit(_lot(7, seed=9), np.random.default_rng(13))
            service.close()
            assert len(list(service.records())) == 7
            snapshot = service.metrics()
        # only a board with more than one site reports per-site counts
        expected = None if path.n_sites == 1 else {0: 3, 1: 2, 2: 2}
        assert snapshot.site_devices_emitted == expected


class _GatedBoard:
    """Board proxy holding captures until the test opens the gate.

    It pickles as the plain board, so process workers (which only run
    after the gate opened) never see the gate.
    """

    def __init__(self, board, gate):
        self._board = board
        self._gate = gate

    def __getattr__(self, name):
        return getattr(self._board, name)

    def __reduce__(self):
        return copy.copy, (self._board,)

    def signature_batch(self, *args, **kwargs):
        self._gate.wait(timeout=30)
        return self._board.signature_batch(*args, **kwargs)


class TestCoalescedLots:
    @pytest.mark.parametrize("executor", [None, "thread:2", "process:2"])
    def test_unaligned_lots_match_offline_on_a_crosstalk_board(self, stim, executor):
        # a one-device lot holds the dispatcher at the gate while the
        # rest queue up; on 4 sites a lot joins a capture only where the
        # rows before it fill whole insertions: [4, 8, 5] | [3] | [0, 4, 6] | [2]
        board = _board(n_sites=4)
        flow = _ridge_flow(board, stim)
        gate = threading.Event()
        gated = ProductionTestFlow(
            _GatedBoard(board, gate), stim, flow.calibration, limits=flow.limits
        )
        sizes = [1, 4, 8, 5, 3, 0, 4, 6, 2]
        lots = [(_lot(n, seed=50 + i), 70 + i) for i, n in enumerate(sizes)]
        with StreamingTestService(gated, executor=executor, max_pending_lots=8) as service:
            for devices, seed in lots:
                service.submit(devices, np.random.default_rng(seed))
            gate.set()
            service.close()
            streamed = list(service.records())
            snapshot = service.metrics()
        assert snapshot.captures == 5
        assert snapshot.lots_completed == len(sizes)
        assert [r.lot_id for r in streamed] == [
            i for i, n in enumerate(sizes) for _ in range(n)
        ]
        for lot_id, (devices, seed) in enumerate(lots):
            offline = flow.run(devices, np.random.default_rng(seed))
            mine = [r.record for r in streamed if r.lot_id == lot_id]
            assert [r.device_id for r in mine] == [r.device_id for r in offline.records]
            for record, reference in zip(mine, offline.records):
                assert np.array_equal(record.signature, reference.signature)
                assert np.array_equal(
                    record.predicted.as_vector(), reference.predicted.as_vector()
                )
                assert record.passed == reference.passed
                assert record.site_index == reference.site_index
