"""Tests for repro.runtime.production (end-to-end production flow)."""

import dataclasses

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.device import SpecSet
from repro.circuits.parameters import ParameterSpace, ProcessParameter
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig
from repro.regression.mars import MARSRegressor
from repro.regression.pipeline import Pipeline
from repro.runtime.calibration import CalibrationModel, CalibrationSession
from repro.runtime.executor import spawn_generators
from repro.runtime.production import (
    DeviceTestRecord,
    ProductionRunResult,
    ProductionTestFlow,
)
from repro.runtime.service import StreamingTestService
from repro.runtime.specs import lna_limits
from repro.testgen.pwl import StimulusEncoding


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
    return space, factory, board, stim, calibration


class TestProductionFlow:
    def test_single_device(self, flow_setup):
        space, factory, board, stim, calibration = flow_setup
        flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
        device = factory(space.to_dict(space.nominal_vector()))
        rec = flow.run([device], np.random.default_rng(0))[0]
        assert rec.device_id == 0
        assert rec.passed is True
        assert rec.predicted.gain_db == pytest.approx(16.0, abs=0.5)
        assert rec.test_time == board.config.total_test_time()

    def test_bad_device_fails(self, flow_setup):
        space, factory, board, stim, calibration = flow_setup
        flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
        # train distribution is around 16 dB; an 11 dB device must fail
        dud = factory({"gain_db": 11.0, "nf_db": 2.2, "iip3_dbm": 3.0})
        rec = flow.run([dud], np.random.default_rng(1))[0]
        assert rec.passed is False

    def test_run_statistics(self, flow_setup):
        space, factory, board, stim, calibration = flow_setup
        rng = np.random.default_rng(2)
        devices = [factory(space.to_dict(p)) for p in space.sample(rng, 10)]
        flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
        result = flow.run(devices, rng)
        assert result.n_devices == 10
        assert 0.0 <= result.yield_fraction <= 1.0
        assert result.mean_test_time > 0
        assert result.throughput_per_hour() > 100.0
        assert result.predicted_matrix().shape == (10, 3)

    def test_no_limits_means_no_verdict(self, flow_setup):
        space, factory, board, stim, calibration = flow_setup
        flow = ProductionTestFlow(board, stim, calibration, limits=None)
        rec = flow.run(
            [factory(space.to_dict(space.nominal_vector()))], np.random.default_rng(3)
        )[0]
        assert rec.passed is None

    def test_empty_run_statistics_raise(self, flow_setup):
        _, _, board, stim, calibration = flow_setup
        flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
        result = flow.run([], np.random.default_rng(4))
        with pytest.raises(ValueError):
            result.mean_test_time
        with pytest.raises(ValueError):
            result.yield_fraction


@pytest.mark.allow_nonfinite
class TestFailClosed:
    """A non-finite prediction never bins as a pass."""

    @pytest.mark.parametrize("executor", [None, "thread:2", "process:2"])
    def test_nan_device_fails_inside_good_lot(self, flow_setup, executor):
        space, factory, board, stim, calibration = flow_setup
        flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
        nominal = space.to_dict(space.nominal_vector())
        devices = [factory(nominal) for _ in range(6)]
        # a NaN gain poisons the signature, hence the signature-driven
        # predictions (a spec whose model ignores the signature stays finite)
        devices[3] = factory({**nominal, "gain_db": float("nan")})
        result = flow.run(
            devices, np.random.default_rng(5), executor=executor, chunksize=2
        )
        assert np.isnan(result.records[3].predicted.gain_db)
        assert [r.passed for r in result.records] == [True] * 3 + [False] + [True] * 2
        # the chunk's vectorized verdict equals the per-SpecSet check
        for record in result.records:
            assert flow.limits.check(record.predicted) is record.passed

    @pytest.mark.parametrize("runner", ["flow.run", "stream"])
    @pytest.mark.parametrize("executor", [None, "thread:2"])
    def test_nan_signature_fails_when_every_model_is_constant(
        self, flow_setup, runner, executor
    ):
        space, factory, board, stim, _ = flow_setup
        nominal = space.to_dict(space.nominal_vector())
        good = factory(nominal)
        # hinge-free MARS fits on a constant target: every limited spec
        # predicts the (passing) nominal value whatever the signature
        train = board.signature_batch(
            [good] * 8, stim, rngs=spawn_generators(np.random.default_rng(1), 8)
        )
        pipelines = {}
        for name, value in zip(SpecSet.NAMES, good.specs().as_vector()):
            pipelines[name] = Pipeline([MARSRegressor()]).fit(
                train, np.full(len(train), value)
            )
            assert pipelines[name].steps[-1].n_terms == 0
        calibration = CalibrationModel(
            spec_names=list(SpecSet.NAMES),
            pipelines=pipelines,
            chosen={name: "mars" for name in SpecSet.NAMES},
            cv_scores={name: {"mars": 0.0} for name in SpecSet.NAMES},
        )
        flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
        devices = [factory(nominal) for _ in range(5)]
        devices[1] = factory({**nominal, "gain_db": float("nan")})

        if runner == "flow.run":
            records = flow.run(
                devices, np.random.default_rng(9), executor=executor
            ).records
        else:
            with StreamingTestService(flow, executor=executor, chunksize=2) as svc:
                svc.submit(devices, np.random.default_rng(9))
                svc.close()
                records = [stream_record.record for stream_record in svc.records()]
        assert not np.isfinite(records[1].signature).all()
        # the prediction itself looks healthy ...
        assert np.isfinite(records[1].predicted.as_vector()).all()
        assert flow.limits.check(records[1].predicted)
        # ... but a non-finite signature never passes
        assert [r.passed for r in records] == [True, False, True, True, True]
        # finite rows bin exactly as the limits alone say
        for record in records[:1] + records[2:]:
            assert flow.limits.check(record.predicted) is record.passed


    @pytest.mark.parametrize("runner", ["flow.run", "stream"])
    @pytest.mark.parametrize("executor", [None, "thread:2"])
    def test_nan_noise_figure_fails(self, flow_setup, runner, executor):
        # with device noise on, a NaN NF is a NaN noise sigma: the row
        # draws and scales like any noisy row, turns NaN and fails
        # through the non-finite-signature check instead of passing
        # with a clean, noise-free signature
        space, factory, board, stim, calibration = flow_setup
        noisy = SignatureTestBoard(
            dataclasses.replace(board.config, include_device_noise=True)
        )
        flow = ProductionTestFlow(noisy, stim, calibration, limits=lna_limits())
        nominal = space.to_dict(space.nominal_vector())
        devices = [factory(nominal) for _ in range(7)]
        bad = [1, 5]
        for i in bad:
            devices[i] = factory({**nominal, "nf_db": float("nan")})
        if runner == "flow.run":
            records = flow.run(
                devices, np.random.default_rng(3), executor=executor, chunksize=3
            ).records
        else:
            with StreamingTestService(flow, executor=executor, chunksize=3) as svc:
                svc.submit(devices[:4], np.random.default_rng(3))
                svc.submit(devices[4:], np.random.default_rng(4))
                svc.close()
                records = [stream_record.record for stream_record in svc.records()]
            offline = flow.run(devices[:4], np.random.default_rng(3)).records
            offline += flow.run(devices[4:], np.random.default_rng(4)).records
            for streamed, alone in zip(records, offline):
                assert np.array_equal(streamed.signature, alone.signature, equal_nan=True)
                assert streamed.passed is alone.passed
        for i, record in enumerate(records):
            if i in bad:
                assert np.isnan(record.signature).all()
                assert record.passed is False
            else:
                assert np.isfinite(record.signature).all()
                assert flow.limits.check(record.predicted) is record.passed


class TestEdgeLots:
    @pytest.mark.parametrize("executor", [None, "thread:2", "process:2"])
    def test_empty_lot(self, flow_setup, executor):
        self._check_empty_lot(flow_setup, executor, flow_setup[2])

    @pytest.mark.parametrize("executor", [None, "thread:2", "process:2"])
    def test_empty_lot_on_four_sites(self, flow_setup, executor):
        board = MultiSiteBoard(flow_setup[2].config, MultiSiteConfig(n_sites=4))
        self._check_empty_lot(flow_setup, executor, board)

    @staticmethod
    def _check_empty_lot(flow_setup, executor, board):
        space, factory, _, stim, calibration = flow_setup
        flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
        result = flow.run([], np.random.default_rng(0), executor=executor)
        assert result.n_devices == 0
        assert result.records == []
        assert result.predicted_matrix().shape == (0, 3)
        # an empty lot has every column a lot has, and the board's test time
        device = factory(space.to_dict(space.nominal_vector()))
        assert result.signatures.shape == (0, board.signature(device, stim).size)
        assert result.passed.dtype == bool and result.passed.shape == (0,)
        assert result.seed_words.shape == (0, 4)
        assert result.test_time == board.device_test_time()

    @pytest.mark.parametrize("executor", [None, "thread:2", "process:2"])
    def test_single_device_matches_serial(self, flow_setup, executor):
        space, factory, board, stim, calibration = flow_setup
        flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
        device = factory(space.to_dict(space.nominal_vector()))
        reference = flow.run([device], np.random.default_rng(4))
        result = flow.run([device], np.random.default_rng(4), executor=executor)
        assert result.n_devices == 1
        rec, ref = result.records[0], reference.records[0]
        assert rec.device_id == 0
        assert np.array_equal(rec.signature, ref.signature)
        assert rec.predicted.as_vector() == pytest.approx(
            ref.predicted.as_vector()
        )


class TestColumnarResult:
    """A lot's result is columns; records are views built when read."""

    def _flow_and_lot(self, flow_setup, n=7, limits=True):
        space, factory, board, stim, calibration = flow_setup
        flow = ProductionTestFlow(
            board, stim, calibration, limits=lna_limits() if limits else None
        )
        rng = np.random.default_rng(12)
        return flow, [factory(space.to_dict(p)) for p in space.sample(rng, n)]

    @pytest.mark.parametrize("executor", [None, "thread:2"])
    def test_run_builds_no_record_unless_records_is_read(
        self, flow_setup, executor, monkeypatch
    ):
        built = []
        init = DeviceTestRecord.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(DeviceTestRecord, "__init__", counting_init)
        flow, devices = self._flow_and_lot(flow_setup)
        result = flow.run(
            devices, np.random.default_rng(3), executor=executor, chunksize=3
        )
        assert result.n_devices == 7
        assert 0.0 <= result.yield_fraction <= 1.0
        assert result.predicted_matrix().shape == (7, 3)
        assert result.total_test_time > 0.0
        assert built == []
        assert len(result.records) == 7
        assert len(built) == 7

    def test_columns_are_read_only_and_records_are_views(self, flow_setup):
        flow, devices = self._flow_and_lot(flow_setup)
        result = flow.run(devices, np.random.default_rng(3))
        for column in (result.device_id, result.signatures, result.predicted,
                       result.passed, result.site, result.seed_words):
            assert not column.flags.writeable
        record = result[2]
        assert np.shares_memory(record.signature, result.signatures)
        with pytest.raises(ValueError):
            record.signature[0] = 0.0
        assert result.seed_words.shape == (7, 4)
        assert result.device_id.tolist() == list(range(7))

    def test_indexing_iteration_and_slices_agree(self, flow_setup):
        flow, devices = self._flow_and_lot(flow_setup)
        result = flow.run(devices, np.random.default_rng(3))
        for i, record in enumerate(result):
            other = result[i]
            assert record.device_id == other.device_id == i
            assert record.passed is other.passed
            assert record.site_index == other.site_index
            assert record.test_time == other.test_time
            assert np.array_equal(record.signature, other.signature)
            assert np.array_equal(record.predicted.as_vector(), other.predicted.as_vector())
        tail = result[4:]
        assert tail.n_devices == 3
        assert [r.device_id for r in tail] == [4, 5, 6]
        assert np.array_equal(tail.predicted, result.predicted[4:])
        whole = ProductionRunResult.concat([result[:4], tail])
        assert np.array_equal(whole.signatures, result.signatures)
        assert np.array_equal(whole.passed, result.passed)
        assert whole.total_test_time == result.total_test_time

    def test_aggregates_match_the_records(self, flow_setup):
        flow, devices = self._flow_and_lot(flow_setup)
        result = flow.run(devices, np.random.default_rng(3))
        records = result.records
        assert result.total_test_time == sum(r.test_time for r in records)
        assert result.yield_fraction == sum(r.passed for r in records) / len(records)
        assert np.array_equal(
            result.predicted_matrix(), np.vstack([r.predicted.as_vector() for r in records])
        )

    def test_no_limits_has_no_verdict_column(self, flow_setup):
        flow, devices = self._flow_and_lot(flow_setup, n=3, limits=False)
        result = flow.run(devices, np.random.default_rng(3), executor="thread:2")
        assert result.passed is None
        assert [r.passed for r in result] == [None] * 3
        with pytest.raises(ValueError):
            result.yield_fraction
