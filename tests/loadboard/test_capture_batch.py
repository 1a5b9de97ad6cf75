"""Batched capture vs the per-device path: bit-identity and caching.

The contract of ``SignatureTestBoard.capture_batch`` /
``signature_batch``: row ``i`` equals (``np.array_equal``, not approx)
the one-device path on the same per-device RNG stream, for every
coupling mode, noise setting, path-phase mode and fixture loss -- and
the batched runtime call sites inherit that identity across executors.
"""

import dataclasses

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.loadboard.signature_path import (
    SignaturePathConfig,
    SignatureTestBoard,
    simulation_config,
)
from repro.parallel import SerialExecutor, ThreadExecutor, spawn_generators
from repro.runtime.calibration import measure_signatures


@pytest.fixture
def stim():
    rng = np.random.default_rng(9)
    return PiecewiseLinearStimulus(rng.uniform(-0.25, 0.25, 16), 5e-6, 0.4)


def make_lot(n=6, engine_rate=80e6, with_env_bw=False):
    """A small lot of distinct devices (mixed envelope bandwidths)."""
    rng = np.random.default_rng(7)
    nyquist = engine_rate / 2.0
    bandwidths = [None, 0.2 * nyquist, 0.45 * nyquist]
    return [
        BehavioralAmplifier(
            900e6,
            16.0 + rng.normal(0.0, 0.5),
            2.0 + abs(rng.normal(0.0, 0.2)),
            10.0 + rng.normal(0.0, 1.0),
            envelope_bandwidth=bandwidths[i % 3] if with_env_bw else None,
        )
        for i in range(n)
    ]


def batch_and_serial(cfg, devices, stim, seed=42, n_bins=None, log_scale=False):
    """Signatures from one batched call and from a per-device loop."""
    board = SignatureTestBoard(cfg)
    batch = board.signature_batch(
        devices, stim, rng=np.random.default_rng(seed),
        n_bins=n_bins, log_scale=log_scale,
    )
    board2 = SignatureTestBoard(cfg)
    gens = spawn_generators(np.random.default_rng(seed), len(devices))
    serial = np.vstack(
        [
            board2.signature(d, stim, rng=g, n_bins=n_bins, log_scale=log_scale)
            for d, g in zip(devices, gens)
        ]
    )
    return batch, serial


class TestBatchBitIdentity:
    @pytest.mark.parametrize("coupling", ["tuned", "wideband"])
    @pytest.mark.parametrize("device_noise", [True, False])
    def test_coupling_and_device_noise(self, stim, coupling, device_noise):
        cfg = dataclasses.replace(
            simulation_config(),
            dut_coupling=coupling,
            include_device_noise=device_noise,
        )
        batch, serial = batch_and_serial(cfg, make_lot(), stim)
        assert batch.shape == serial.shape
        assert np.array_equal(batch, serial)

    def test_random_path_phase(self, stim):
        cfg = dataclasses.replace(
            simulation_config(), random_path_phase=True, lo_offset_hz=100e3
        )
        batch, serial = batch_and_serial(cfg, make_lot(), stim)
        assert np.array_equal(batch, serial)

    def test_fixture_losses(self, stim):
        cfg = dataclasses.replace(
            simulation_config(), input_loss_db=1.5, output_loss_db=2.0
        )
        batch, serial = batch_and_serial(cfg, make_lot(), stim)
        assert np.array_equal(batch, serial)

    def test_mixed_envelope_bandwidths(self, stim):
        cfg = simulation_config()
        devices = make_lot(engine_rate=cfg.engine_rate, with_env_bw=True)
        batch, serial = batch_and_serial(cfg, devices, stim)
        assert np.array_equal(batch, serial)

    def test_quantized_digitizer(self, stim):
        cfg = dataclasses.replace(simulation_config(), digitizer_bits=10)
        batch, serial = batch_and_serial(cfg, make_lot(), stim)
        assert np.array_equal(batch, serial)

    def test_n_bins_and_log_scale(self, stim):
        cfg = simulation_config()
        batch, serial = batch_and_serial(
            cfg, make_lot(), stim, n_bins=12, log_scale=True
        )
        assert batch.shape[1] == 12
        assert np.array_equal(batch, serial)

    def test_noise_free(self, stim):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot()
        batch = board.signature_batch(devices, stim)
        serial = np.vstack([board.signature(d, stim) for d in devices])
        assert np.array_equal(batch, serial)

    def test_capture_batch_waveforms_match_capture(self, stim):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot(n=4)
        gens = spawn_generators(np.random.default_rng(1), len(devices))
        batch = board.capture_batch(devices, stim, rngs=gens)
        gens2 = spawn_generators(np.random.default_rng(1), len(devices))
        for device, g, wf in zip(devices, gens2, batch):
            single = board.capture(device, stim, rng=g)
            assert isinstance(wf, Waveform)
            assert wf.sample_rate == single.sample_rate
            assert np.array_equal(wf.samples, single.samples)

    def test_identical_devices_identical_noise_free_rows(self, stim):
        board = SignatureTestBoard(simulation_config())
        device = make_lot(n=1)[0]
        batch = board.signature_batch([device, device, device], stim)
        assert np.array_equal(batch[0], batch[1])
        assert np.array_equal(batch[0], batch[2])

    def test_overdrive_ratios_per_device(self, stim):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot()
        board.signature_batch(devices, stim)
        ratios = board.last_overdrive_ratios.copy()
        assert ratios.shape == (len(devices),)
        assert board.last_overdrive_ratio == pytest.approx(ratios.max())
        singles = []
        for device in devices:
            board.signature(device, stim)
            singles.append(board.last_overdrive_ratio)
        assert np.array_equal(ratios, np.array(singles))


class TestBatchArguments:
    def test_rng_and_rngs_mutually_exclusive(self, stim):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot(n=2)
        gens = spawn_generators(0, 2)
        with pytest.raises(ValueError, match="not both"):
            board.signature_batch(
                devices, stim, rng=np.random.default_rng(0), rngs=gens
            )

    def test_rngs_length_checked(self, stim):
        board = SignatureTestBoard(simulation_config())
        with pytest.raises(ValueError, match="per device"):
            board.signature_batch(make_lot(n=3), stim, rngs=spawn_generators(0, 2))

    def test_random_path_phase_requires_rng(self, stim):
        cfg = dataclasses.replace(
            simulation_config(), random_path_phase=True, lo_offset_hz=100e3
        )
        board = SignatureTestBoard(cfg)
        with pytest.raises(ValueError, match="requires an rng"):
            board.signature_batch(make_lot(n=2), stim)

    def test_empty_batch(self, stim):
        board = SignatureTestBoard(simulation_config())
        assert board.capture_batch([], stim) == []
        # an empty lot still knows its bin count: (0, m), matching any
        # non-empty batch, so vstack/column code downstream keeps working
        one = board.signature_batch(make_lot(n=1), stim)
        sigs = board.signature_batch([], stim)
        assert sigs.shape == (0, one.shape[1])
        assert board.signature_batch([], stim, n_bins=7).shape == (0, 7)


class TestCapturePlanCache:
    def test_value_equal_stimuli_share_a_plan(self, stim):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot(n=2)
        board.signature_batch(devices, stim)
        assert len(board._plan_cache) == 1
        clone = PiecewiseLinearStimulus(
            stim.levels.copy(), stim.duration, stim.v_limit
        )
        board.signature_batch(devices, clone)
        assert len(board._plan_cache) == 1

    def test_distinct_stimuli_get_distinct_plans(self, stim):
        board = SignatureTestBoard(simulation_config())
        device = make_lot(n=1)[0]
        board.signature(device, stim)
        other = PiecewiseLinearStimulus(
            stim.levels * 0.5, stim.duration, stim.v_limit
        )
        board.signature(device, other)
        assert len(board._plan_cache) == 2

    def test_cache_is_bounded(self, stim):
        board = SignatureTestBoard(simulation_config())
        device = make_lot(n=1)[0]
        rng = np.random.default_rng(3)
        for _ in range(board._plan_cache_size + 4):
            levels = rng.uniform(-0.25, 0.25, 16)
            board.signature(
                device, PiecewiseLinearStimulus(levels, 5e-6, 0.4)
            )
        assert len(board._plan_cache) == board._plan_cache_size

    def test_cached_plan_gives_identical_signature(self, stim):
        board = SignatureTestBoard(simulation_config())
        device = make_lot(n=1)[0]
        first = board.signature(device, stim)
        second = board.signature(device, stim)  # plan served from cache
        assert np.array_equal(first, second)

    def test_plan_cache_not_pickled(self, stim):
        import pickle

        board = SignatureTestBoard(simulation_config())
        device = make_lot(n=1)[0]
        board.signature(device, stim)
        assert len(board._plan_cache) == 1
        clone = pickle.loads(pickle.dumps(board))
        assert len(clone._plan_cache) == 0
        assert np.array_equal(
            clone.signature(device, stim), board.signature(device, stim)
        )


class TestRuntimeBatchDispatch:
    """measure_signatures chunks batched boards identically on every backend."""

    @pytest.mark.parametrize("executor", [None, "serial", "thread", "process:2"])
    @pytest.mark.parametrize("chunksize", [None, 1, 4])
    def test_cross_backend_identity(self, stim, executor, chunksize):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot(n=8)
        ref = measure_signatures(board, stim, devices, np.random.default_rng(3))
        out = measure_signatures(
            board, stim, devices, np.random.default_rng(3),
            executor=executor, chunksize=chunksize,
        )
        assert np.array_equal(ref, out)

    def test_thread_executor_instance(self, stim):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot(n=6)
        ref = measure_signatures(board, stim, devices, np.random.default_rng(8))
        with ThreadExecutor(max_workers=3) as ex:
            out = measure_signatures(
                board, stim, devices, np.random.default_rng(8),
                executor=ex, chunksize=2,
            )
        assert np.array_equal(ref, out)

    def test_serial_instance_runs_single_batch(self, stim):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot(n=4)
        out = measure_signatures(
            board, stim, devices, np.random.default_rng(2),
            executor=SerialExecutor(),
        )
        assert out.shape[0] == 4
