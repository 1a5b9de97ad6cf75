"""Tests for the degraded signature-access scenarios (BIST and ABM).

Both alternative front ends keep the load board's core contracts --
batch row ``i`` bit-identical to a one-device capture on the same RNG
stream, seeded replay determinism, empty-lot shapes -- while degrading
the signal the way their hardware would: the BIST path detects
magnitude through a coarse ADC, the ABM path attenuates and low-passes
through the switch network.  Ridge calibration must still predict gain
through either path better than the train-mean baseline.
"""

import pickle

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.parasitics import SwitchParasitics
from repro.dsp.units import db20
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.scenario_paths import (
    AbmAccessPath,
    AbmPathConfig,
    BistPathConfig,
    BistSignaturePath,
)
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.parallel import spawn_generators
from repro.regression.linear import RidgeRegression
from repro.regression.pipeline import Pipeline
from repro.regression.scaling import StandardScaler
from repro.runtime.calibration import measure_signatures


def _board_cfg(**overrides):
    base = dict(
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
    base.update(overrides)
    return SignaturePathConfig(**base)


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


def _gens(n, seed=11):
    return spawn_generators(np.random.default_rng(seed), n)


def _gain_calibration_beats_mean(path, stimulus, seed=101):
    """Fit ridge gain calibration through ``path``; return (rmse, baseline)."""
    rng = np.random.default_rng(seed)
    train, val = _lot(24, seed=seed), _lot(8, seed=seed + 1)
    train_sigs = measure_signatures(
        path,
        stimulus,
        train,
        np.random.default_rng(int(rng.integers(0, 2**63))),
        n_bins=32,
    )
    val_sigs = measure_signatures(
        path,
        stimulus,
        val,
        np.random.default_rng(int(rng.integers(0, 2**63))),
        n_bins=32,
    )
    gain_train = np.array([d.specs().gain_db for d in train])
    gain_val = np.array([d.specs().gain_db for d in val])
    pipeline = Pipeline([StandardScaler(), RidgeRegression(alpha=1.0)])
    pipeline.fit(train_sigs, gain_train)
    rmse = float(np.sqrt(np.mean((pipeline.predict(val_sigs) - gain_val) ** 2)))
    baseline = float(np.sqrt(np.mean((gain_train.mean() - gain_val) ** 2)))
    return rmse, baseline


class TestBistPath:
    @pytest.fixture
    def stim(self):
        rng = np.random.default_rng(5)
        return PiecewiseLinearStimulus(
            rng.uniform(-0.7, 0.7, 6), BistPathConfig().capture_seconds
        )

    def test_batch_row_bit_identical_to_solo(self, stim):
        path = BistSignaturePath(BistPathConfig())
        devices = _lot(4)
        batch = path.signature_batch(devices, stim, rngs=_gens(4))
        gens = _gens(4)
        for i, device in enumerate(devices):
            solo = path.signature(device, stim, rng=gens[i])
            assert np.array_equal(batch[i], solo)

    def test_capture_batch_matches_capture(self, stim):
        path = BistSignaturePath(BistPathConfig())
        devices = _lot(3)
        records = path.capture_batch(devices, stim, rngs=_gens(3))
        gens = _gens(3)
        for i, device in enumerate(devices):
            solo = path.capture(device, stim, rng=gens[i])
            assert np.array_equal(records[i].samples, solo.samples)

    def test_empty_lot_keeps_bin_count(self, stim):
        path = BistSignaturePath(BistPathConfig())
        assert path.signature_batch([], stim, rngs=[], n_bins=32).shape == (0, 32)

    def test_seeded_replay_is_deterministic_and_noisy(self, stim):
        path = BistSignaturePath(BistPathConfig())
        devices = _lot(2)
        first = path.signature_batch(
            devices, stim, rng=np.random.default_rng(77)
        )
        second = path.signature_batch(
            devices, stim, rng=np.random.default_rng(77)
        )
        assert np.array_equal(first, second)
        other = path.signature_batch(
            devices, stim, rng=np.random.default_rng(78)
        )
        assert not np.array_equal(first, other)

    def test_distinct_devices_yield_distinct_signatures(self, stim):
        path = BistSignaturePath(BistPathConfig())
        sigs = path.signature_batch(_lot(3), stim, rngs=[None, None, None])
        assert not np.array_equal(sigs[0], sigs[1])
        assert not np.array_equal(sigs[1], sigs[2])

    def test_coarse_adc_actually_quantizes(self, stim):
        device = _lot(1)[0]
        coarse = BistSignaturePath(
            BistPathConfig(adc_noise_vrms=0.0)
        ).signature(device, stim)
        analog = BistSignaturePath(
            BistPathConfig(adc_noise_vrms=0.0, adc_bits=None)
        ).signature(device, stim)
        assert not np.array_equal(coarse, analog)

    def test_pickle_roundtrip_captures_identically(self, stim):
        path = BistSignaturePath(BistPathConfig())
        clone = pickle.loads(pickle.dumps(path))
        devices = _lot(2)
        assert np.array_equal(
            clone.signature_batch(devices, stim, rngs=_gens(2)),
            path.signature_batch(devices, stim, rngs=_gens(2)),
        )

    def test_config_aliases_for_scenario_agnostic_code(self):
        cfg = BistPathConfig()
        assert cfg.digitizer_rate == cfg.adc_rate
        assert cfg.digitizer_noise_vrms == cfg.adc_noise_vrms
        assert cfg.dut_coupling == "tuned"
        assert cfg.engine_rate == cfg.envelope_oversample * cfg.adc_rate
        assert cfg.total_test_time() == cfg.setup_time + cfg.capture_seconds

    def test_detector_bandwidth_validated(self):
        with pytest.raises(ValueError):
            BistPathConfig(detector_bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            BistPathConfig(detector_bandwidth_hz=1e9)

    def test_calibration_predicts_gain(self, stim):
        rmse, baseline = _gain_calibration_beats_mean(
            BistSignaturePath(BistPathConfig()), stim
        )
        assert rmse < baseline


class TestSwitchParasitics:
    def test_insertion_loss_matches_divider_formula(self):
        sw = SwitchParasitics(r_on_ohm=50.0, c_node_farads=15e-12)
        assert sw.insertion_loss_db(50.0) == pytest.approx(
            float(db20(1.0 + 50.0 / 100.0))
        )

    def test_zero_resistance_is_lossless(self):
        sw = SwitchParasitics(r_on_ohm=0.0, c_node_farads=15e-12)
        assert sw.insertion_loss_db(50.0) == pytest.approx(0.0)

    def test_pole_frequency(self):
        sw = SwitchParasitics(r_on_ohm=50.0, c_node_farads=200e-12)
        expected = 1.0 / (2.0 * np.pi * (50.0 + 50.0) * 200e-12)
        assert sw.pole_hz(50.0) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchParasitics(r_on_ohm=-1.0, c_node_farads=15e-12)
        with pytest.raises(ValueError):
            SwitchParasitics(r_on_ohm=50.0, c_node_farads=-1e-12)


class TestAbmPath:
    @pytest.fixture
    def stim(self):
        rng = np.random.default_rng(5)
        return PiecewiseLinearStimulus(rng.uniform(-0.7, 0.7, 6), 64e-6)

    def test_batch_row_bit_identical_to_solo(self, stim):
        path = AbmAccessPath(AbmPathConfig(base=_board_cfg()))
        devices = _lot(3)
        batch = path.signature_batch(devices, stim, rngs=_gens(3))
        gens = _gens(3)
        for i, device in enumerate(devices):
            solo = path.signature(device, stim, rng=gens[i])
            assert np.array_equal(batch[i], solo)

    def test_switch_losses_fold_into_board_config(self):
        access = AbmPathConfig(
            base=_board_cfg(input_loss_db=0.5, output_loss_db=1.0),
            n_input_switches=2,
            n_output_switches=3,
        )
        loss = access.switch.insertion_loss_db(access.port_impedance_ohm)
        cfg = access.board_config()
        assert cfg.input_loss_db == pytest.approx(0.5 + 2 * loss)
        assert cfg.output_loss_db == pytest.approx(1.0 + 3 * loss)

    def test_access_network_degrades_the_record(self, stim):
        device = _lot(1)[0]
        clean = SignatureTestBoard(_board_cfg()).signature(device, stim)
        degraded = AbmAccessPath(AbmPathConfig(base=_board_cfg())).signature(
            device, stim
        )
        assert float(np.linalg.norm(degraded)) < float(np.linalg.norm(clean))

    def test_pole_above_nyquist_reduces_to_pure_loss(self, stim):
        # a tiny node capacitance puts the bus pole far above the
        # engine band: the ABM path must equal the loss-only board
        access = AbmPathConfig(
            base=_board_cfg(),
            switch=SwitchParasitics(r_on_ohm=50.0, c_node_farads=1e-15),
        )
        device = _lot(1)[0]
        via_abm = AbmAccessPath(access).signature(
            device, stim, rng=np.random.default_rng(3)
        )
        loss_only = SignatureTestBoard(access.board_config()).signature(
            device, stim, rng=np.random.default_rng(3)
        )
        assert np.array_equal(via_abm, loss_only)

    def test_in_band_pole_filters_beyond_pure_loss(self, stim):
        # 2 nF node capacitance: pole ~800 kHz, inside this scaled-down
        # board's 2 MHz engine Nyquist
        device = _lot(1)[0]
        access = AbmPathConfig(
            base=_board_cfg(),
            switch=SwitchParasitics(r_on_ohm=50.0, c_node_farads=2e-9),
        )
        assert access.switch.pole_hz(50.0) < _board_cfg().engine_rate / 2.0
        via_abm = AbmAccessPath(access).signature(device, stim)
        loss_only = SignatureTestBoard(access.board_config()).signature(
            device, stim
        )
        assert not np.array_equal(via_abm, loss_only)

    def test_empty_lot_keeps_bin_count(self, stim):
        path = AbmAccessPath(AbmPathConfig(base=_board_cfg()))
        assert path.signature_batch([], stim, rngs=[], n_bins=32).shape == (0, 32)

    def test_switch_count_validation(self):
        with pytest.raises(ValueError):
            AbmPathConfig(base=_board_cfg(), n_input_switches=-1)

    def test_calibration_predicts_gain(self, stim):
        rmse, baseline = _gain_calibration_beats_mean(
            AbmAccessPath(AbmPathConfig(base=_board_cfg())), stim
        )
        assert rmse < baseline
