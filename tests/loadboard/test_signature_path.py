"""Tests for repro.loadboard.signature_path."""

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.dsp.mixer import Mixer, MixerHarmonics
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.loadboard.signature_path import (
    SignaturePathConfig,
    SignatureTestBoard,
    envelope_coefficients,
    hardware_config,
    overdrive_ratios,
    simulation_config,
)


@pytest.fixture
def stim():
    rng = np.random.default_rng(9)
    return PiecewiseLinearStimulus(rng.uniform(-0.25, 0.25, 16), 5e-6, 0.4)


def fast_cfg(**overrides):
    base = dict(
        digitizer_noise_vrms=0.0,
        digitizer_bits=None,
        include_device_noise=False,
        mixer1=Mixer(0.5, MixerHarmonics.ideal()),
        mixer2=Mixer(0.5, MixerHarmonics.ideal()),
    )
    base.update(overrides)
    return SignaturePathConfig(**base)


class TestConfigs:
    def test_simulation_config_matches_paper(self):
        cfg = simulation_config()
        assert cfg.carrier_freq == 900e6
        assert cfg.carrier_power_dbm == 10.0
        assert cfg.lpf_cutoff_hz == 10e6
        assert cfg.digitizer_rate == 20e6
        assert cfg.digitizer_noise_vrms == pytest.approx(1e-3)
        assert cfg.capture_seconds == pytest.approx(5e-6)

    def test_hardware_config_matches_paper(self):
        cfg = hardware_config()
        assert cfg.lo_offset_hz == pytest.approx(100e3)
        assert cfg.digitizer_rate == pytest.approx(1e6)
        assert cfg.capture_seconds == pytest.approx(5e-3)
        assert cfg.random_path_phase

    def test_carrier_amplitude(self):
        # 10 dBm into 50 ohm is 1 V peak
        assert simulation_config().carrier_amplitude == pytest.approx(1.0, rel=1e-3)

    def test_total_test_time(self):
        cfg = simulation_config()
        assert cfg.total_test_time() == pytest.approx(cfg.setup_time + 5e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="coupling"):
            SignaturePathConfig(dut_coupling="magic")
        with pytest.raises(ValueError, match="offset"):
            SignaturePathConfig(lo_offset_hz=1e9)


class TestEquation4:
    """Same-LO configuration: signature scales as cos(phi)."""

    def test_cosine_scaling(self, stim, behavioral_amp):
        ref = None
        for phi in (0.0, np.pi / 3, np.pi / 4):
            board = SignatureTestBoard(fast_cfg(path_phase_rad=phi))
            rms = board.capture(behavioral_amp, stim).rms()
            if ref is None:
                ref = rms
            else:
                assert rms == pytest.approx(ref * abs(np.cos(phi)), rel=1e-6)

    def test_complete_cancellation_at_quarter_wave(self, stim, behavioral_amp):
        board = SignatureTestBoard(fast_cfg(path_phase_rad=np.pi / 2))
        assert board.capture(behavioral_amp, stim).rms() < 1e-12


class TestEquation5:
    """Offset-LO configuration: FFT magnitude independent of phi."""

    def test_fft_magnitude_invariant(self, behavioral_amp):
        rng = np.random.default_rng(10)
        stim = PiecewiseLinearStimulus(rng.uniform(-0.25, 0.25, 16), 2e-3, 0.4)
        sigs = []
        for phi in (0.0, 1.0, 2.5):
            cfg = fast_cfg(
                path_phase_rad=phi,
                lo_offset_hz=100e3,
                lpf_cutoff_hz=450e3,
                digitizer_rate=1e6,
                capture_seconds=2e-3,
            )
            sigs.append(SignatureTestBoard(cfg).signature(behavioral_amp, stim))
        for s in sigs[1:]:
            assert np.linalg.norm(s - sigs[0]) / np.linalg.norm(sigs[0]) < 0.01

    def test_time_domain_changes_with_phase(self, behavioral_amp):
        rng = np.random.default_rng(11)
        stim = PiecewiseLinearStimulus(rng.uniform(-0.25, 0.25, 16), 2e-3, 0.4)
        recs = []
        for phi in (0.0, 1.5):
            cfg = fast_cfg(
                path_phase_rad=phi,
                lo_offset_hz=100e3,
                lpf_cutoff_hz=450e3,
                digitizer_rate=1e6,
                capture_seconds=2e-3,
            )
            recs.append(SignatureTestBoard(cfg).time_signature(behavioral_amp, stim))
        rel = np.linalg.norm(recs[1] - recs[0]) / np.linalg.norm(recs[0])
        assert rel > 0.5  # raw time-domain signature is badly phase-sensitive


class TestCaptureMechanics:
    def test_output_rate_and_length(self, stim, behavioral_amp):
        board = SignatureTestBoard(fast_cfg())
        rec = board.capture(behavioral_amp, stim)
        assert rec.sample_rate == 20e6
        assert len(rec) == 100

    def test_waveform_stimulus_accepted(self, behavioral_amp):
        board = SignatureTestBoard(fast_cfg())
        wf = Waveform(0.1 * np.ones(500), 100e6)  # different rate: resampled
        rec = board.capture(behavioral_amp, wf)
        assert len(rec) == 100

    def test_noise_requires_rng(self, stim, behavioral_amp):
        cfg = fast_cfg(digitizer_noise_vrms=1e-3)
        board = SignatureTestBoard(cfg)
        a = board.capture(behavioral_amp, stim)
        b = board.capture(behavioral_amp, stim, rng=np.random.default_rng(0))
        assert np.array_equal(a.samples, board.capture(behavioral_amp, stim).samples)
        assert not np.array_equal(a.samples, b.samples)

    def test_random_phase_requires_rng(self, stim, behavioral_amp):
        board = SignatureTestBoard(fast_cfg(random_path_phase=True))
        with pytest.raises(ValueError, match="rng"):
            board.capture(behavioral_amp, stim)

    def test_gain_scales_signature(self, stim):
        board = SignatureTestBoard(fast_cfg())
        weak_stim = PiecewiseLinearStimulus(stim.levels * 0.2, 5e-6, 0.4)
        lo = BehavioralAmplifier(900e6, 10.0, 2.0, 30.0)
        hi = BehavioralAmplifier(900e6, 16.0, 2.0, 30.0)
        s_lo = board.signature(lo, weak_stim)
        s_hi = board.signature(hi, weak_stim)
        assert np.linalg.norm(s_hi) / np.linalg.norm(s_lo) == pytest.approx(
            2.0, rel=0.02
        )

    def test_overdrive_ratio_grows_with_drive(self, behavioral_amp):
        board = SignatureTestBoard(fast_cfg())
        coeffs = envelope_coefficients([behavioral_amp])
        weak = PiecewiseLinearStimulus(np.full(16, 0.02), 5e-6, 0.4)
        strong = PiecewiseLinearStimulus(np.full(16, 0.4), 5e-6, 0.4)
        low, high = (
            overdrive_ratios(coeffs, board.peak_drive(s))[0] for s in (weak, strong)
        )
        assert 0.0 < low < high

    def test_device_noise_injected(self, stim):
        # a noisy DUT raises the signature floor relative to a quiet one
        cfg = fast_cfg(include_device_noise=True)
        board = SignatureTestBoard(cfg)
        quiet = BehavioralAmplifier(900e6, 16.0, 0.5, 30.0)
        loud = BehavioralAmplifier(900e6, 16.0, 20.0, 30.0)
        zero_stim = PiecewiseLinearStimulus(np.zeros(16), 5e-6, 0.4)
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        n_quiet = board.capture(quiet, zero_stim, rng1).rms()
        n_loud = board.capture(loud, zero_stim, rng2).rms()
        assert n_loud > 2.0 * n_quiet

    def test_signature_n_bins(self, stim, behavioral_amp):
        board = SignatureTestBoard(fast_cfg())
        sig = board.signature(behavioral_amp, stim, n_bins=20)
        assert len(sig) == 20

    def test_fixture_losses_scale_signature(self, stim):
        # with a linear DUT, input and output losses compose in dB
        device = BehavioralAmplifier(900e6, 16.0, 2.0, 60.0)
        clean = SignatureTestBoard(fast_cfg())
        lossy = SignatureTestBoard(fast_cfg(input_loss_db=1.0, output_loss_db=2.0))
        s_clean = clean.signature(device, stim)
        s_lossy = lossy.signature(device, stim)
        expected = 10 ** (-3.0 / 20.0)
        ratio = np.linalg.norm(s_lossy) / np.linalg.norm(s_clean)
        assert ratio == pytest.approx(expected, rel=1e-6)

    def test_input_loss_reduces_compression(self):
        # the input loss backs the DUT off its compression: unlike the
        # output loss it changes the signature *shape*, not just scale
        device = BehavioralAmplifier(900e6, 16.0, 2.0, 3.0)
        rng = np.random.default_rng(13)
        stim = PiecewiseLinearStimulus(rng.uniform(-0.35, 0.35, 16), 5e-6, 0.4)
        clean = SignatureTestBoard(fast_cfg())
        in_loss = SignatureTestBoard(fast_cfg(input_loss_db=6.0))
        out_loss = SignatureTestBoard(fast_cfg(output_loss_db=6.0))
        s_clean = clean.signature(device, stim)
        s_in = in_loss.signature(device, stim)
        s_out = out_loss.signature(device, stim)
        k = 10 ** (-6.0 / 20.0)
        # output loss is a pure scale
        assert np.allclose(s_out, k * s_clean, rtol=1e-9, atol=1e-12)
        # input loss is not (the DUT sees a different drive level)
        assert not np.allclose(s_in, k * s_clean, rtol=1e-3)

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError, match="losses"):
            fast_cfg(input_loss_db=-1.0)
