"""Tests for repro.dsp.noise, and for the one-record jitter oracle
(``repro.verify.reference.sample_jitter``) the digitizer is checked
against."""

import numpy as np
import pytest

from repro.dsp.noise import (
    add_awgn,
    quantize,
    thermal_noise_power_watts,
    thermal_noise_vrms,
)
from repro.dsp.sources import tone
from repro.dsp.waveform import Waveform
from repro.verify.reference import sample_jitter


class TestThermalNoise:
    def test_ktb_at_1hz(self):
        # kT at 290 K is about 4.00e-21 W/Hz (-174 dBm/Hz)
        p = thermal_noise_power_watts(1.0)
        assert p == pytest.approx(4.0e-21, rel=0.01)

    def test_minus_174_dbm_per_hz(self):
        p = thermal_noise_power_watts(1.0)
        assert 10 * np.log10(p) + 30 == pytest.approx(-174.0, abs=0.05)

    def test_vrms_scaling(self):
        v1 = thermal_noise_vrms(1e6)
        v4 = thermal_noise_vrms(4e6)
        assert v4 == pytest.approx(2.0 * v1, rel=1e-9)

    def test_negative_bandwidth(self):
        with pytest.raises(ValueError):
            thermal_noise_power_watts(-1.0)


class TestAWGN:
    def test_noise_level(self):
        rng = np.random.default_rng(0)
        wf = Waveform(np.zeros(100_000), 1e6)
        noisy = add_awgn(wf, 0.01, rng)
        assert noisy.rms() == pytest.approx(0.01, rel=0.02)

    def test_zero_sigma_is_copy(self):
        wf = Waveform([1.0, 2.0], 1e3)
        out = add_awgn(wf, 0.0)
        assert np.array_equal(out.samples, wf.samples)

    def test_negative_sigma(self):
        with pytest.raises(ValueError):
            add_awgn(Waveform([1.0], 1e3), -0.1)


class TestQuantize:
    def test_step_size(self):
        wf = Waveform(np.linspace(-1, 1, 1001), 1e3)
        q = quantize(wf, bits=8, full_scale=1.0)
        levels = np.unique(q.samples)
        steps = np.diff(levels)
        assert np.allclose(steps, 2.0 / 256, atol=1e-12)

    def test_clipping(self):
        wf = Waveform([2.0, -2.0], 1e3)
        q = quantize(wf, bits=8, full_scale=1.0)
        assert q.samples.max() <= 1.0
        assert q.samples.min() >= -1.0

    def test_quantization_error_bounded(self):
        rng = np.random.default_rng(1)
        wf = Waveform(rng.uniform(-0.9, 0.9, 1000), 1e3)
        q = quantize(wf, bits=12, full_scale=1.0)
        lsb = 2.0 / 4096
        assert np.max(np.abs(q.samples - wf.samples)) <= lsb / 2 + 1e-12

    def test_high_resolution_nearly_transparent(self):
        wf = tone(1e3, 1e-3, 1e6, amplitude=0.5)
        q = quantize(wf, bits=16, full_scale=1.0)
        assert np.max(np.abs(q.samples - wf.samples)) < 2e-5

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize(Waveform([0.0], 1e3), bits=0, full_scale=1.0)


class TestJitter:
    def test_zero_jitter_is_copy(self):
        wf = tone(1e3, 1e-3, 1e6)
        out = sample_jitter(wf, 0.0)
        assert np.array_equal(out.samples, wf.samples)

    def test_jitter_adds_error_proportional_to_slope(self):
        rng = np.random.default_rng(0)
        # fast tone: jitter error ~ 2 pi f A t_j
        wf = tone(100e3, 1e-3, 10e6)
        out = sample_jitter(wf, 1e-9, rng)
        err = np.std(out.samples - wf.samples)
        expected = 2 * np.pi * 100e3 * 1e-9 / np.sqrt(2)
        assert err == pytest.approx(expected, rel=0.2)

    def test_dc_immune_to_jitter(self):
        rng = np.random.default_rng(0)
        wf = Waveform(np.full(1000, 0.7), 1e6)
        out = sample_jitter(wf, 1e-6, rng)
        assert np.allclose(out.samples, 0.7)

    def test_negative_jitter(self):
        with pytest.raises(ValueError):
            sample_jitter(Waveform([0.0], 1e3), -1e-9)
