"""Tests for repro.dsp.spectral."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.sources import tone, white_noise
from repro.dsp.spectral import (
    Spectrum,
    amplitude_spectrum,
    fft_magnitude_signature,
    tone_amplitude,
    tone_power_dbm,
    window,
)
from repro.dsp.waveform import Waveform


class TestWindows:
    @pytest.mark.parametrize("kind", ["rect", "hann", "hamming", "blackman", "flattop"])
    def test_length(self, kind):
        assert len(window(kind, 64)) == 64

    def test_rect_is_ones(self):
        assert np.all(window("rect", 16) == 1.0)

    def test_hann_starts_at_zero(self):
        assert window("hann", 64)[0] == pytest.approx(0.0, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown window"):
            window("kaiser", 10)

    def test_length_one(self):
        assert np.all(window("hann", 1) == 1.0)


class TestAmplitudeSpectrum:
    def test_coherent_tone_amplitude_exact(self):
        # 1 kHz with an exact integer number of cycles in the record
        fs, n = 100e3, 1000
        t = np.arange(n) / fs
        wf = Waveform(3.0 * np.sin(2 * np.pi * 1e3 * t), fs)
        spec = amplitude_spectrum(wf)
        assert spec.amplitude_at(1e3) == pytest.approx(3.0, rel=1e-9)

    def test_dc_amplitude(self):
        wf = Waveform(np.full(100, 2.0), 1e3)
        spec = amplitude_spectrum(wf)
        assert spec.amplitudes[0] == pytest.approx(2.0)

    def test_flattop_recovers_incoherent_tone(self):
        # tone frequency deliberately between bins
        fs, n = 100e3, 1000
        t = np.arange(n) / fs
        wf = Waveform(np.sin(2 * np.pi * 1050.0 * t), fs)
        rect = amplitude_spectrum(wf, "rect").amplitude_at(1050.0)
        flat = amplitude_spectrum(wf, "flattop").amplitude_at(1050.0)
        assert flat == pytest.approx(1.0, rel=0.01)
        assert rect < flat  # scalloping loss with the rectangular window

    def test_resolution(self):
        wf = Waveform(np.zeros(200), 1e3)
        assert amplitude_spectrum(wf).resolution_hz == pytest.approx(5.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            amplitude_spectrum(Waveform([1.0], 1e3))

    def test_power_at(self):
        wf = tone(1e3, 10e-3, 100e3, power_dbm=7.0)
        spec = amplitude_spectrum(wf, "flattop")
        assert spec.power_dbm_at(1e3) == pytest.approx(7.0, abs=0.05)

    def test_noise_floor_estimate(self):
        rng = np.random.default_rng(0)
        wf = white_noise(10e-3, 100e3, rms=0.1, rng=rng)
        spec = amplitude_spectrum(wf)
        assert 0.0 < spec.noise_floor() < 0.1


class TestSpectrumContainer:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Spectrum(np.arange(3.0), np.arange(4.0), 1.0)

    def test_bin_of(self):
        spec = Spectrum(np.array([0.0, 10.0, 20.0]), np.zeros(3), 10.0)
        assert spec.bin_of(12.0) == 1

    def test_noise_floor_empty_after_exclusion(self):
        spec = Spectrum(np.arange(3.0), np.ones(3), 1.0)
        with pytest.raises(ValueError):
            spec.noise_floor(exclude_bins=3)


class TestSignature:
    def test_signature_length(self):
        wf = tone(1e3, 10e-3, 20e3)
        sig = fft_magnitude_signature(wf)
        assert len(sig) == len(wf) // 2 + 1

    def test_n_bins_truncation(self):
        wf = tone(1e3, 10e-3, 20e3)
        assert len(fft_magnitude_signature(wf, n_bins=16)) == 16

    @pytest.mark.parametrize("kind", ["rect", "hann", "hamming", "blackman", "flattop"])
    @pytest.mark.parametrize("n", [2, 3, 64, 401])
    def test_equals_amplitude_spectrum_bit_for_bit(self, kind, n):
        # the spectrum analyzer's amplitude spectrum and the signature
        # are one routine; both equal the one-record formula below
        wf = Waveform(np.random.default_rng(n).normal(size=n), 20e3)
        w = window(kind, n)
        want = np.abs(np.fft.rfft(wf.samples * w)) * 2.0 / (n * float(np.mean(w)))
        want[0] /= 2.0
        if n % 2 == 0:
            want[-1] /= 2.0
        spec = amplitude_spectrum(wf, kind)
        assert spec.amplitudes.tobytes() == want.tobytes()
        assert spec.freqs.tobytes() == np.fft.rfftfreq(n, d=wf.dt).tobytes()
        got = fft_magnitude_signature(wf, window_kind=kind)
        assert got.tobytes() == want.tobytes()
        got = fft_magnitude_signature(wf, n_bins=2, window_kind=kind)
        assert got.tobytes() == want[:2].tobytes()

    def test_invalid_bins(self):
        wf = tone(1e3, 1e-3, 20e3)
        with pytest.raises(ValueError):
            fft_magnitude_signature(wf, n_bins=0)

    def test_signature_is_phase_invariant_for_shifted_tone(self):
        # the core property the paper relies on (Section 2.1)
        fs, n = 20e3, 400
        t = np.arange(n) / fs
        a = Waveform(np.sin(2 * np.pi * 1e3 * t), fs)
        b = Waveform(np.sin(2 * np.pi * 1e3 * t + 1.234), fs)
        sa = fft_magnitude_signature(a)
        sb = fft_magnitude_signature(b)
        assert np.allclose(sa, sb, atol=0.02)

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_signature_scales_linearly(self, scale):
        fs, n = 20e3, 200
        rng = np.random.default_rng(1)
        samples = rng.normal(size=n)
        s1 = fft_magnitude_signature(Waveform(samples, fs))
        s2 = fft_magnitude_signature(Waveform(scale * samples, fs))
        assert np.allclose(s2, scale * s1, rtol=1e-9, atol=1e-12)


class TestToneHelpers:
    def test_tone_amplitude(self):
        wf = tone(2e3, 10e-3, 100e3, amplitude=0.7)
        assert tone_amplitude(wf, 2e3) == pytest.approx(0.7, rel=0.01)

    def test_tone_power(self):
        wf = tone(2e3, 10e-3, 100e3, power_dbm=-13.0)
        assert tone_power_dbm(wf, 2e3) == pytest.approx(-13.0, abs=0.05)
