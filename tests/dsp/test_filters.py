"""Tests for repro.dsp.filters (from-scratch Butterworth and FIR design)."""

import numpy as np
import pytest

from repro.dsp.filters import (
    ButterworthLowpass,
    FIRLowpass,
    butterworth_poles,
    butterworth_sos,
    sosfilt,
)
from repro.dsp.sources import tone
from repro.dsp.waveform import Waveform


class TestButterworthPoles:
    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
    def test_all_poles_in_left_half_plane(self, order):
        poles = butterworth_poles(order)
        assert len(poles) == order
        assert np.all(poles.real < 1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
    def test_poles_on_unit_circle(self, order):
        assert np.allclose(np.abs(butterworth_poles(order)), 1.0)

    def test_conjugate_symmetry(self):
        poles = butterworth_poles(4)
        for p in poles:
            assert np.any(np.isclose(poles, np.conj(p)))

    def test_odd_order_has_real_pole(self):
        poles = butterworth_poles(5)
        assert np.any(np.abs(poles.imag) < 1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            butterworth_poles(0)


class TestButterworthSOS:
    def test_dc_gain_unity(self):
        lpf = ButterworthLowpass(5, 1e3, 100e3)
        h0 = lpf.frequency_response(np.array([0.0]))[0]
        assert abs(h0) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 7])
    def test_cutoff_is_minus_3db(self, order):
        lpf = ButterworthLowpass(order, 10e3, 1e6)
        h = lpf.frequency_response(np.array([10e3]))[0]
        assert 20 * np.log10(abs(h)) == pytest.approx(-3.0103, abs=0.02)

    def test_rolloff_rate(self):
        # an n-th order Butterworth falls ~6n dB per octave far above cutoff
        order = 5
        lpf = ButterworthLowpass(order, 1e3, 1e6)
        h1 = abs(lpf.frequency_response(np.array([8e3]))[0])
        h2 = abs(lpf.frequency_response(np.array([16e3]))[0])
        drop_db = 20 * np.log10(h1 / h2)
        assert drop_db == pytest.approx(6.02 * order, abs=1.0)

    def test_monotone_magnitude(self):
        lpf = ButterworthLowpass(4, 5e3, 100e3)
        freqs = np.linspace(0, 45e3, 200)
        mags = np.abs(lpf.frequency_response(freqs))
        assert np.all(np.diff(mags) <= 1e-9)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError, match="Nyquist"):
            butterworth_sos(3, 60e3, 100e3)


class TestSosfilt:
    def test_matches_frequency_response_on_tone(self):
        fs = 1e6
        lpf = ButterworthLowpass(4, 50e3, fs)
        for f in (10e3, 50e3, 150e3):
            x = tone(f, 2e-3, fs)
            y = Waveform(sosfilt(lpf.sos, x.samples), fs)
            # compare steady-state RMS against |H(f)|
            tail = y.samples[len(y) // 2 :]
            expected = abs(lpf.frequency_response(np.array([f]))[0])
            measured = np.sqrt(2.0) * np.sqrt(np.mean(tail**2))
            assert measured == pytest.approx(expected, rel=0.02)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            sosfilt(np.zeros((2, 5)), np.zeros(10))

    def test_apply_requires_matching_rate(self):
        lpf = ButterworthLowpass(3, 1e3, 1e5)
        with pytest.raises(ValueError, match="rate"):
            lpf.apply(Waveform([1.0, 2.0], 2e5))


class TestApplyFFT:
    def test_passband_tone_preserved(self):
        fs = 1e6
        lpf = ButterworthLowpass(5, 100e3, fs)
        x = tone(10e3, 2e-3, fs)
        y = lpf.apply_fft(x)
        assert y.rms() == pytest.approx(x.rms(), rel=0.01)

    def test_stopband_tone_crushed(self):
        fs = 1e6
        lpf = ButterworthLowpass(5, 10e3, fs)
        x = tone(200e3, 2e-3, fs)
        y = lpf.apply_fft(x)
        assert y.rms() < 1e-4 * x.rms()

    def test_zero_phase_no_delay(self):
        # a slow ramp passes without the group delay causal filtering adds
        fs = 1e6
        lpf = ButterworthLowpass(5, 100e3, fs)
        x = Waveform(np.linspace(0, 1, 1000), fs)
        y = lpf.apply_fft(x)
        mid = slice(300, 700)
        assert np.allclose(y.samples[mid], x.samples[mid], atol=0.01)

    def test_magnitude_response_kept_per_length(self):
        fs = 1e6
        lpf = ButterworthLowpass(5, 100e3, fs)
        first = lpf.magnitude_response(400)
        assert lpf.magnitude_response(400) is first
        assert not first.flags.writeable
        freqs = np.fft.rfftfreq(400, d=1.0 / fs)
        assert np.array_equal(first, np.abs(lpf.frequency_response(freqs)))
        # another length recomputes, and filtering is unchanged by the memo
        other = lpf.magnitude_response(402)
        freqs = np.fft.rfftfreq(402, d=1.0 / fs)
        assert np.array_equal(other, np.abs(lpf.frequency_response(freqs)))
        x = np.random.default_rng(0).normal(size=(3, 400))
        fresh = ButterworthLowpass(5, 100e3, fs)
        assert np.array_equal(lpf.apply_fft_matrix(x), fresh.apply_fft_matrix(x))


class TestFIRLowpass:
    def test_dc_gain_unity(self):
        fir = FIRLowpass(31, 1e3, 100e3)
        assert np.sum(fir.taps) == pytest.approx(1.0)

    def test_requires_odd_taps(self):
        with pytest.raises(ValueError, match="odd"):
            FIRLowpass(10, 1e3, 100e3)

    def test_stopband_attenuation(self):
        fs = 1e6
        fir = FIRLowpass(101, 20e3, fs)
        h = abs(fir.frequency_response(np.array([200e3]))[0])
        assert 20 * np.log10(h) < -40

    def test_group_delay(self):
        fir = FIRLowpass(21, 1e3, 1e5)
        assert fir.group_delay_samples == 10.0

    def test_apply_passband(self):
        fs = 1e6
        fir = FIRLowpass(101, 100e3, fs)
        x = tone(5e3, 4e-3, fs)
        y = fir.apply(x)
        mid = slice(200, -200)
        assert np.sqrt(np.mean(y.samples[mid] ** 2)) == pytest.approx(
            np.sqrt(np.mean(x.samples[mid] ** 2)), rel=0.02
        )
