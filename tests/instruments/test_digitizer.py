"""Tests for repro.instruments.digitizer."""

import numpy as np
import pytest

from repro.dsp.noise import add_awgn, quantize
from repro.dsp.sources import tone
from repro.dsp.waveform import Waveform
from repro.instruments.digitizer import BasebandDigitizer
from repro.verify.reference import sample_jitter


class TestDigitizer:
    def test_resamples_to_capture_rate(self):
        dig = BasebandDigitizer(sample_rate=1e6, bits=None, noise_vrms=0.0)
        wf = tone(10e3, 1e-3, 8e6)
        out = dig.capture(wf)
        assert out.sample_rate == 1e6
        assert len(out) == 1000

    def test_duration_truncation(self):
        dig = BasebandDigitizer(1e6, bits=None, noise_vrms=0.0)
        wf = tone(10e3, 2e-3, 8e6)
        out = dig.capture(wf, duration=0.5e-3)
        assert len(out) == 500

    def test_noise_only_with_rng(self):
        dig = BasebandDigitizer(1e6, bits=None, noise_vrms=1e-3)
        wf = Waveform(np.zeros(8000), 8e6)
        clean = dig.capture(wf)
        noisy = dig.capture(wf, rng=np.random.default_rng(0))
        assert clean.rms() == 0.0
        assert noisy.rms() == pytest.approx(1e-3, rel=0.1)

    def test_quantization(self):
        dig = BasebandDigitizer(1e6, bits=8, full_scale=1.0, noise_vrms=0.0)
        wf = tone(10e3, 1e-3, 8e6, amplitude=0.9)
        out = dig.capture(wf)
        lsb = 2.0 / 256
        assert np.allclose(out.samples / lsb, np.round(out.samples / lsb), atol=1e-9)

    def test_ideal_converter(self):
        dig = BasebandDigitizer(1e6, bits=None, noise_vrms=0.0)
        wf = Waveform(np.full(8000, 0.123456789), 8e6)
        out = dig.capture(wf)
        assert np.allclose(out.samples, 0.123456789)

    def test_jitter_applied(self):
        dig = BasebandDigitizer(1e6, bits=None, noise_vrms=0.0, jitter_rms=1e-7)
        wf = tone(100e3, 1e-3, 8e6)
        out = dig.capture(wf, rng=np.random.default_rng(0))
        ref = dig.capture(wf)
        assert not np.allclose(out.samples, ref.samples)

    def test_too_short_duration_rejected(self):
        dig = BasebandDigitizer(1e6, bits=None)
        wf = tone(10e3, 1e-3, 8e6)
        with pytest.raises(ValueError, match="shorter"):
            dig.capture(wf, duration=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            BasebandDigitizer(0.0)
        with pytest.raises(ValueError):
            BasebandDigitizer(1e6, bits=0)
        with pytest.raises(ValueError):
            BasebandDigitizer(1e6, noise_vrms=-1.0)


def _chain(dig, wf, duration, rng):
    """One record through the scalar waveform chain: jitter, resample,
    truncate, noise, quantize."""
    out = wf
    if dig.jitter_rms > 0.0 and rng is not None:
        out = sample_jitter(out, dig.jitter_rms, rng)
    if out.sample_rate != dig.sample_rate:
        out = out.resample(dig.sample_rate)
    if duration is not None:
        n = int(round(duration * dig.sample_rate))
        if n < len(out):
            out = Waveform(out.samples[:n], dig.sample_rate, out.t0)
    if dig.noise_vrms > 0.0 and rng is not None:
        out = add_awgn(out, dig.noise_vrms, rng)
    if dig.bits is not None:
        out = quantize(out, dig.bits, dig.full_scale)
    return out


def _per_row(dig, mat, rate, duration, rngs, t0=0.0):
    """``capture_matrix``'s oracle: the scalar chain on each row alone."""
    return np.array(
        [
            _chain(dig, Waveform(row, rate, t0), duration, rng).samples
            for row, rng in zip(mat, rngs)
        ]
    )


class TestCaptureMatrix:
    def _rows(self, n_rows=5, n=400, seed=1):
        return np.random.default_rng(seed).normal(size=(n_rows, n))

    @pytest.mark.parametrize("bits", [None, 12])
    def test_rows_equal_per_row_capture(self, bits):
        # noise is drawn with standard_normal into one buffer and scaled
        # as 0.0 + sigma * z, Generator.normal's own arithmetic; rows
        # without a generator are left untouched, -0.0 samples included
        dig = BasebandDigitizer(20e6, bits=bits, noise_vrms=1e-3)
        mat = self._rows()
        mat[1, :7] = -0.0
        seeds = [3, None, 4, None, 5]

        def gens():
            return [None if s is None else np.random.default_rng(s) for s in seeds]

        got = dig.capture_matrix(mat, 80e6, 5e-6, gens())
        want = _per_row(dig, mat, 80e6, 5e-6, gens())
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[1, :2]).all()
        # each row also equals its own one-row capture
        for i, rng in enumerate(gens()):
            one = dig.capture(Waveform(mat[i], 80e6), 5e-6, rng)
            assert one.samples.tobytes() == got[i].tobytes()
            assert (one.sample_rate, one.t0) == (20e6, 0.0)

    def test_noise_free_rows_are_copies(self):
        dig = BasebandDigitizer(20e6, bits=None, noise_vrms=1e-3)
        mat = self._rows(n_rows=3, n=100)
        got = dig.capture_matrix(mat, 20e6, None, [None] * 3)
        assert np.array_equal(got, mat)
        assert not np.shares_memory(got, mat)

    @pytest.mark.parametrize(
        "first, second",
        [
            ((400, 80e6, 0.0), (800, 80e6, 0.0)),  # another n
            ((400, 80e6, 0.0), (400, 60e6, 0.0)),  # another rate: interp
            ((400, 80e6, 0.0), (400, 80e6, 3.3e-8)),  # another t0
            ((400, 60e6, 0.0), (400, 80e6, 0.0)),  # interp, then decimation
        ],
    )
    def test_reuse_at_another_grid(self, first, second):
        # the decimation-grid decision is kept per (n, rate, t0): a board
        # digitizer reused at another shape must not read a stale one
        reused = BasebandDigitizer(20e6, bits=None, noise_vrms=1e-3)
        for n, rate, t0 in (first, second):
            mat = self._rows(n=n)
            got = reused.capture_matrix(mat, rate, None, None, t0=t0)
            fresh = BasebandDigitizer(20e6, bits=None, noise_vrms=1e-3)
            want = fresh.capture_matrix(mat, rate, None, None, t0=t0)
            assert np.array_equal(got, want)
            assert np.array_equal(got, _per_row(fresh, mat, rate, None, [None] * 5, t0))

    def test_jittered_rows_keep_their_interp_path(self):
        dig = BasebandDigitizer(20e6, bits=None, noise_vrms=1e-3, jitter_rms=2e-10)
        mat = self._rows()
        seeds = [3, None, 4, 5, None]

        def gens():
            return [None if s is None else np.random.default_rng(s) for s in seeds]

        for t0 in (0.0, 1e-7):  # a second grid on the same digitizer
            got = dig.capture_matrix(mat, 80e6, 5e-6, gens(), t0=t0)
            assert np.array_equal(got, _per_row(dig, mat, 80e6, 5e-6, gens(), t0))
        plain = BasebandDigitizer(20e6, bits=None, noise_vrms=0.0)
        still = plain.capture_matrix(mat, 80e6, 5e-6, gens(), t0=1e-7)
        jittered = BasebandDigitizer(20e6, bits=None, noise_vrms=0.0, jitter_rms=2e-10)
        moved = jittered.capture_matrix(mat, 80e6, 5e-6, gens(), t0=1e-7)
        # rows with a generator are interpolated at jittered instants
        assert not np.array_equal(moved[0], still[0])
        assert np.array_equal(moved[1], still[1])
