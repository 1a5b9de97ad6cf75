"""Low-pass filter design, implemented from first principles.

The load board of the paper (Figures 2/3) contains a low-pass filter after
the downconversion mixer (10 MHz cutoff in the simulation experiment).  We
implement the design math from scratch:

* :func:`butterworth_poles` places the analog prototype poles on the unit
  circle in the left half plane.
* :func:`butterworth_sos` maps them to digital biquad sections through the
  bilinear transform with frequency pre-warping.
* :class:`ButterworthLowpass` applies the cascade (time-domain direct-form
  II transposed, vectorized per-section).
* :class:`FIRLowpass` offers a linear-phase windowed-sinc alternative.

Only ``numpy`` is used; the per-section recursion is short (cascade of
2nd-order stages) so pure-Python section looping is fast enough for the
record lengths in this framework.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.dsp.waveform import Waveform

__all__ = [
    "butterworth_poles",
    "butterworth_sos",
    "sosfilt",
    "ButterworthLowpass",
    "FIRLowpass",
]


def butterworth_poles(order: int) -> np.ndarray:
    """Left-half-plane poles of the analog Butterworth prototype (wc = 1).

    The poles lie on the unit circle at angles
    ``pi * (2k + n + 1) / (2n)`` for ``k = 0..n-1``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    k = np.arange(order)
    theta = np.pi * (2.0 * k + order + 1.0) / (2.0 * order)
    poles = np.exp(1j * theta)
    # guard against numerically positive real parts
    if np.any(poles.real > 1e-12):
        raise AssertionError("Butterworth prototype produced RHP pole")
    return poles


def _bilinear_biquad(
    analog_b: Tuple[float, float, float],
    analog_a: Tuple[float, float, float],
    fs: float,
) -> np.ndarray:
    """Bilinear transform of one analog biquad ``(b, a)`` to digital SOS row.

    Uses ``s = 2 fs (z - 1) / (z + 1)``.  Returns the 6-element row
    ``[b0, b1, b2, a0=1, a1, a2]``.
    """
    b2, b1, b0 = analog_b[2], analog_b[1], analog_b[0]
    a2, a1, a0 = analog_a[2], analog_a[1], analog_a[0]
    K = 2.0 * fs
    # substitute and collect powers of z^-1
    B0 = b0 + b1 * K + b2 * K * K
    B1 = 2.0 * b0 - 2.0 * b2 * K * K
    B2 = b0 - b1 * K + b2 * K * K
    A0 = a0 + a1 * K + a2 * K * K
    A1 = 2.0 * a0 - 2.0 * a2 * K * K
    A2 = a0 - a1 * K + a2 * K * K
    return np.array([B0 / A0, B1 / A0, B2 / A0, 1.0, A1 / A0, A2 / A0])


def butterworth_sos(order: int, cutoff_hz: float, sample_rate: float) -> np.ndarray:
    """Digital Butterworth low-pass as second-order sections.

    Parameters
    ----------
    order:
        Filter order (>= 1).  Odd orders produce one first-order section
        (represented as a biquad with trailing zeros).
    cutoff_hz:
        -3 dB frequency in Hz.
    sample_rate:
        Sampling rate in Hz; ``cutoff_hz`` must be below Nyquist.

    Returns
    -------
    ndarray of shape ``(n_sections, 6)`` with rows ``[b0 b1 b2 1 a1 a2]``.
    """
    if not (0.0 < cutoff_hz < sample_rate / 2.0):
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must lie in (0, Nyquist={sample_rate / 2.0} Hz)"
        )
    # pre-warp the analog cutoff so the digital -3 dB point lands exactly
    wc = 2.0 * sample_rate * math.tan(math.pi * cutoff_hz / sample_rate)
    poles = butterworth_poles(order) * wc

    sections: List[np.ndarray] = []
    # pair complex-conjugate poles; Butterworth poles come in conjugate
    # pairs except for the single real pole of odd orders.
    remaining = [p for p in poles if p.imag > 1e-9]
    real_poles = [p for p in poles if abs(p.imag) <= 1e-9]
    for p in remaining:
        # (s - p)(s - p*) = s^2 - 2 Re(p) s + |p|^2
        a = (abs(p) ** 2, -2.0 * p.real, 1.0)
        b = (abs(p) ** 2, 0.0, 0.0)  # unity DC gain per section
        sections.append(_bilinear_biquad(b, a, sample_rate))
    for p in real_poles:
        a = (-p.real, 1.0, 0.0)
        b = (-p.real, 0.0, 0.0)
        sections.append(_bilinear_biquad(b, a, sample_rate))
    return np.vstack(sections)


def sosfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply a second-order-section cascade (direct form II transposed).

    A thin, dependency-free implementation; each section is a short scalar
    recursion over the record.
    """
    sos = np.asarray(sos, dtype=float)
    if sos.ndim != 2 or sos.shape[1] != 6:
        raise ValueError("sos must have shape (n_sections, 6)")
    y = np.asarray(x, dtype=float).copy()
    for b0, b1, b2, a0, a1, a2 in sos:
        if abs(a0 - 1.0) > 1e-12:
            b0, b1, b2, a1, a2 = (c / a0 for c in (b0, b1, b2, a1, a2))
        z1 = 0.0
        z2 = 0.0
        out = np.empty_like(y)
        for i, xi in enumerate(y):
            yi = b0 * xi + z1
            z1 = b1 * xi - a1 * yi + z2
            z2 = b2 * xi - a2 * yi
            out[i] = yi
        y = out
    return y


def _sos_freq_response(sos: np.ndarray, freqs: np.ndarray, fs: float) -> np.ndarray:
    """Complex frequency response of an SOS cascade at ``freqs`` Hz."""
    z = np.exp(-2j * np.pi * np.asarray(freqs, dtype=float) / fs)
    h = np.ones_like(z, dtype=complex)
    for b0, b1, b2, _a0, a1, a2 in np.asarray(sos, dtype=float):
        num = b0 + b1 * z + b2 * z**2
        den = 1.0 + a1 * z + a2 * z**2
        h *= num / den
    return h


class ButterworthLowpass:
    """Digital Butterworth low-pass filter (the load-board LPF model).

    Two application modes are provided:

    * :meth:`apply` -- causal time-domain filtering through the biquad
      cascade (what real load-board hardware does).
    * :meth:`apply_fft` -- zero-phase frequency-domain filtering using the
      cascade's magnitude response.  Signature extraction only uses FFT
      magnitudes, so this mode is an exact stand-in where speed matters.
    """

    def __init__(self, order: int, cutoff_hz: float, sample_rate: float):
        self.order = int(order)
        self.cutoff_hz = float(cutoff_hz)
        self.sample_rate = float(sample_rate)
        self.sos = butterworth_sos(order, cutoff_hz, sample_rate)
        #: (record length, read-only rfft-bin magnitude response) of the
        #: last length filtered
        self._magnitude: Optional[Tuple[int, np.ndarray]] = None

    def frequency_response(self, freqs: np.ndarray) -> np.ndarray:
        """Complex response at the given frequencies (Hz)."""
        return _sos_freq_response(self.sos, freqs, self.sample_rate)

    def apply(self, wf: Waveform) -> Waveform:
        """Causal time-domain filtering."""
        if wf.sample_rate != self.sample_rate:
            raise ValueError(
                f"waveform rate {wf.sample_rate} != filter rate {self.sample_rate}"
            )
        return Waveform(sosfilt(self.sos, wf.samples), wf.sample_rate, wf.t0)

    def apply_fft(self, wf: Waveform) -> Waveform:
        """Zero-phase filtering by magnitude response in the FFT domain."""
        if wf.sample_rate != self.sample_rate:
            raise ValueError(
                f"waveform rate {wf.sample_rate} != filter rate {self.sample_rate}"
            )
        return Waveform(self.apply_fft_matrix(wf.samples), wf.sample_rate, wf.t0)

    def apply_fft_matrix(self, samples: np.ndarray) -> np.ndarray:
        """Zero-phase filtering of a ``(..., n)`` batch along the last axis.

        One ``rfft`` / ``irfft`` pair over the whole batch; row ``i`` of
        the result is bit-identical to ``apply_fft`` on row ``i`` alone
        (samples are assumed to be at the filter's ``sample_rate``).
        """
        samples = np.asarray(samples, dtype=float)
        n = samples.shape[-1]
        spec = np.fft.rfft(samples, axis=-1)
        return np.fft.irfft(spec * self.magnitude_response(n), n=n, axis=-1)

    def magnitude_response(self, n: int) -> np.ndarray:
        """``|H|`` at the ``rfft`` bins of an ``n``-sample record (read-only).

        Computed once per record length and kept: every capture of one
        board filters records of one length.
        """
        memo = self._magnitude
        if memo is not None and memo[0] == n:
            return memo[1]
        freqs = np.fft.rfftfreq(n, d=1.0 / self.sample_rate)
        mag = np.abs(self.frequency_response(freqs))
        mag.flags.writeable = False
        self._magnitude = (n, mag)
        return mag

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ButterworthLowpass(order={self.order}, "
            f"cutoff={self.cutoff_hz:.4g} Hz, fs={self.sample_rate:.4g} Hz)"
        )


class FIRLowpass:
    """Linear-phase windowed-sinc FIR low-pass filter.

    Provided as an alternative load-board filter implementation; its
    linear phase makes time-domain signatures easier to align, at the cost
    of group delay.
    """

    def __init__(self, n_taps: int, cutoff_hz: float, sample_rate: float):
        if n_taps < 3 or n_taps % 2 == 0:
            raise ValueError("n_taps must be an odd integer >= 3")
        if not (0.0 < cutoff_hz < sample_rate / 2.0):
            raise ValueError("cutoff must lie in (0, Nyquist)")
        self.n_taps = int(n_taps)
        self.cutoff_hz = float(cutoff_hz)
        self.sample_rate = float(sample_rate)
        m = np.arange(n_taps) - (n_taps - 1) / 2.0
        fc = cutoff_hz / sample_rate
        taps = 2.0 * fc * np.sinc(2.0 * fc * m)
        # Hamming window to control sidelobes
        taps *= 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n_taps) / (n_taps - 1))
        self.taps = taps / np.sum(taps)  # unity DC gain

    @property
    def group_delay_samples(self) -> float:
        return (self.n_taps - 1) / 2.0

    def apply(self, wf: Waveform) -> Waveform:
        if wf.sample_rate != self.sample_rate:
            raise ValueError(
                f"waveform rate {wf.sample_rate} != filter rate {self.sample_rate}"
            )
        out = np.convolve(wf.samples, self.taps, mode="same")
        return Waveform(out, wf.sample_rate, wf.t0)

    def frequency_response(self, freqs: np.ndarray) -> np.ndarray:
        z = np.exp(-2j * np.pi * np.asarray(freqs, dtype=float) / self.sample_rate)
        powers = np.vander(z, N=self.n_taps, increasing=True)
        return powers @ self.taps
