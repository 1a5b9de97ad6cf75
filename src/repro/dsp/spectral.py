"""Spectral analysis: windows, amplitude spectra, FFT-magnitude signatures.

Section 2.1 of the paper removes the phase sensitivity of the signature
path by *"taking the FFT of the signature, and considering the magnitude of
the resulting FFT spectrum as the new signature"*.
:func:`fft_magnitude_signature` implements exactly that transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dsp.units import db20, watts_to_dbm
from repro.dsp.waveform import Waveform

__all__ = [
    "window",
    "Spectrum",
    "amplitude_spectrum",
    "fft_magnitude_signature",
    "fft_magnitude_signature_matrix",
    "tone_amplitude",
    "tone_power_dbm",
]

_WINDOWS = ("rect", "hann", "hamming", "blackman", "flattop")

# Flat-top coefficients (symmetric, amplitude-accurate for tone measurement)
_FLATTOP = (0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368)


def window(kind: str, n: int) -> np.ndarray:
    """Return an ``n``-point window of the given kind.

    Supported kinds: ``rect``, ``hann``, ``hamming``, ``blackman``,
    ``flattop``.  Windows are periodic-symmetric and not normalized; use
    the coherent gain (mean of the window) to correct tone amplitudes.
    """
    if kind not in _WINDOWS:
        raise ValueError(f"unknown window {kind!r}; choose from {_WINDOWS}")
    if n < 1:
        raise ValueError("window length must be >= 1")
    if kind == "rect" or n == 1:
        return np.ones(n)
    k = np.arange(n)
    x = 2.0 * np.pi * k / n
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(x)
    if kind == "hamming":
        return 0.54 - 0.46 * np.cos(x)
    if kind == "blackman":
        return 0.42 - 0.5 * np.cos(x) + 0.08 * np.cos(2 * x)
    # flattop
    a0, a1, a2, a3, a4 = _FLATTOP
    return (
        a0
        - a1 * np.cos(x)
        + a2 * np.cos(2 * x)
        - a3 * np.cos(3 * x)
        + a4 * np.cos(4 * x)
    )


@dataclass(frozen=True)
class Spectrum:
    """A single-sided amplitude spectrum.

    ``amplitudes[k]`` is the peak amplitude (volts) attributed to
    ``freqs[k]``; a pure full-scale sine shows up as its peak amplitude in
    the bin nearest its frequency (given a coherent record or an
    amplitude-flat window).
    """

    freqs: np.ndarray
    amplitudes: np.ndarray
    resolution_hz: float

    def __post_init__(self):
        if len(self.freqs) != len(self.amplitudes):
            raise ValueError("freqs and amplitudes must have equal length")

    def __len__(self) -> int:
        return len(self.freqs)

    def bin_of(self, frequency: float) -> int:
        """Index of the bin nearest ``frequency``."""
        return int(np.argmin(np.abs(self.freqs - frequency)))

    def amplitude_at(self, frequency: float, search_bins: int = 1) -> float:
        """Peak amplitude near ``frequency``.

        Searches ``+/- search_bins`` around the nearest bin to tolerate
        slight incoherence between record length and tone frequency.
        """
        k = self.bin_of(frequency)
        lo = max(0, k - search_bins)
        hi = min(len(self), k + search_bins + 1)
        return float(np.max(self.amplitudes[lo:hi]))

    def power_dbm_at(
        self, frequency: float, impedance: float = 50.0, search_bins: int = 1
    ) -> float:
        """Power (dBm into ``impedance``) of the tone near ``frequency``."""
        a = self.amplitude_at(frequency, search_bins)
        if a <= 0.0:
            return -math.inf
        watts = a**2 / (2.0 * impedance)
        return watts_to_dbm(watts)

    def noise_floor(self, exclude_bins: int = 0) -> float:
        """Median bin amplitude, a robust noise-floor estimate.

        ``exclude_bins`` low-frequency bins are skipped (DC and stimulus
        energy usually live there).
        """
        amps = self.amplitudes[exclude_bins:]
        if len(amps) == 0:
            raise ValueError("no bins left after exclusion")
        return float(np.median(amps))


def amplitude_spectrum(wf: Waveform, window_kind: str = "rect") -> Spectrum:
    """Single-sided amplitude spectrum of a waveform.

    Scaled so a sine of peak amplitude ``A`` appears as ``A`` in its bin
    (after coherent-gain correction for the chosen window).
    """
    n = len(wf)
    if n < 2:
        raise ValueError("need at least 2 samples for a spectrum")
    w = window(window_kind, n)
    coherent_gain = float(np.mean(w))
    spec = np.fft.rfft(wf.samples * w)
    amps = np.abs(spec) * 2.0 / (n * coherent_gain)
    amps[0] /= 2.0  # DC bin is not doubled
    if n % 2 == 0 and len(amps) > 1:
        amps[-1] /= 2.0  # Nyquist bin is not doubled either
    freqs = np.fft.rfftfreq(n, d=wf.dt)
    return Spectrum(freqs=freqs, amplitudes=amps, resolution_hz=wf.sample_rate / n)


def fft_magnitude_signature(
    wf: Waveform,
    n_bins: int | None = None,
    window_kind: str = "rect",
    log_scale: bool = False,
    floor: float = 1e-12,
) -> np.ndarray:
    """The paper's phase-robust signature: FFT magnitudes of the response.

    Parameters
    ----------
    wf:
        Captured baseband response.
    n_bins:
        Keep only the first ``n_bins`` bins (low-frequency part); ``None``
        keeps the full single-sided spectrum.
    window_kind:
        Analysis window.
    log_scale:
        If true, return ``20 log10(|X| + floor)`` -- useful for regression
        features because spec errors are naturally expressed in dB.
    floor:
        Small constant preventing ``log(0)``.
    """
    spec = amplitude_spectrum(wf, window_kind)
    mags = spec.amplitudes
    if n_bins is not None:
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        mags = mags[:n_bins]
    if log_scale:
        return db20(mags + floor)
    return mags.copy()


def fft_magnitude_signature_matrix(
    samples: np.ndarray,
    n_bins: int | None = None,
    window_kind: str = "rect",
    log_scale: bool = False,
    floor: float = 1e-12,
) -> np.ndarray:
    """Batched :func:`fft_magnitude_signature` over ``(..., n)`` records.

    One ``rfft`` call over the whole batch; row ``i`` of the result is
    bit-identical to :func:`fft_magnitude_signature` on a waveform holding
    row ``i`` alone (the sample rate only affects bin *frequencies*, never
    the magnitude signature, so it is not needed here).
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1]
    if n < 2:
        raise ValueError("need at least 2 samples for a spectrum")
    w = window(window_kind, n)
    coherent_gain = float(np.mean(w))
    spec = np.fft.rfft(samples * w, axis=-1)
    amps = np.abs(spec) * 2.0 / (n * coherent_gain)
    amps[..., 0] /= 2.0  # DC bin is not doubled
    if n % 2 == 0 and amps.shape[-1] > 1:
        amps[..., -1] /= 2.0  # Nyquist bin is not doubled either
    if n_bins is not None:
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        amps = amps[..., :n_bins]
    if log_scale:
        return db20(amps + floor)
    return amps


def tone_amplitude(wf: Waveform, frequency: float, window_kind: str = "flattop") -> float:
    """Peak amplitude of the tone nearest ``frequency`` in the record."""
    spec = amplitude_spectrum(wf, window_kind)
    return spec.amplitude_at(frequency, search_bins=2)


def tone_power_dbm(
    wf: Waveform, frequency: float, impedance: float = 50.0, window_kind: str = "flattop"
) -> float:
    """Power in dBm of the tone nearest ``frequency``."""
    spec = amplitude_spectrum(wf, window_kind)
    return spec.power_dbm_at(frequency, impedance=impedance, search_bins=2)
