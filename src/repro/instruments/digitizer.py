"""Baseband digitizer model.

Captures the downconverted signature response.  The simulation experiment
of the paper samples at 20 MHz; the hardware experiment digitizes at
1 MHz for 5 ms.  The model includes input-referred noise (the paper adds
1 mV gaussian noise to its simulated signatures), ADC quantization and
optional sampling-clock jitter.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.dsp.noise import quantize_array
from repro.dsp.waveform import Waveform

__all__ = ["BasebandDigitizer"]


class BasebandDigitizer:
    """ADC front end for signature capture.

    Parameters
    ----------
    sample_rate:
        Capture rate in Hz.
    bits:
        ADC resolution; ``None`` disables quantization (ideal converter).
    full_scale:
        Input range is +/- ``full_scale`` volts.
    noise_vrms:
        Input-referred additive gaussian noise (default 1 mV, the paper's
        value).
    jitter_rms:
        RMS aperture jitter in seconds (0 disables).
    """

    def __init__(
        self,
        sample_rate: float,
        bits: Optional[int] = 12,
        full_scale: float = 1.0,
        noise_vrms: float = 1e-3,
        jitter_rms: float = 0.0,
    ):
        if not (sample_rate > 0):
            raise ValueError("sample_rate must be positive")
        if bits is not None and bits < 1:
            raise ValueError("bits must be >= 1 or None")
        if not (full_scale > 0):
            raise ValueError("full_scale must be positive")
        if noise_vrms < 0 or jitter_rms < 0:
            raise ValueError("noise and jitter must be non-negative")
        self.sample_rate = float(sample_rate)
        self.bits = bits
        self.full_scale = float(full_scale)
        self.noise_vrms = float(noise_vrms)
        self.jitter_rms = float(jitter_rms)
        #: (key, grid) of the last record shape resampled, see :meth:`_grid`
        self._grid_memo: Optional[tuple] = None

    def capture(
        self,
        wf: Waveform,
        duration: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Waveform:
        """Digitize a record: row 0 of a one-row :meth:`capture_matrix`.

        The input is (optionally) jittered, resampled to the digitizer
        rate, truncated to ``duration`` seconds, noise-corrupted and
        quantized.
        """
        samples = self.capture_matrix(
            wf.samples[None], wf.sample_rate, duration, [rng], wf.t0
        )[0]
        return Waveform(samples, self.sample_rate, wf.t0)

    def capture_matrix(
        self,
        samples: np.ndarray,
        sample_rate: float,
        duration: Optional[float] = None,
        rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
        t0: float = 0.0,
    ) -> np.ndarray:
        """Digitize a ``(batch, n)`` matrix of records, one row per device.

        The input is (optionally) jittered, resampled to the digitizer
        rate, truncated to ``duration`` seconds, noise-corrupted and
        quantized, with ``rngs[i]`` supplying row ``i``'s jitter and
        measurement noise; a row without a generator gets neither.  Row
        ``i`` of the result is bit-identical to ``capture(Waveform(
        samples[i], sample_rate, t0), duration, rngs[i])`` -- the steps
        are elementwise along the last axis, and each row draws from its
        own generator in the same order as a one-row capture.
        """
        mat = np.asarray(samples, dtype=float)
        if mat.ndim != 2:
            raise ValueError("samples must be a (batch, n) matrix")
        n_rows, n = mat.shape
        if rngs is None:
            rngs = [None] * n_rows
        if len(rngs) != n_rows:
            raise ValueError("need one rng (or None) per batch row")
        t, new_t, step, decimate = self._grid(n, sample_rate, t0)
        if self.jitter_rms > 0.0 and n:
            jittered_rows = np.array(mat, copy=True)
            for i, rng in enumerate(rngs):
                if rng is not None:
                    inst = t + rng.normal(0.0, self.jitter_rms, size=n)
                    inst = np.clip(inst, t[0], t[-1])
                    jittered_rows[i] = np.interp(inst, t, mat[i])
            mat = jittered_rows
        if new_t is not None:
            if decimate:
                # integer decimation whose target grid coincides bitwise
                # with a stride of the source grid: interpolation at an
                # exact knot returns that knot's sample, so the strided
                # copy equals the interp loop without touching every row
                mat = np.ascontiguousarray(mat[:, ::step][:, : len(new_t)])
            else:
                resampled = np.empty((n_rows, len(new_t)))
                for i in range(n_rows):
                    resampled[i] = np.interp(new_t, t, mat[i])
                mat = resampled
        if duration is not None:
            n_keep = int(round(duration * self.sample_rate))
            if n_keep < 1:
                raise ValueError("capture duration shorter than one sample")
            if n_keep < mat.shape[-1]:
                mat = mat[:, :n_keep]
        if self.noise_vrms > 0.0:
            # per-row draws stay in serial order (the RNG contract), each
            # straight into its row of one buffer; the scale and shift are
            # Generator.normal's own arithmetic, 0.0 + sigma * z, as two
            # block operations.  Rows without a generator stay untouched
            # (adding 0.0 would turn their -0.0 samples into +0.0)
            noisy = [i for i, rng in enumerate(rngs) if rng is not None]
            noise = np.empty((len(noisy),) + mat.shape[1:])
            for k, i in enumerate(noisy):
                rngs[i].standard_normal(out=noise[k])
            noise *= self.noise_vrms
            np.add(0.0, noise, out=noise)
            if len(noisy) == n_rows:
                mat = np.add(mat, noise, out=noise)
            else:
                mat = np.array(mat, copy=True)
                mat[noisy] += noise
        if self.bits is not None:
            mat = quantize_array(mat, self.bits, self.full_scale)
        return mat

    def _grid(self, n: int, sample_rate: float, t0: float) -> tuple:
        """``(t, new_t, step, decimate)`` of ``n`` samples at ``sample_rate``
        from ``t0``: the source grid, the digitizer-rate grid (``None``
        at the digitizer's own rate), the integer decimation stride and
        whether a strided copy equals interpolation onto ``new_t``.

        Kept for the last key, like
        :meth:`repro.dsp.filters.ButterworthLowpass.magnitude_response`:
        every capture of one board digitizes records of one shape.
        """
        key = (n, sample_rate, t0, self.sample_rate)
        memo = self._grid_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        t = t0 + np.arange(n) / sample_rate
        t.flags.writeable = False
        new_t, step, decimate = None, 0, False
        if sample_rate != self.sample_rate:
            n_new = max(1, int(round(n / sample_rate * self.sample_rate)))
            new_t = t0 + np.arange(n_new) / self.sample_rate
            new_t.flags.writeable = False
            step = int(round(sample_rate / self.sample_rate))
            decimate = (
                step >= 1
                and len(t[::step][:n_new]) == n_new
                and np.array_equal(new_t, t[::step][:n_new])
            )
        grid = (t, new_t, step, decimate)
        self._grid_memo = (key, grid)
        return grid

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bits = "ideal" if self.bits is None else f"{self.bits}-bit"
        return (
            f"BasebandDigitizer(fs={self.sample_rate:.3g} Hz, {bits}, "
            f"noise={self.noise_vrms * 1e3:.3g} mV)"
        )
