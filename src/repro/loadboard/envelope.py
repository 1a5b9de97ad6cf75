"""Harmonic-envelope signal algebra.

Simulating the signature path at the 900 MHz carrier rate would need
multi-GHz sampling inside the genetic optimizer's fitness loop.  Instead
we represent every signal as a sum of complex envelopes on the carrier
harmonics:

    v(t) = E_0(t) + sum_{h>0} Re[ E_h(t) exp(j h w_c t) ]

with ``E_0`` real.  Multiplication of two such signals -- the only
nonlinear operation the mixers and the polynomial DUT need -- is an exact
convolution over harmonic indices:

    T_k = sum_{i+j=k} T^A_i T^B_j,

where ``T_0 = E_0``, ``T_h = E_h / 2`` and ``T_{-h} = conj(E_h) / 2`` is
the two-sided form.  Because the mixers generate at most 3rd harmonics and
the DUT polynomial is cubic, harmonic indices stay below 10 and the
algebra is exact (no truncation error for the default ``max_harmonic``).

Envelope arrays are sampled at the baseband rate, so a full signature-path
simulation costs a few hundred small array products instead of millions of
carrier-rate samples -- the math in Section 2.1 of the paper (Equations
1-5) falls out of this algebra as a special case.

Batch axis
----------
Envelopes may be 1-D ``(n,)`` records or 2-D ``(batch, n)`` matrices whose
rows are independent devices sharing one time grid.  Every operation
(addition, scaling, harmonic products, filtering) acts along the last
axis, so mixing a device batch costs one NumPy call instead of ``batch``
calls; row ``i`` of a batched result is bit-identical to running the same
algebra on the 1-D envelopes of device ``i`` alone.  Mixed operands
broadcast: a shared 1-D stimulus envelope times a ``(batch, n)`` gain
matrix yields a batched signal.

Envelope arrays are treated as immutable once inside a signal: operations
share arrays between instances instead of copying, so callers must never
mutate ``envelopes`` values in place.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.dsp.waveform import Waveform

__all__ = ["EnvelopeSignal", "one_pole_lowpass"]


def _first_order_recurrence(c: np.ndarray, r: float) -> np.ndarray:
    """Solve ``y[i] = c[i] + r * y[i-1]`` (``y[-1] = 0``) along the last axis.

    Recursive doubling: after ``s`` rounds every sample holds the partial
    sum ``sum_{k<2^s} r^k c[i-k]``, so ``ceil(log2 n)`` vectorized passes
    replace the per-sample Python loop.  For the stable filters used here
    (``|r| < 1``) the powers of ``r`` only shrink, so the formulation is
    numerically benign -- far-past contributions underflow to zero exactly
    as they become negligible.
    """
    y = np.asarray(c)
    n = y.shape[-1]
    step = 1
    gain = r
    while step < n:
        shifted = np.zeros_like(y)
        shifted[..., step:] = y[..., :-step]
        y = y + gain * shifted
        gain = gain * gain
        step *= 2
    return y


def one_pole_lowpass(
    env: np.ndarray, sample_rate: float, bandwidth_hz: float
) -> np.ndarray:
    """Bilinear-transform one-pole low-pass along the last axis.

    The discretization of ``H(s) = 1 / (1 + s / w_c)`` with frequency
    pre-warping, applied to a (possibly complex, possibly batched) record
    with zero initial conditions:

        y[i] = b0 * (x[i] + x[i-1]) - a1 * y[i-1].

    Vectorized over arbitrary leading axes; row ``i`` of a batched input
    filters bit-identically to filtering that row alone.
    """
    if not (0.0 < bandwidth_hz < sample_rate / 2.0):
        raise ValueError(
            f"bandwidth must lie in (0, envelope Nyquist): got "
            f"{bandwidth_hz:g} Hz with Nyquist {sample_rate / 2.0:g} Hz"
        )
    env = np.asarray(env)
    wc = 2.0 * sample_rate * math.tan(math.pi * bandwidth_hz / sample_rate)
    k = 2.0 * sample_rate
    b0 = wc / (k + wc)
    a1 = (wc - k) / (k + wc)
    x_prev = np.zeros_like(env)
    x_prev[..., 1:] = env[..., :-1]
    return _first_order_recurrence(b0 * (env + x_prev), -a1)


class EnvelopeSignal:
    """A real signal represented by complex envelopes at carrier harmonics.

    Parameters
    ----------
    envelopes:
        Mapping of harmonic index ``h >= 0`` to a complex envelope array,
        either 1-D ``(n,)`` or 2-D ``(batch, n)`` (one row per device).
        All arrays must share one record length ``n``; 1-D envelopes are
        broadcast across the batch when 2-D ones are present.  ``E_0`` is
        coerced to real.
    sample_rate:
        Envelope sampling rate (baseband rate), Hz.
    carrier_freq:
        The carrier frequency the harmonic indices refer to, Hz.
    """

    __slots__ = ("envelopes", "sample_rate", "carrier_freq", "_two_sided_cache")

    def __init__(
        self,
        envelopes: Dict[int, np.ndarray],
        sample_rate: float,
        carrier_freq: float,
    ):
        if not (sample_rate > 0) or not (carrier_freq > 0):
            raise ValueError("sample_rate and carrier_freq must be positive")
        clean: Dict[int, np.ndarray] = {}
        n = None
        batch = None
        for h, env in envelopes.items():
            if h < 0:
                raise ValueError("harmonic indices must be >= 0 (one-sided form)")
            arr = np.asarray(env, dtype=complex)
            if arr.ndim not in (1, 2):
                raise ValueError(f"envelope {h} must be 1-D or 2-D (batch, n)")
            if n is None:
                n = arr.shape[-1]
            elif arr.shape[-1] != n:
                raise ValueError("all envelopes must share one length")
            if arr.ndim == 2:
                if batch is None:
                    batch = arr.shape[0]
                elif arr.shape[0] != batch:
                    raise ValueError("all envelopes must share one batch size")
            if h == 0:
                arr = arr.real.astype(complex)
            clean[h] = arr
        if n is None:
            raise ValueError("need at least one envelope")
        if batch is not None:
            for h, arr in clean.items():
                if arr.ndim == 1:
                    clean[h] = np.broadcast_to(arr, (batch, n))
        self.envelopes = clean
        self.sample_rate = float(sample_rate)
        self.carrier_freq = float(carrier_freq)
        self._two_sided_cache: Optional[Dict[int, np.ndarray]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_baseband(
        cls, wf: Waveform, carrier_freq: float
    ) -> "EnvelopeSignal":
        """Wrap a real baseband record (harmonic 0 only)."""
        return cls({0: wf.samples.astype(complex)}, wf.sample_rate, carrier_freq)

    @classmethod
    def sine_carrier(
        cls,
        n: int,
        sample_rate: float,
        carrier_freq: float,
        amplitude: float = 1.0,
        phase: Union[float, np.ndarray] = 0.0,
        offset_hz: float = 0.0,
    ) -> "EnvelopeSignal":
        """``amplitude * sin((w_c + 2 pi offset) t + phase)`` as an envelope.

        ``sin(x) = Re[-j e^{jx}]``, so the harmonic-1 envelope is
        ``-j * amplitude * exp(j (2 pi offset t + phase))``.  A nonzero
        ``offset_hz`` represents an LO slightly detuned from the carrier
        reference (Equation 5's offset-LO trick); the offset must stay
        well inside the envelope bandwidth.

        ``phase`` may be a scalar or a ``(batch, 1)`` column of per-device
        phases, which produces a batched LO whose row ``i`` equals the
        scalar-phase carrier at ``phase[i]``.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if abs(offset_hz) >= sample_rate / 2.0:
            raise ValueError("LO offset must be below the envelope Nyquist rate")
        t = np.arange(n) / sample_rate
        env = -1j * amplitude * np.exp(1j * (2.0 * np.pi * offset_hz * t + phase))
        return cls({1: env}, sample_rate, carrier_freq)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of envelope samples (per batch row)."""
        return next(iter(self.envelopes.values())).shape[-1]

    @property
    def batch_size(self) -> Optional[int]:
        """Rows of a batched signal, or ``None`` for a single 1-D record."""
        arr = next(iter(self.envelopes.values()))
        return arr.shape[0] if arr.ndim == 2 else None

    @property
    def shape(self) -> Tuple[int, ...]:
        """Common array shape of every envelope: ``(n,)`` or ``(batch, n)``."""
        return next(iter(self.envelopes.values())).shape

    def harmonics(self) -> list:
        """Sorted harmonic indices present."""
        return sorted(self.envelopes)

    def harmonic(self, h: int) -> np.ndarray:
        """Envelope at harmonic ``h`` (zeros if absent)."""
        if h in self.envelopes:
            return self.envelopes[h]
        return np.zeros(self.shape, dtype=complex)

    def baseband(self) -> np.ndarray:
        """The real baseband component ``E_0``."""
        return self.harmonic(0).real

    def peak_passband_estimate(self) -> float:
        """Upper bound on the instantaneous passband amplitude.

        ``max_t sum_h |E_h(t)|`` -- used to check the DUT polynomial is
        not driven beyond its physical validity range.  For batched
        signals the maximum runs over every row.
        """
        rows = self.peak_passband_rows()
        return float(np.max(rows)) if rows.size else 0.0

    def peak_passband_rows(self) -> np.ndarray:
        """:meth:`peak_passband_estimate` of each batch row on its own.

        Shape ``(batch,)`` for a batched signal, a 0-d array for a 1-D
        one; records of length zero peak at 0.
        """
        total = np.zeros(self.shape)
        for h, env in self.envelopes.items():
            total += np.abs(env) if h > 0 else np.abs(env.real)
        if not total.shape[-1]:
            return np.zeros(total.shape[:-1])
        return total.max(axis=-1)

    # ------------------------------------------------------------------
    # linear operations
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "EnvelopeSignal") -> None:
        if (
            other.sample_rate != self.sample_rate
            or other.carrier_freq != self.carrier_freq
            or other.n != self.n
        ):
            raise ValueError("envelope signals are not compatible")
        ba, bb = self.batch_size, other.batch_size
        if ba is not None and bb is not None and ba != bb:
            raise ValueError("envelope signals are not compatible")

    def __add__(self, other: "EnvelopeSignal") -> "EnvelopeSignal":
        self._check_compatible(other)
        out = dict(self.envelopes)
        for h, env in other.envelopes.items():
            if h in out:
                out[h] = out[h] + env
            else:
                out[h] = env
        return EnvelopeSignal(out, self.sample_rate, self.carrier_freq)

    def scale(self, factor: Union[float, np.ndarray]) -> "EnvelopeSignal":
        """Multiply the whole signal by a real constant.

        ``factor`` may also be an array broadcastable against the
        envelopes -- e.g. a ``(batch, 1)`` column of per-device gains,
        which turns a shared 1-D signal into a batched one.
        """
        return EnvelopeSignal(
            {h: env * factor for h, env in self.envelopes.items()},
            self.sample_rate,
            self.carrier_freq,
        )

    def keep_harmonics(self, harmonics: Iterable[int]) -> "EnvelopeSignal":
        """Ideal filter: retain only the listed harmonic bands.

        Models tuned couplings (an LNA's matched input passes only the
        carrier band) and the final low-pass selection of harmonic 0.
        """
        keep = set(harmonics)
        out = {h: env for h, env in self.envelopes.items() if h in keep}
        if not out:
            out = {0: np.zeros(self.shape, dtype=complex)}
        return EnvelopeSignal(out, self.sample_rate, self.carrier_freq)

    # ------------------------------------------------------------------
    # nonlinear operations
    # ------------------------------------------------------------------
    def _two_sided(self) -> Dict[int, np.ndarray]:
        """Two-sided coefficient form ``T_h`` (see module docstring).

        Cached per instance: ``multiply`` calls this on both operands, and
        the mixers reuse the same LO / power signals across many products,
        so rebuilding the conjugate arrays every time dominated profiles.
        """
        if self._two_sided_cache is None:
            t: Dict[int, np.ndarray] = {}
            for h, env in self.envelopes.items():
                if h == 0:
                    # the constructor already coerced E_0 to real
                    t[0] = env
                else:
                    t[h] = env / 2.0
                    t[-h] = np.conj(env) / 2.0
            self._two_sided_cache = t
        return self._two_sided_cache

    @staticmethod
    def _fold(two_sided: Dict[int, np.ndarray], shape) -> Dict[int, np.ndarray]:
        """Collapse a two-sided coefficient dict back to one-sided envelopes.

        Only called on ``multiply``'s freshly accumulated products, so the
        doubling may safely run in place.
        """
        out: Dict[int, np.ndarray] = {}
        for h, coeff in two_sided.items():
            if h < 0:
                continue
            if h != 0:
                coeff *= 2.0
            out[h] = coeff
        if not out:
            out = {0: np.zeros(shape, dtype=complex)}
        return out

    def multiply(
        self, other: "EnvelopeSignal", max_harmonic: int = 12
    ) -> "EnvelopeSignal":
        """Exact product of two envelope signals.

        Convolves the two-sided harmonic coefficients; components beyond
        ``max_harmonic`` are dropped (they would be filtered by the load
        board anyway, and with cubic nonlinearities the default keeps
        everything).
        """
        self._check_compatible(other)
        a = self._two_sided()
        b = other._two_sided()
        acc: Dict[int, np.ndarray] = {}
        for ha, ea in a.items():
            for hb, eb in b.items():
                k = ha + hb
                # negative-k coefficients are conjugates of positive-k
                # ones and are dropped by the fold -- never compute them
                if k < 0 or k > max_harmonic:
                    continue
                prod = ea * eb
                if k in acc:
                    acc[k] += prod
                else:
                    acc[k] = prod
        shape = acc[0].shape if 0 in acc else self.shape
        return EnvelopeSignal(
            self._fold(acc, shape), self.sample_rate, self.carrier_freq
        )

    def power(self, exponent: int, max_harmonic: int = 12) -> "EnvelopeSignal":
        """Integer power via repeated multiplication."""
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        result = self
        for _ in range(exponent - 1):
            result = result.multiply(self, max_harmonic)
        return result

    def apply_polynomial(
        self, a1: float, a2: float, a3: float, max_harmonic: int = 12
    ) -> "EnvelopeSignal":
        """Apply ``a1 x + a2 x^2 + a3 x^3`` exactly in the envelope domain."""
        out = self.scale(a1)
        if a2 != 0.0:
            out = out + self.power(2, max_harmonic).scale(a2)
        if a3 != 0.0:
            out = out + self.power(3, max_harmonic).scale(a3)
        return out

    # ------------------------------------------------------------------
    # conversion back to sampled signals
    # ------------------------------------------------------------------
    def to_passband(self, passband_rate: float) -> Waveform:
        """Reconstruct the real passband signal at ``passband_rate``.

        Used only by validation tests; requires a rate above twice the
        highest harmonic present.  Single (1-D) signals only.
        """
        if self.batch_size is not None:
            raise ValueError("to_passband requires a single (1-D) signal")
        h_max = max(self.harmonics())
        if passband_rate < 2.0 * (h_max * self.carrier_freq + self.sample_rate / 2.0):
            raise ValueError("passband rate too low for the harmonics present")
        n_out = int(round(self.n * passband_rate / self.sample_rate))
        t_out = np.arange(n_out) / passband_rate
        t_env = np.arange(self.n) / self.sample_rate
        out = np.zeros(n_out)
        for h, env in self.envelopes.items():
            re = np.interp(t_out, t_env, env.real)
            if h == 0:
                out += re
                continue
            im = np.interp(t_out, t_env, env.imag)
            phase = 2.0 * np.pi * h * self.carrier_freq * t_out
            out += re * np.cos(phase) - im * np.sin(phase)
        return Waveform(out, passband_rate)

    def baseband_waveform(self) -> Waveform:
        """The harmonic-0 content as a real waveform (1-D signals only)."""
        return Waveform(self.baseband(), self.sample_rate)

    def filter_harmonic(self, h: int, bandwidth_hz: float) -> "EnvelopeSignal":
        """One-pole low-pass the envelope of harmonic ``h``.

        In passband terms this is a symmetric single-pole *bandpass* of
        half-width ``bandwidth_hz`` around ``h * f_c`` -- the standard
        model for a DUT whose matching network or bias circuit limits
        its modulation bandwidth.  Other harmonics pass untouched.
        """
        if not (0.0 < bandwidth_hz < self.sample_rate / 2.0):
            raise ValueError(
                f"bandwidth must lie in (0, envelope Nyquist): got "
                f"{bandwidth_hz:g} Hz with Nyquist {self.sample_rate / 2.0:g} Hz"
            )
        out = dict(self.envelopes)
        if h in out:
            out[h] = one_pole_lowpass(out[h], self.sample_rate, bandwidth_hz)
        return EnvelopeSignal(out, self.sample_rate, self.carrier_freq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        batch = "" if self.batch_size is None else f", batch={self.batch_size}"
        return (
            f"EnvelopeSignal(harmonics={self.harmonics()}, n={self.n}{batch}, "
            f"fs={self.sample_rate:.3g} Hz, fc={self.carrier_freq:.3g} Hz)"
        )
