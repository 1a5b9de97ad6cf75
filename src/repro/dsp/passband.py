"""Brute-force passband simulation of the signature path.

Samples the real carrier directly (no envelope algebra) and steps through
exactly the same chain as
:class:`repro.loadboard.signature_path.SignatureTestBoard`: upconversion
mixer, DUT coupling, polynomial DUT, downconversion mixer, low-pass
filter, digitizer.  Orders of magnitude slower than the envelope engine,
but free of any harmonic bookkeeping -- the two engines agreeing on the
same configuration is the framework's core correctness check (see
``tests/loadboard/test_envelope_vs_passband.py``).

Run validations on scaled-down carrier frequencies; the physics is
scale-invariant and passband records at 900 MHz would be enormous.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.circuits.device import RFDevice
from repro.dsp.filters import ButterworthLowpass
from repro.dsp.units import undb20
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform

__all__ = [
    "bandpass_mask",
    "lowpass_mask",
    "envelope_one_pole",
    "passband_capture",
]


def bandpass_mask(wf: Waveform, f_center: float, half_width: float) -> Waveform:
    """Ideal (brick-wall) bandpass around ``f_center``.

    Zeroes every FFT bin outside ``|f - f_center| <= half_width``.  This is
    the passband equivalent of
    :meth:`repro.loadboard.envelope.EnvelopeSignal.keep_harmonics` for a
    single harmonic: a tuned coupling network.
    """
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    spec = np.fft.rfft(wf.samples)
    freqs = np.fft.rfftfreq(len(wf), d=wf.dt)
    keep = np.abs(freqs - f_center) <= half_width
    out = np.fft.irfft(spec * keep, n=len(wf))
    return Waveform(out, wf.sample_rate, wf.t0)


def lowpass_mask(wf: Waveform, cutoff: float) -> Waveform:
    """Ideal low-pass: the baseband-selection counterpart of bandpass_mask."""
    return bandpass_mask(wf, 0.0, cutoff)


def envelope_one_pole(
    wf: Waveform, f_center: float, bandwidth_hz: float, half_width: float
) -> Waveform:
    """One-pole low-pass of the complex envelope around ``f_center``.

    The passband counterpart of
    :meth:`repro.loadboard.envelope.EnvelopeSignal.filter_harmonic`:
    extract the complex envelope (downconvert + brick-wall select the
    ``half_width`` band), run the same bilinear one-pole on it, and
    re-modulate.
    """
    import math

    n = len(wf)
    t = np.arange(n) / wf.sample_rate
    carrier = np.exp(-2j * np.pi * f_center * t)
    # complex envelope: 2 x the selected positive-frequency content
    mixed = wf.samples.astype(complex) * carrier
    spec = np.fft.fft(mixed)
    freqs = np.fft.fftfreq(n, d=wf.dt)
    spec[np.abs(freqs) > half_width] = 0.0
    envelope = 2.0 * np.fft.ifft(spec)

    wc = 2.0 * wf.sample_rate * math.tan(
        math.pi * bandwidth_hz / wf.sample_rate
    )
    k = 2.0 * wf.sample_rate
    b0 = wc / (k + wc)
    a1 = (wc - k) / (k + wc)
    y = np.empty_like(envelope)
    prev_x = 0.0 + 0.0j
    prev_y = 0.0 + 0.0j
    for i, x in enumerate(envelope):
        y[i] = b0 * (x + prev_x) - a1 * prev_y
        prev_x = x
        prev_y = y[i]
    out = np.real(y * np.conj(carrier))
    return Waveform(out, wf.sample_rate, wf.t0)


def passband_capture(
    device: RFDevice,
    stimulus: Union[Waveform, PiecewiseLinearStimulus],
    config,
    passband_rate: float,
    rng: Optional[np.random.Generator] = None,
) -> Waveform:
    """One noise-free signature acquisition, simulated at the carrier rate.

    Parameters
    ----------
    device:
        DUT exposing ``envelope_poly``.
    stimulus:
        Baseband test stimulus.
    config:
        A :class:`repro.loadboard.signature_path.SignaturePathConfig`.
        ``random_path_phase`` is honoured via ``rng``; measurement noise
        is *not* applied (validation compares deterministic paths).
    passband_rate:
        Simulation rate; must exceed twice the highest product frequency
        (about 12x the carrier with cubic mixers and DUT).
    """
    cfg = config
    if passband_rate < 8.0 * cfg.carrier_freq:
        raise ValueError("passband_rate must be at least 8x the carrier")
    n = int(round(cfg.capture_seconds * passband_rate))
    t = np.arange(n) / passband_rate

    # stimulus at the passband rate
    if isinstance(stimulus, PiecewiseLinearStimulus):
        x = stimulus.to_waveform(passband_rate)
    else:
        x = stimulus.resample(passband_rate)
    if len(x) < n:
        x = x.pad_to(n)
    x = Waveform(x.samples[:n], passband_rate)

    amp = cfg.carrier_amplitude
    lo1 = Waveform(amp * np.sin(2.0 * np.pi * cfg.carrier_freq * t), passband_rate)
    upconverted = cfg.mixer1.mix(x, lo1)

    if cfg.input_loss_db > 0.0:
        upconverted = Waveform(
            upconverted.samples * undb20(-cfg.input_loss_db),
            passband_rate,
        )

    half_width = cfg.engine_rate / 2.0
    if cfg.dut_coupling == "tuned":
        dut_in = bandpass_mask(upconverted, cfg.carrier_freq, half_width)
    else:
        dut_in = upconverted

    from repro.circuits.nonlinear import PolynomialNonlinearity

    a1, a2, a3 = device.envelope_poly()
    # the clipped (saturating) transfer, matching the envelope engine's
    # describing-function treatment of overdriven narrowband DUTs
    dut_out = PolynomialNonlinearity(a1, a2, a3).apply(dut_in)
    if cfg.dut_coupling == "tuned":
        dut_out = bandpass_mask(dut_out, cfg.carrier_freq, half_width)
        env_bw = device.envelope_bandwidth
        if env_bw is not None:
            dut_out = envelope_one_pole(
                dut_out, cfg.carrier_freq, env_bw, half_width
            )
    if cfg.output_loss_db > 0.0:
        dut_out = Waveform(
            dut_out.samples * undb20(-cfg.output_loss_db), passband_rate
        )

    phase = cfg.path_phase_rad
    if cfg.random_path_phase:
        if rng is None:
            raise ValueError("random_path_phase requires an rng")
        phase = phase + rng.uniform(0.0, 2.0 * np.pi)
    f2 = cfg.carrier_freq + cfg.lo_offset_hz
    lo2 = Waveform(amp * np.sin(2.0 * np.pi * f2 * t + phase), passband_rate)
    downconverted = cfg.mixer2.mix(dut_out, lo2)

    # remove carrier-band products before applying the real LPF shape, so
    # the linear-interpolation resampler sees only baseband content
    baseband = lowpass_mask(downconverted, cfg.engine_rate / 2.0)
    lpf = ButterworthLowpass(cfg.lpf_order, cfg.lpf_cutoff_hz, passband_rate)
    filtered = lpf.apply_fft(baseband)

    captured = filtered.resample(cfg.digitizer_rate)
    n_out = int(round(cfg.capture_seconds * cfg.digitizer_rate))
    samples = captured.samples[:n_out]
    return Waveform(samples, cfg.digitizer_rate)
