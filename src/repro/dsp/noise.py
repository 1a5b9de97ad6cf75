"""Noise and imperfection models for instruments and signal paths.

Covers the non-idealities the framework injects:

* additive gaussian measurement noise (the paper adds 1 mV gaussian noise
  to simulated signatures),
* DAC/ADC quantization,
* thermal-noise helpers (kTB) used by the DUT noise-figure models.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dsp.waveform import Waveform

__all__ = [
    "BOLTZMANN",
    "ROOM_TEMPERATURE_K",
    "thermal_noise_power_watts",
    "thermal_noise_vrms",
    "add_awgn",
    "quantize",
    "quantize_array",
]

#: Boltzmann constant in J/K.
BOLTZMANN = 1.380649e-23

#: Standard noise reference temperature (IEEE T0) in kelvin.
ROOM_TEMPERATURE_K = 290.0


def thermal_noise_power_watts(bandwidth_hz: float, temperature_k: float = ROOM_TEMPERATURE_K) -> float:
    """Available thermal noise power kTB in watts."""
    if bandwidth_hz < 0:
        raise ValueError("bandwidth must be non-negative")
    return BOLTZMANN * temperature_k * bandwidth_hz


def thermal_noise_vrms(
    bandwidth_hz: float,
    impedance: float = 50.0,
    temperature_k: float = ROOM_TEMPERATURE_K,
) -> float:
    """RMS voltage of kTB noise delivered into ``impedance`` ohms.

    Uses the available-power convention: ``v_rms = sqrt(k T B R)``.
    """
    return math.sqrt(thermal_noise_power_watts(bandwidth_hz, temperature_k) * impedance)


def add_awgn(wf: Waveform, sigma: float, rng: Optional[np.random.Generator] = None) -> Waveform:
    """Add white gaussian noise of standard deviation ``sigma`` volts."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return wf.copy()
    rng = rng if rng is not None else np.random.default_rng()
    return Waveform(
        wf.samples + rng.normal(0.0, sigma, size=len(wf)), wf.sample_rate, wf.t0
    )


def quantize_array(samples: np.ndarray, bits: int, full_scale: float) -> np.ndarray:
    """Uniform mid-tread quantization of a sample array (any shape).

    Samples outside the full-scale range clip, which is how real data
    converters behave.  Elementwise, so batched ``(batch, n)`` records
    quantize bit-identically to quantizing each row alone.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if not (full_scale > 0):
        raise ValueError("full_scale must be positive")
    levels = 2**bits
    lsb = 2.0 * full_scale / levels
    clipped = np.clip(samples, -full_scale, full_scale - lsb)
    return np.round(clipped / lsb) * lsb


def quantize(wf: Waveform, bits: int, full_scale: float) -> Waveform:
    """Uniform mid-tread quantization to ``bits`` bits over +/- full_scale."""
    return Waveform(quantize_array(wf.samples, bits, full_scale), wf.sample_rate, wf.t0)
