"""Noise-figure conversions and measurement math.

Provides the noise bookkeeping shared by DUT models and the noise-figure
meter instrument:

* dB <-> linear noise-factor conversions,
* Friis cascade formula for multi-stage front ends,
* Y-factor noise-figure computation (how real NF meters work),
* the output-noise voltage a device with given gain/NF injects into the
  signature path.

Conventions: available-power noise, reference temperature ``T0 = 290 K``,
reference impedance 50 ohms.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.dsp.noise import BOLTZMANN, ROOM_TEMPERATURE_K
from repro.dsp.units import db, undb

__all__ = [
    "nf_db_to_factor",
    "factor_to_nf_db",
    "friis_cascade_nf_db",
    "enr_db_to_ratio",
    "y_factor_nf_db",
    "output_noise_vrms",
    "added_output_noise_vrms",
    "added_output_noise_vrms_rows",
    "input_referred_noise_vrms",
]

_REFERENCE_IMPEDANCE = 50.0


def nf_db_to_factor(nf_db: float) -> float:
    """Noise figure (dB) to noise factor F (linear)."""
    return undb(nf_db)


def factor_to_nf_db(factor: float) -> float:
    """Noise factor F (linear) to noise figure (dB)."""
    if factor < 1.0:
        raise ValueError(f"noise factor must be >= 1, got {factor}")
    return db(factor)


def friis_cascade_nf_db(stages: Sequence[Tuple[float, float]]) -> float:
    """Cascade noise figure via the Friis formula.

    Parameters
    ----------
    stages:
        Sequence of ``(gain_db, nf_db)`` tuples, first stage first.

    Returns
    -------
    Total noise figure in dB.
    """
    if not stages:
        raise ValueError("need at least one stage")
    total_f = 0.0
    cumulative_gain = 1.0
    for i, (gain_db, nf_db) in enumerate(stages):
        f = nf_db_to_factor(nf_db)
        if i == 0:
            total_f = f
        else:
            total_f += (f - 1.0) / cumulative_gain
        cumulative_gain *= undb(gain_db)
    return factor_to_nf_db(total_f)


def enr_db_to_ratio(enr_db: float) -> float:
    """Excess-noise ratio of a noise source, dB to linear."""
    return undb(enr_db)


def y_factor_nf_db(y: float, enr_db: float) -> float:
    """Noise figure from a Y-factor measurement.

    ``Y`` is the ratio of measured output noise powers with the noise
    source hot vs cold; ``F = ENR / (Y - 1)``.
    """
    if y <= 1.0:
        raise ValueError(f"Y factor must exceed 1 (got {y}); device swamped by noise?")
    factor = enr_db_to_ratio(enr_db) / (y - 1.0)
    # measurement noise can push the computed factor slightly below 1
    return factor_to_nf_db(max(factor, 1.0))


def output_noise_vrms(
    gain_db: float,
    nf_db: float,
    bandwidth_hz: float,
    impedance: float = _REFERENCE_IMPEDANCE,
    temperature_k: float = ROOM_TEMPERATURE_K,
) -> float:
    """Total output noise voltage of a device driven by a matched source.

    The available output noise power of a two-port with gain ``G`` and
    noise factor ``F`` fed from a matched resistive source is
    ``F * G * k T B``; converting available power to voltage across the
    reference impedance gives ``v = sqrt(F G k T B R)``.
    """
    if bandwidth_hz < 0:
        raise ValueError("bandwidth must be non-negative")
    f = nf_db_to_factor(nf_db)
    g = undb(gain_db)
    power = f * g * BOLTZMANN * temperature_k * bandwidth_hz
    return math.sqrt(power * impedance)


def added_output_noise_vrms(
    gain_db: float,
    nf_db: float,
    bandwidth_hz: float,
    impedance: float = _REFERENCE_IMPEDANCE,
    temperature_k: float = ROOM_TEMPERATURE_K,
) -> float:
    """Noise the device itself adds at its output (excludes amplified kTB).

    ``(F - 1) G k T B`` converted to volts.  This is the quantity device
    models inject in :meth:`RFDevice.process_rf`: the source's own thermal
    noise, if relevant, is part of the input record, so injecting the
    *total* ``F G k T B`` would double-count it and bias Y-factor
    measurements.
    """
    if bandwidth_hz < 0:
        raise ValueError("bandwidth must be non-negative")
    f = nf_db_to_factor(nf_db)
    g = undb(gain_db)
    power = (f - 1.0) * g * BOLTZMANN * temperature_k * bandwidth_hz
    return math.sqrt(max(power, 0.0) * impedance)


def added_output_noise_vrms_rows(
    gains_db: Sequence[float],
    nfs_db: Sequence[float],
    bandwidth_hz: float,
    impedance: float = _REFERENCE_IMPEDANCE,
    temperature_k: float = ROOM_TEMPERATURE_K,
) -> np.ndarray:
    """:func:`added_output_noise_vrms` of each ``(gain_db, nf_db)`` pair.

    Bit for bit the scalar function's value per pair: the dB
    conversions stay scalar (NumPy's array power differs from the
    scalar ``10.0 ** x`` in the last bit), and the rest is the same
    float64 arithmetic in the same order as array operations, which
    IEEE 754 rounds exactly like the scalar ones.  ``max(p, 0.0)``
    becomes ``where(p < 0.0, 0.0, p)``, not ``np.maximum``: that
    returns ``+0.0`` for ``-0.0`` where ``max`` keeps ``-0.0``
    (``tests/test_stacking_identities.py`` pins both).
    """
    if bandwidth_hz < 0:
        raise ValueError("bandwidth must be non-negative")
    f = np.array([nf_db_to_factor(x) for x in nfs_db], dtype=float)
    g = np.array([undb(x) for x in gains_db], dtype=float)
    # Python float arithmetic overflows to inf (and inf * 0 to NaN)
    # without a warning; so does this
    with np.errstate(over="ignore", invalid="ignore"):
        power = (f - 1.0) * g * BOLTZMANN * temperature_k * bandwidth_hz
        return np.sqrt(np.where(power < 0.0, 0.0, power) * impedance)


def input_referred_noise_vrms(
    nf_db: float,
    bandwidth_hz: float,
    impedance: float = _REFERENCE_IMPEDANCE,
    temperature_k: float = ROOM_TEMPERATURE_K,
) -> float:
    """Device-added noise referred to the input (excludes the source's kTB)."""
    if bandwidth_hz < 0:
        raise ValueError("bandwidth must be non-negative")
    f = nf_db_to_factor(nf_db)
    power = (f - 1.0) * BOLTZMANN * temperature_k * bandwidth_hz
    return math.sqrt(max(power, 0.0) * impedance)
