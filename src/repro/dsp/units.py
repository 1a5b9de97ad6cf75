"""Log/linear unit conversions: the single designated dB-math module.

Every dB <-> linear conversion in the library goes through these helpers.
The paper's specs (Eqs. 6-10) are all log-domain -- gain in dB, IIP3 in
dBm, NF in dB -- while waveforms, noise factors, and voltage gains are
linear, and silently mixing the two domains is the framework's #1
numerical foot-gun.  Centralising the conversions makes the domain
crossing explicit at every call site and lets the signature-lint
``units`` rules (:mod:`repro.analysis.units`) flag any inline
``10*log10`` / ``10**(x/10)`` arithmetic elsewhere in the tree.

Conventions
-----------
* ``db`` / ``undb`` convert **power** ratios (factor 10).
* ``db20`` / ``undb20`` convert **amplitude** (voltage) ratios
  (factor 20, valid for equal source/load impedance).
* ``watts_to_dbm`` / ``dbm_to_watts`` convert absolute power against the
  1 mW reference.

All helpers accept a python float or a numpy array and return the same
kind.  Scalar ``watts_to_dbm`` maps non-positive power to ``-inf``
(an empty bin has no power, not an error); the ratio converters follow
``log10`` semantics and raise on non-positive scalar input.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

__all__ = [
    "db",
    "undb",
    "db20",
    "undb20",
    "watts_to_dbm",
    "dbm_to_watts",
]

FloatOrArray = Union[float, np.ndarray]

# This module is the designated home of raw dB arithmetic, so the
# inline-conversion lint rule is disabled file-wide via the per-line
# markers below rather than by special-casing paths in the rule itself.


def db(ratio: FloatOrArray) -> FloatOrArray:
    """Power ratio (linear) to decibels: ``10 log10(ratio)``."""
    if isinstance(ratio, np.ndarray):
        return 10.0 * np.log10(ratio)  # repro-lint: disable=units-inline-db-conversion -- canonical definition
    return 10.0 * math.log10(ratio)  # repro-lint: disable=units-inline-db-conversion -- canonical definition


def undb(value_db: FloatOrArray) -> FloatOrArray:
    """Decibels to power ratio (linear): ``10**(value_db / 10)``."""
    return 10.0 ** (value_db / 10.0)  # repro-lint: disable=units-inline-db-conversion -- canonical definition


def db20(ratio: FloatOrArray) -> FloatOrArray:
    """Amplitude ratio (linear) to decibels: ``20 log10(ratio)``."""
    if isinstance(ratio, np.ndarray):
        return 20.0 * np.log10(ratio)  # repro-lint: disable=units-inline-db-conversion -- canonical definition
    return 20.0 * math.log10(ratio)  # repro-lint: disable=units-inline-db-conversion -- canonical definition


def undb20(value_db: FloatOrArray) -> FloatOrArray:
    """Decibels to amplitude ratio (linear): ``10**(value_db / 20)``."""
    return 10.0 ** (value_db / 20.0)  # repro-lint: disable=units-inline-db-conversion -- canonical definition


def watts_to_dbm(watts: FloatOrArray) -> FloatOrArray:
    """Absolute power in watts to dBm (``-inf`` for non-positive input).

    A zero-power bin has no power, not an error, so the array path maps
    zeros to ``-inf`` inside a local ``errstate`` -- the documented
    sentinel survives the test suite's FP sanitizer
    (:func:`repro.verify.guards.fp_sanitizer`), which otherwise raises
    on any ``log10(0)``.
    """
    if isinstance(watts, np.ndarray):
        with np.errstate(divide="ignore"):
            return db(watts) + 30.0
    if watts <= 0.0:
        return -math.inf
    return db(watts) + 30.0


def dbm_to_watts(power_dbm: FloatOrArray) -> FloatOrArray:
    """Absolute power in dBm to watts."""
    return undb(power_dbm - 30.0)
