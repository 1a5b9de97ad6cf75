"""Common DUT interface.

Every device the framework can test -- circuit-level LNA, behavioral
amplifier, PA, attenuator, mixer -- exposes the same small surface:

* datasheet specifications (:meth:`RFDevice.specs`),
* a passband time-domain transfer (:meth:`RFDevice.process_rf`) used by
  conventional instrument models and the brute-force passband simulator,
* an envelope-domain polynomial (:meth:`RFDevice.envelope_poly`) used by
  the fast signature-path engine,
* the device's output noise level, tied to its noise figure.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.dsp.waveform import Waveform

__all__ = ["SpecSet", "RFDevice"]


@dataclass(frozen=True)
class SpecSet:
    """The three datasheet specifications the paper predicts.

    Attributes
    ----------
    gain_db:
        Small-signal power gain at the design frequency.
    nf_db:
        Noise figure in dB.
    iip3_dbm:
        Input-referred third-order intercept point in dBm.
    """

    gain_db: float
    nf_db: float
    iip3_dbm: float

    NAMES = ("gain_db", "nf_db", "iip3_dbm")

    def as_vector(self) -> np.ndarray:
        """Specs as a fixed-order vector (gain, NF, IIP3)."""
        return np.array([self.gain_db, self.nf_db, self.iip3_dbm])

    @classmethod
    def from_vector(cls, v) -> "SpecSet":
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"spec vector must have 3 entries, got shape {v.shape}")
        return cls(gain_db=float(v[0]), nf_db=float(v[1]), iip3_dbm=float(v[2]))

    def as_dict(self) -> Dict[str, float]:
        return {
            "gain_db": self.gain_db,
            "nf_db": self.nf_db,
            "iip3_dbm": self.iip3_dbm,
        }


class RFDevice(abc.ABC):
    """Abstract RF device under test."""

    #: design (center) frequency in Hz
    center_frequency: float
    #: single-pole envelope (modulation) bandwidth in Hz; ``None`` for a
    #: device whose bandwidth is far beyond the signature baseband
    envelope_bandwidth: Optional[float] = None

    @abc.abstractmethod
    def specs(self) -> SpecSet:
        """True datasheet specifications of this device instance."""

    @abc.abstractmethod
    def envelope_poly(self) -> Tuple[float, float, float]:
        """Memoryless voltage polynomial ``(a1, a2, a3)`` around the carrier.

        ``y = a1 x + a2 x^2 + a3 x^3`` models the device for signals near
        its design frequency; ``a1`` carries the gain and ``a3`` the
        third-order nonlinearity consistent with the IIP3 spec.
        """

    @abc.abstractmethod
    def process_rf(
        self, wf: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        """Passband time-domain transfer, including device noise if ``rng``.

        Used by the conventional-instrument models (gain/NF/IIP3 bench
        tests) and by the brute-force passband validator.
        """

    def output_noise_vrms(self, bandwidth_hz: float) -> float:
        """Device-generated output noise (V rms) in ``bandwidth_hz``.

        Default implementation ties the noise level to the device's gain
        and noise figure via the available-power convention; see
        :func:`repro.circuits.noisefig.output_noise_vrms`.
        """
        from repro.circuits.noisefig import output_noise_vrms

        s = self.specs()
        return output_noise_vrms(s.gain_db, s.nf_db, bandwidth_hz)
