"""Degraded signature-access scenarios: on-die BIST and 1149.4 ABM paths.

The paper's framework assumes the full load board of Figure 2/3.  Real
production floors often cannot afford that access: ROADMAP item 1 asks
for two degraded front ends, each still feeding the same
signature-to-specification calibration machinery:

* :class:`BistSignaturePath` -- on-chip capture in the style of
  Negreiros et al.'s low-cost BIST: an on-die generator amplitude-
  modulates the carrier directly (no external mixer-1 chain), the DUT
  output feeds a square-law envelope detector with a video-bandwidth
  filter, and a *coarse* on-die ADC digitizes the detected envelope --
  no mixer-2 downconversion, no offset LO, few effective bits.
* :class:`AbmAccessPath` -- the DUT reached through an IEEE 1149.4
  analog-boundary-module switch network (Syri et al.): each series
  transmission gate adds a frequency-flat insertion loss at the ports,
  and each switched AT-bus node an RC pole that low-passes the captured
  baseband record.

Both subclass :class:`~repro.loadboard.signature_path.SignaturePath`,
implementing only the digitized capture matrix and the peak drive, so
calibration, the production flow, the streaming service and the
stimulus optimizer work unchanged.  The ``bist-calibration-predicts``
relation in :mod:`repro.verify` checks that ridge calibration still
predicts specs through the coarse BIST path to a declared tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List

import numpy as np

from repro.circuits.device import RFDevice
from repro.circuits.nonlinear import describing_gain_batch
from repro.circuits.parasitics import SwitchParasitics
from repro.instruments.digitizer import BasebandDigitizer
from repro.loadboard.envelope import one_pole_lowpass
from repro.loadboard.signature_path import (
    RngList,
    SignaturePath,
    SignaturePathConfig,
    SignatureTestBoard,
    Stimulus,
    _add_noise_rows,
    _noisy_rows,
    device_noise_sigmas,
    envelope_coefficients,
    render_stimulus,
)

__all__ = [
    "AbmAccessPath",
    "AbmPathConfig",
    "BistPathConfig",
    "BistSignaturePath",
]


def _peak(amps: np.ndarray) -> float:
    """Largest drive magnitude of a record (0 for an empty one)."""
    return float(amps.max()) if len(amps) else 0.0


@dataclass
class BistPathConfig:
    """The on-die BIST capture chain.

    The on-die generator drives the DUT input directly with an
    amplitude-modulated carrier (``drive_scale`` volts of envelope per
    stimulus volt); the detector is a square-law diode whose video
    filter has ``detector_bandwidth_hz``; the on-die ADC is coarse --
    ``adc_bits`` defaults to 6 -- and noisier than a bench digitizer.
    """

    carrier_freq: float = 900e6
    drive_scale: float = 1.0
    detector_bandwidth_hz: float = 8e6
    adc_rate: float = 20e6
    adc_bits: Optional[int] = 6
    adc_noise_vrms: float = 2e-3
    capture_seconds: float = 5e-6
    envelope_oversample: int = 4
    include_device_noise: bool = True
    #: BIST needs no external instrument setup -- the paper's low-cost
    #: tester advantage taken to its limit
    setup_time: float = 1e-3

    def __post_init__(self):
        if self.envelope_oversample < 1:
            raise ValueError("envelope_oversample must be >= 1")
        if not (0.0 < self.detector_bandwidth_hz < self.engine_rate / 2.0):
            raise ValueError(
                "detector bandwidth must lie inside the engine Nyquist band"
            )
        if self.adc_bits is not None and self.adc_bits < 1:
            raise ValueError("adc_bits must be >= 1 or None")

    @property
    def engine_rate(self) -> float:
        """Internal envelope simulation rate."""
        return self.envelope_oversample * self.adc_rate

    # aliases letting scenario-agnostic code (the stimulus optimizer's
    # sigma_m sizing) read the capture geometry under the base
    # configuration's field names
    @property
    def digitizer_rate(self) -> float:
        return self.adc_rate

    @property
    def digitizer_noise_vrms(self) -> float:
        return self.adc_noise_vrms

    @property
    def dut_coupling(self) -> str:
        """On-die drive reaches the DUT through its matched (tuned) port."""
        return "tuned"

    def total_test_time(self) -> float:
        """Tester seconds for one BIST signature insertion."""
        return self.setup_time + self.capture_seconds


class BistSignaturePath(SignaturePath):
    """On-die signature capture: drive -> DUT -> detector -> coarse ADC.

    The describing-function DUT model and the per-device RNG contract
    are shared with :class:`~repro.loadboard.signature_path.SignatureTestBoard`;
    only the access chain differs (no mixers, no offset LO, magnitude
    detection, coarse quantization).  ``signature_batch`` is vectorized
    over the lot and row ``i`` is bit-identical to a one-device capture
    with the same generator.
    """

    def __init__(self, config: BistPathConfig):
        self.config = config
        self._adc = BasebandDigitizer(
            sample_rate=config.adc_rate,
            bits=config.adc_bits,
            noise_vrms=config.adc_noise_vrms,
        )

    def _drive_record(self, stimulus: Stimulus) -> np.ndarray:
        """On-die drive envelope at the engine rate, padded to the capture."""
        cfg = self.config
        wf = render_stimulus(stimulus, cfg.engine_rate, cfg.capture_seconds)
        return cfg.drive_scale * wf.samples

    def _capture_matrix(
        self, devices: List[RFDevice], stimulus: Stimulus, gens: RngList
    ) -> np.ndarray:
        """Coarse-ADC records of the detected (video-filtered) envelopes."""
        cfg = self.config
        u = self._drive_record(stimulus)
        amps = np.abs(u)
        peak = _peak(amps)
        coeffs = envelope_coefficients(devices)

        # tuned coupling, exactly like the load board: the DUT's matched
        # port passes only the carrier band, so the saturating describing
        # function applies at any drive
        out_env = describing_gain_batch(coeffs, amps, peak) * u[None, :]

        if cfg.include_device_noise and any(g is not None for g in gens):
            # the board's device noise on the carrier envelope, drawn
            # into a complex copy only when some row is noisy
            sigmas = device_noise_sigmas(devices, gens, cfg.engine_rate)
            rows = _noisy_rows(sigmas)
            if len(rows):
                out_env = np.array(out_env, dtype=complex)
                _add_noise_rows(out_env, sigmas, gens, rows)
        detected = one_pole_lowpass(
            np.abs(out_env), cfg.engine_rate, cfg.detector_bandwidth_hz
        )
        return self._adc.capture_matrix(
            detected, cfg.engine_rate, cfg.capture_seconds, gens
        )

    def peak_drive(self, stimulus: Stimulus) -> float:
        """Peak on-die drive for this stimulus, without capturing."""
        return _peak(np.abs(self._drive_record(stimulus)))


@dataclass
class AbmPathConfig:
    """An IEEE 1149.4 switched access network around the base board.

    ``n_input_switches`` / ``n_output_switches`` count the series
    transmission gates between the board and the DUT ports (typically
    two per port: the ABM gate plus the AT-bus gate); every closed
    switch adds :meth:`~repro.circuits.parasitics.SwitchParasitics.insertion_loss_db`
    against ``port_impedance_ohm``, and every *output-side* switched
    node one RC pole on the captured baseband record.  Input-side node
    poles sit at the carrier, far above the envelope band, and are
    frequency-flat there.
    """

    base: SignaturePathConfig
    switch: SwitchParasitics = field(
        default_factory=lambda: SwitchParasitics(
            r_on_ohm=50.0, c_node_farads=200e-12
        )
    )
    n_input_switches: int = 2
    n_output_switches: int = 2
    port_impedance_ohm: float = 50.0

    def __post_init__(self):
        if self.n_input_switches < 0 or self.n_output_switches < 0:
            raise ValueError("switch counts must be non-negative")

    def board_config(self) -> SignaturePathConfig:
        """The base configuration with the switch losses folded in."""
        loss_db = self.switch.insertion_loss_db(self.port_impedance_ohm)
        return replace(
            self.base,
            input_loss_db=self.base.input_loss_db
            + self.n_input_switches * loss_db,
            output_loss_db=self.base.output_loss_db
            + self.n_output_switches * loss_db,
        )


class AbmAccessPath(SignaturePath):
    """The load board reached through an ABM switch network.

    Runs the unchanged :class:`~repro.loadboard.signature_path.SignatureTestBoard`
    front end on a loss-adjusted configuration, then applies one RC pole
    per output-side switched node to the filtered baseband before the
    shared digitize stage -- the split introduced for multi-site reuse
    carries this scenario too.  Node poles above the engine Nyquist are
    invisible in the captured band and are skipped.
    """

    def __init__(self, config: AbmPathConfig):
        self.access = config
        self.board = SignatureTestBoard(config.board_config())

    @property
    def config(self) -> SignaturePathConfig:
        """The loss-adjusted board configuration (timing, rates, losses)."""
        return self.board.config

    def _bus_filtered(self, filtered: np.ndarray) -> np.ndarray:
        """Apply the output-side AT-bus node poles to the baseband rows."""
        access = self.access
        pole = access.switch.pole_hz(access.port_impedance_ohm)
        nyquist = self.board.config.engine_rate / 2.0
        if pole >= nyquist:
            return filtered
        out = filtered
        for _ in range(access.n_output_switches):
            out = one_pole_lowpass(out, self.board.config.engine_rate, pole)
        return out

    def _capture_matrix(
        self, devices: List[RFDevice], stimulus: Stimulus, gens: RngList
    ) -> np.ndarray:
        """The board's filtered baseband through the AT-bus poles, digitized."""
        filtered, gens = self.board.filtered_baseband_matrix(
            devices, stimulus, rngs=gens
        )
        return self.board.digitize_matrix(self._bus_filtered(filtered), gens)

    def peak_drive(self, stimulus: Stimulus) -> float:
        """Delegate to the inner board (the DUT drive is the board's)."""
        return self.board.peak_drive(stimulus)
