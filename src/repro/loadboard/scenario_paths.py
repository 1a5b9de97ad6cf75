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

Both expose the duck-typed board surface the runtime layer dispatches
on (``signature`` / ``signature_batch`` / ``config`` /
``overdrive_snapshot`` / ``peak_drive``), so calibration, the
production flow, the streaming service and the stimulus optimizer work
unchanged.  The ``bist-calibration-predicts`` relation in
:mod:`repro.verify` checks that ridge calibration still predicts specs
through the coarse BIST path to a declared tolerance.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.device import RFDevice
from repro.circuits.nonlinear import describing_gain_batch
from repro.circuits.parasitics import SwitchParasitics
from repro.dsp.spectral import (
    fft_magnitude_signature,
    fft_magnitude_signature_matrix,
)
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.instruments.digitizer import BasebandDigitizer
from repro.loadboard.envelope import one_pole_lowpass
from repro.loadboard.signature_path import (
    RngList,
    SignaturePathConfig,
    SignatureTestBoard,
    add_device_noise,
    envelope_coefficients,
    overdrive_ratios,
    resolve_rng_streams,
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


class BistSignaturePath:
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
        self.last_overdrive_ratio: float = 0.0
        self.last_overdrive_ratios: np.ndarray = np.zeros(0)
        self._state_lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_state_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._state_lock = threading.Lock()

    def _drive_record(
        self, stimulus: Union[Waveform, PiecewiseLinearStimulus]
    ) -> np.ndarray:
        """On-die drive envelope at the engine rate, padded to the capture."""
        cfg = self.config
        if hasattr(stimulus, "to_waveform"):
            wf = stimulus.to_waveform(cfg.engine_rate)
        else:
            wf = stimulus
            if wf.sample_rate != cfg.engine_rate:
                wf = wf.resample(cfg.engine_rate)
        n_needed = int(round(cfg.capture_seconds * cfg.engine_rate))
        if len(wf) < n_needed:
            wf = wf.pad_to(n_needed)
        elif len(wf) > n_needed:
            wf = Waveform(wf.samples[:n_needed], cfg.engine_rate, wf.t0)
        return cfg.drive_scale * wf.samples

    def _detected_matrix(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        gens: RngList,
    ) -> np.ndarray:
        """Detected (video-filtered) envelope rows, one per device."""
        cfg = self.config
        u = self._drive_record(stimulus)
        amps = np.abs(u)
        peak = _peak(amps)

        coeffs = envelope_coefficients(devices)
        ratios = overdrive_ratios(coeffs, peak)
        with self._state_lock:
            self.last_overdrive_ratios = ratios
            self.last_overdrive_ratio = float(ratios.max()) if len(ratios) else 0.0

        # tuned coupling, exactly like the load board: the DUT's matched
        # port passes only the carrier band, so the saturating describing
        # function applies at any drive
        out_env = describing_gain_batch(coeffs, amps, peak) * u[None, :]

        if cfg.include_device_noise and any(g is not None for g in gens):
            out_env = add_device_noise(out_env, devices, gens, cfg.engine_rate)
        detected = np.abs(out_env)
        return one_pole_lowpass(
            detected, cfg.engine_rate, cfg.detector_bandwidth_hz
        )

    def capture_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        *,
        rngs: Optional[RngList] = None,
    ) -> List[Waveform]:
        """One coarse-ADC record per device, in lot order."""
        cfg = self.config
        devices = list(devices)
        gens = resolve_rng_streams(rng, rngs, len(devices))
        detected = self._detected_matrix(devices, stimulus, gens)
        mat = self._adc.capture_matrix(
            detected, cfg.engine_rate, cfg.capture_seconds, gens
        )
        return [Waveform(row, cfg.adc_rate, 0.0) for row in mat]

    def capture(
        self,
        device: RFDevice,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
    ) -> Waveform:
        """One BIST acquisition (a batch of one)."""
        return self.capture_batch([device], stimulus, rngs=[rng])[0]

    def signature_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        n_bins: Optional[int] = None,
        log_scale: bool = False,
        *,
        rngs: Optional[RngList] = None,
    ) -> np.ndarray:
        """FFT-magnitude signatures of the detected envelopes, ``(batch, m)``."""
        cfg = self.config
        devices = list(devices)
        gens = resolve_rng_streams(rng, rngs, len(devices))
        detected = self._detected_matrix(devices, stimulus, gens)
        mat = self._adc.capture_matrix(
            detected, cfg.engine_rate, cfg.capture_seconds, gens
        )
        return fft_magnitude_signature_matrix(
            mat, n_bins=n_bins, log_scale=log_scale
        )

    def signature(
        self,
        device: RFDevice,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        n_bins: Optional[int] = None,
        log_scale: bool = False,
    ) -> np.ndarray:
        """Capture and reduce one device to its signature vector."""
        record = self.capture(device, stimulus, rng)
        return fft_magnitude_signature(
            record, n_bins=n_bins, log_scale=log_scale
        )

    def overdrive_snapshot(self) -> Tuple[float, np.ndarray]:
        """The last capture's (peak ratio, per-device ratios), atomically."""
        with self._state_lock:
            return self.last_overdrive_ratio, self.last_overdrive_ratios

    def peak_drive(
        self, stimulus: Union[Waveform, PiecewiseLinearStimulus]
    ) -> float:
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


class AbmAccessPath:
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

    def capture_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        *,
        rngs: Optional[RngList] = None,
    ) -> List[Waveform]:
        """One digitized record per device, accessed through the ABM network."""
        mat = self._capture_matrix(devices, stimulus, rng, rngs)
        return [
            Waveform(row, self.board.config.digitizer_rate, 0.0) for row in mat
        ]

    def _capture_matrix(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator],
        rngs: Optional[RngList],
    ) -> np.ndarray:
        filtered, gens = self.board.filtered_baseband_matrix(
            devices, stimulus, rng, rngs=rngs
        )
        return self.board.digitize_matrix(self._bus_filtered(filtered), gens)

    def capture(
        self,
        device: RFDevice,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
    ) -> Waveform:
        """One ABM-path acquisition (a batch of one)."""
        return self.capture_batch([device], stimulus, rngs=[rng])[0]

    def signature_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        n_bins: Optional[int] = None,
        log_scale: bool = False,
        *,
        rngs: Optional[RngList] = None,
    ) -> np.ndarray:
        """FFT-magnitude signatures through the ABM network, ``(batch, m)``."""
        mat = self._capture_matrix(devices, stimulus, rng, rngs)
        return fft_magnitude_signature_matrix(
            mat, n_bins=n_bins, log_scale=log_scale
        )

    def signature(
        self,
        device: RFDevice,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        n_bins: Optional[int] = None,
        log_scale: bool = False,
    ) -> np.ndarray:
        """Capture and reduce one device to its signature vector."""
        record = self.capture(device, stimulus, rng)
        return fft_magnitude_signature(
            record, n_bins=n_bins, log_scale=log_scale
        )

    def overdrive_snapshot(self) -> Tuple[float, np.ndarray]:
        """Delegate to the inner board (the DUT drive is the board's)."""
        return self.board.overdrive_snapshot()

    def peak_drive(
        self, stimulus: Union[Waveform, PiecewiseLinearStimulus]
    ) -> float:
        """Delegate to the inner board (the DUT drive is the board's)."""
        return self.board.peak_drive(stimulus)
