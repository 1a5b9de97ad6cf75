"""The signature test path: stimulus -> mixer -> DUT -> mixer -> LPF -> ADC.

Implements the configurations of Figures 2 and 3 of the paper:

* **Basic configuration** (Figure 2): both mixers driven from the same
  carrier.  A path phase mismatch ``phi`` scales the signature by
  ``cos(phi)`` (Equation 4) and can null it completely.
* **Modified configuration** (Figure 3): the second LO is offset by
  ``lo_offset_hz`` (Equation 5) and the FFT *magnitude* of the captured
  record is used as the signature, which removes the phase dependence.

The simulation runs in the harmonic-envelope domain
(:mod:`repro.loadboard.envelope`), which reproduces the passband physics
exactly for the cubic mixers/DUT while sampling only at baseband rates.

Batched capture
---------------
Everything upstream of the DUT -- the rendered stimulus, the first LO,
the mixer-1 upconversion and its harmonic powers, and (for a fixed path
phase) the second LO -- depends only on ``(stimulus, config)``, never on
the device.  :class:`CapturePlan` precomputes that front half once and
:meth:`SignatureTestBoard.capture_batch` /
:meth:`SignatureTestBoard.signature_batch` run the device-dependent back
half as single ``(batch, n)`` NumPy operations over a whole device lot.
Per-device RNG streams are spawned exactly like the executor layer's
(:func:`repro.runtime.executor.spawn_generators`), and every vectorized
step is elementwise along the record axis, so batched results are
bit-identical to the one-device-at-a-time path -- :meth:`capture` itself
is a batch of one.

Every capture runs the mixer-2 downconversion as a compiled op tape
(:mod:`repro.loadboard.capture_compiler`).  The uncompiled envelope
algebra survives as the test oracle,
:meth:`SignatureTestBoard._reference_signature_batch`, which the
compiled program equals bit for bit.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.device import RFDevice
from repro.circuits.noisefig import added_output_noise_vrms
from repro.circuits.nonlinear import describing_gain_batch, saturation_amplitudes
from repro.dsp.filters import ButterworthLowpass
from repro.dsp.mixer import Mixer
from repro.dsp.sources import dbm_to_vpeak
from repro.dsp.spectral import (
    fft_magnitude_signature,
    fft_magnitude_signature_matrix,
)
from repro.dsp.units import undb20
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.instruments.digitizer import BasebandDigitizer
from repro.loadboard.capture_compiler import (
    CompiledCaptureProgram,
    trace_mixer_baseband,
)
from repro.loadboard.envelope import EnvelopeSignal, one_pole_lowpass

__all__ = [
    "CapturePlan",
    "SignaturePathConfig",
    "SignatureTestBoard",
    "add_device_noise",
    "envelope_coefficients",
    "mix_envelope",
    "overdrive_ratios",
    "resolve_rng_streams",
    "simulation_config",
    "hardware_config",
]

RngList = Sequence[Optional[np.random.Generator]]


def resolve_rng_streams(
    rng: Optional[np.random.Generator],
    rngs: Optional[RngList],
    n_devices: int,
) -> List[Optional[np.random.Generator]]:
    """Per-device generators: explicit list, spawned from ``rng``, or None.

    The one spawning rule every board front end shares: explicit ``rngs``
    pass through unchanged, a master ``rng`` spawns one independent
    stream per device exactly like
    :func:`repro.runtime.executor.spawn_generators`, and ``None``
    disables measurement noise.
    """
    if rngs is not None:
        if rng is not None:
            raise ValueError("pass either rng or rngs, not both")
        rngs = list(rngs)
        if len(rngs) != n_devices:
            raise ValueError("need one rng (or None) per device")
        return rngs
    if rng is None:
        return [None] * n_devices
    # local import: repro.runtime's package __init__ imports modules
    # that import this one
    from repro.runtime.executor import spawn_generators

    return spawn_generators(rng, n_devices)


def envelope_coefficients(devices: Sequence[RFDevice]) -> np.ndarray:
    """The lot's envelope polynomials as one ``(N, 3)`` ``(a1, a2, a3)`` matrix."""
    return np.array(
        [d.envelope_poly() for d in devices], dtype=float
    ).reshape(len(devices), 3)


def overdrive_ratios(coeffs: np.ndarray, peak: float) -> np.ndarray:
    """Peak drive over each device's saturation amplitude (0 if none)."""
    sat = saturation_amplitudes(coeffs)
    finite = np.isfinite(sat)
    ratios = np.zeros(len(sat))
    ratios[finite] = peak / sat[finite]
    return ratios


def add_device_noise(
    env: np.ndarray,
    devices: Sequence[RFDevice],
    gens: RngList,
    engine_rate: float,
) -> np.ndarray:
    """Each DUT's added thermal noise on its complex carrier envelope row.

    The complex envelope of bandpass noise occupying ``engine_rate``
    hertz around the carrier has independent gaussian quadratures of
    standard deviation equal to the real noise RMS in that band.  Row
    ``i`` of ``env`` (shape ``(N, n)``) gains ``sigma_i * (re + 1j im)``
    with ``re`` then ``im`` drawn from ``gens[i]`` -- the draw order of
    a one-device capture -- and rows without a generator or without
    added noise pass through untouched.  All draws land in one
    ``(M, 2, n)`` buffer, scaled and added once per quadrature.  With
    no noisy row, ``env`` itself comes back.
    """
    sigmas = np.zeros(len(devices))
    for i, (device, g) in enumerate(zip(devices, gens)):
        if g is not None:
            specs = device.specs()
            sigmas[i] = added_output_noise_vrms(
                specs.gain_db, specs.nf_db, engine_rate
            )
    rows = np.flatnonzero(sigmas > 0.0)
    if not len(rows):
        return env
    noisy = np.array(env, dtype=complex)
    n = noisy.shape[1]
    draws = np.empty((len(rows), 2, n))
    for k, i in enumerate(rows):
        draws[k] = gens[i].normal(size=(2, n))
    draws *= sigmas[rows, None, None]
    # the usual lot is noisy in every row: add through views instead of
    # a gather and scatter of every row
    target = slice(None) if len(rows) == len(noisy) else rows
    noisy.real[target] += draws[:, 0]
    noisy.imag[target] += draws[:, 1]
    return noisy


def mix_envelope(
    mixer: Mixer,
    rf: EnvelopeSignal,
    lo: EnvelopeSignal,
    max_harmonic: int = 12,
) -> EnvelopeSignal:
    """Apply a behavioral mixer's cross-product table in the envelope domain.

    Same model as :meth:`repro.dsp.mixer.Mixer.mix`, but operating on
    :class:`EnvelopeSignal` operands:  ``out = g * sum c_mn rf^m lo^n``.
    """
    max_m = max(m for m, _ in mixer.harmonics.coeffs)
    max_n = max(n for _, n in mixer.harmonics.coeffs)
    rf_pows = {1: rf}
    lo_pows = {1: lo}
    for p in range(2, max_m + 1):
        rf_pows[p] = rf_pows[p - 1].multiply(rf, max_harmonic)
    for p in range(2, max_n + 1):
        lo_pows[p] = lo_pows[p - 1].multiply(lo, max_harmonic)
    out: Optional[EnvelopeSignal] = None
    for (m, n), c in mixer.harmonics.coeffs.items():
        term = rf_pows[m].multiply(lo_pows[n], max_harmonic).scale(c)
        out = term if out is None else out + term
    if out is None:
        raise ValueError("mixer harmonics table is empty; nothing to mix")
    return out.scale(mixer.conversion_gain)


@dataclass
class SignaturePathConfig:
    """Everything that defines one signature-test setup.

    Attributes mirror the hardware: carrier source, the two load-board
    mixers, LPF, digitizer, and the DUT coupling style.

    ``dut_coupling`` is ``"tuned"`` for narrowband DUTs (an LNA's matched
    input/output pass only the carrier band) or ``"wideband"`` for DUTs
    that pass all products.
    """

    carrier_freq: float = 900e6
    carrier_power_dbm: float = 10.0
    lo_offset_hz: float = 0.0
    path_phase_rad: float = 0.0
    random_path_phase: bool = False
    mixer1: Mixer = field(default_factory=lambda: Mixer(conversion_gain=0.5))
    mixer2: Mixer = field(default_factory=lambda: Mixer(conversion_gain=0.5))
    lpf_order: int = 5
    lpf_cutoff_hz: float = 10e6
    digitizer_rate: float = 20e6
    digitizer_noise_vrms: float = 1e-3
    digitizer_bits: Optional[int] = None
    capture_seconds: float = 5e-6
    envelope_oversample: int = 4
    dut_coupling: str = "tuned"
    include_device_noise: bool = True
    max_harmonic: int = 12
    #: fixture losses between the board and the DUT ports, in dB --
    #: nonzero for probe cards (wafer-level test) or lossy sockets
    input_loss_db: float = 0.0
    output_loss_db: float = 0.0
    #: low-cost tester overhead per insertion (single configuration,
    #: Section 2 advantage 2: no per-test setup)
    setup_time: float = 0.010

    def __post_init__(self):
        if self.dut_coupling not in ("tuned", "wideband"):
            raise ValueError("dut_coupling must be 'tuned' or 'wideband'")
        if self.input_loss_db < 0 or self.output_loss_db < 0:
            raise ValueError("fixture losses must be non-negative dB")
        if self.envelope_oversample < 1:
            raise ValueError("envelope_oversample must be >= 1")
        if not (0 < self.lpf_cutoff_hz < self.digitizer_rate):
            raise ValueError("LPF cutoff must be positive and near the capture band")
        if abs(self.lo_offset_hz) >= self.engine_rate / 2.0:
            raise ValueError("LO offset exceeds the envelope bandwidth")

    @property
    def engine_rate(self) -> float:
        """Internal envelope simulation rate."""
        return self.envelope_oversample * self.digitizer_rate

    @property
    def carrier_amplitude(self) -> float:
        """Carrier peak amplitude in volts."""
        return dbm_to_vpeak(self.carrier_power_dbm)

    def total_test_time(self) -> float:
        """Tester seconds for one signature insertion."""
        return self.setup_time + self.capture_seconds


@dataclass(frozen=True)
class CapturePlan:
    """The device-independent front half of a signature capture.

    Everything here depends only on ``(stimulus, config)``: the stimulus
    record rendered at the engine rate, the mixer-1 upconversion (with
    fixture input loss applied), the coupled DUT drive and its cached
    derived quantities, and -- when the path phase is fixed -- the second
    LO envelope.  A batch of N devices reuses one plan instead of paying
    the front half N times.
    """

    #: stimulus rendered at the engine rate, padded/truncated to the capture
    record: Waveform
    #: mixer-1 output after fixture input loss
    upconverted: EnvelopeSignal
    #: the drive the DUT sees (carrier band only for tuned coupling)
    dut_in: EnvelopeSignal
    #: peak drive estimate used for overdrive bookkeeping
    peak: float
    #: tuned coupling: carrier-band drive envelope and its magnitude
    u1: Optional[np.ndarray] = None
    amps: Optional[np.ndarray] = None
    #: wideband coupling: cached powers of the drive for the cubic DUT
    dut_in_sq: Optional[EnvelopeSignal] = None
    dut_in_cube: Optional[EnvelopeSignal] = None
    #: second LO at the fixed path phase (None when the phase is random)
    lo2: Optional[EnvelopeSignal] = None

    def __post_init__(self):
        # the plan is frozen, so the byte count the cache budget reads
        # on every publish is counted once, here
        def env_bytes(env: Optional[EnvelopeSignal]) -> int:
            if env is None:
                return 0
            return sum(np.asarray(e).nbytes for e in env.envelopes.values())

        total = self.record.samples.nbytes
        for env in (
            self.upconverted,
            self.dut_in,
            self.dut_in_sq,
            self.dut_in_cube,
            self.lo2,
        ):
            total += env_bytes(env)
        for arr in (self.u1, self.amps):
            if arr is not None:
                total += np.asarray(arr).nbytes
        object.__setattr__(self, "_nbytes", total)

    @property
    def n(self) -> int:
        """Engine-rate record length."""
        return len(self.record)

    def nbytes(self) -> int:
        """Approximate retained bytes: envelopes and arrays.

        Counts toward the board's plan-and-program memory bound
        (:meth:`SignatureTestBoard._enforce_plan_cache_bytes`).
        """
        return self._nbytes


class SignatureTestBoard:
    """Simulates one capture through the load board of Figure 2/3.

    After every capture, :attr:`last_overdrive_ratio` records the DUT
    input peak relative to the device polynomial's saturation amplitude.
    Ratios approaching 1 mean the cubic model is leaving its physical
    validity range; the stimulus optimizer penalizes such drive levels.
    """

    #: distinct (stimulus, config) plans kept per board (LRU)
    _plan_cache_size = 8
    #: byte budget for cached plans + compiled programs + workspaces;
    #: over-budget caches first shed workspaces, then whole LRU plans
    _plan_cache_max_bytes = 64 * 1024 * 1024

    def __init__(self, config: SignaturePathConfig):
        self.config = config
        self._lpf = ButterworthLowpass(
            config.lpf_order, config.lpf_cutoff_hz, config.engine_rate
        )
        self._digitizer = BasebandDigitizer(
            sample_rate=config.digitizer_rate,
            bits=config.digitizer_bits,
            noise_vrms=config.digitizer_noise_vrms,
        )
        #: peak DUT drive / saturation amplitude of the last capture
        #: (the batch maximum for a batched capture)
        self.last_overdrive_ratio: float = 0.0
        #: per-device overdrive ratios of the last (batched) capture
        self.last_overdrive_ratios: np.ndarray = np.zeros(0)
        #: per-stage wall-clock breakdown of the last compiled capture
        self.last_stage_seconds: Dict[str, float] = {}
        self._plan_cache: "OrderedDict[tuple, CapturePlan]" = OrderedDict()
        #: compiled mixer-2 programs keyed (rf keys, n) (LRU): the tape
        #: and its folded LO constants depend on the board config and the
        #: record length, never on the stimulus, so every plan of one
        #: length shares them
        self._programs: "OrderedDict[tuple, CompiledCaptureProgram]" = OrderedDict()
        #: guards the plan and program caches and the last-capture
        #: telemetry above: thread executors share one board across
        #: concurrent captures
        self._state_lock = threading.Lock()

    def __getstate__(self):
        # the caches can hold megabytes of envelopes and constants;
        # rebuilding them in a worker is cheaper than pickling them
        # across every task
        state = self.__dict__.copy()
        state["_plan_cache"] = OrderedDict()
        state["_programs"] = OrderedDict()
        del state["_state_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------
    # stimulus handling
    # ------------------------------------------------------------------
    def _stimulus_record(
        self, stimulus: Union[Waveform, PiecewiseLinearStimulus]
    ) -> Waveform:
        """Render the stimulus at the engine rate, padded to the capture.

        Accepts a raw :class:`Waveform` or any stimulus object exposing
        ``to_waveform(sample_rate)`` (PWL, multitone, ...).
        """
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
        return wf

    # ------------------------------------------------------------------
    # the cached device-independent front half
    # ------------------------------------------------------------------
    def capture_plan(
        self, stimulus: Union[Waveform, PiecewiseLinearStimulus]
    ) -> CapturePlan:
        """The (cached) device-independent front half for this stimulus.

        Keyed on the rendered record's bytes, so value-equal stimuli of
        any type (PWL, multitone, raw waveform) share one plan.  An LRU
        of :attr:`_plan_cache_size` plans is kept per board -- enough for
        a finite-difference star (nominal plus per-parameter steps uses
        one plan each) while bounding memory.
        """
        record = self._stimulus_record(stimulus)
        key = (record.sample_rate, record.t0, record.samples.tobytes())
        with self._state_lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
                return plan
        # build outside the lock: concurrent first captures may build
        # the same plan twice, but neither stalls behind the other
        plan = self._build_plan(record)
        with self._state_lock:
            winner = self._plan_cache.get(key)
            if winner is not None:
                self._plan_cache.move_to_end(key)
                return winner
            self._plan_cache[key] = plan
            while len(self._plan_cache) > self._plan_cache_size:
                self._plan_cache.popitem(last=False)
            self._enforce_plan_cache_bytes()
        return plan

    def _cache_nbytes(self) -> int:
        """Bytes retained by cached plans and compiled programs."""
        return sum(p.nbytes() for p in self._plan_cache.values()) + sum(
            p.nbytes() for p in self._programs.values()
        )

    def _enforce_plan_cache_bytes(self) -> None:
        """Shrink the plan and program caches under :attr:`_plan_cache_max_bytes`.

        Cheapest reclaim first: compiled-program workspaces (they
        rebuild lazily), least recently used program first, then whole
        LRU plans, then LRU programs.  The most recent plan and program
        always survive.  Enforcement runs only when a plan or program is
        published, so a lot that keeps reusing its plan keeps its
        steady-state buffers.  The caller must hold :attr:`_state_lock`.
        """
        budget = self._plan_cache_max_bytes
        if self._cache_nbytes() <= budget:
            return
        for program in list(self._programs.values()):
            program.release_workspaces()
            if self._cache_nbytes() <= budget:
                return
        for cache in (self._plan_cache, self._programs):
            while len(cache) > 1 and self._cache_nbytes() > budget:
                cache.popitem(last=False)

    def clear_plan_cache(self) -> None:
        """Drop all cached plans and compiled programs (each rebuilds on next use)."""
        with self._state_lock:
            self._plan_cache.clear()
            self._programs.clear()

    def peak_drive(
        self, stimulus: Union[Waveform, PiecewiseLinearStimulus]
    ) -> float:
        """Peak DUT drive for this stimulus, without capturing.

        The numerator of every overdrive ratio a capture records
        (:meth:`overdrive_snapshot`); device-independent, so it reads
        the cached plan a following capture reuses.
        """
        return self.capture_plan(stimulus).peak

    def _build_plan(self, record: Waveform) -> CapturePlan:
        cfg = self.config
        n = len(record)
        rf_in = EnvelopeSignal.from_baseband(record, cfg.carrier_freq)
        lo1 = EnvelopeSignal.sine_carrier(
            n,
            cfg.engine_rate,
            cfg.carrier_freq,
            amplitude=cfg.carrier_amplitude,
            phase=0.0,
        )
        upconverted = mix_envelope(cfg.mixer1, rf_in, lo1, cfg.max_harmonic)
        if cfg.input_loss_db > 0.0:
            upconverted = upconverted.scale(undb20(-cfg.input_loss_db))

        u1 = amps = None
        dut_in_sq = dut_in_cube = None
        if cfg.dut_coupling == "tuned":
            dut_in = upconverted.keep_harmonics([1])
            u1 = dut_in.harmonic(1)
            amps = np.abs(u1)
            peak = float(amps.max()) if len(amps) else 0.0
        else:
            dut_in = upconverted
            peak = dut_in.peak_passband_estimate()
            dut_in_sq = dut_in.power(2, cfg.max_harmonic)
            dut_in_cube = dut_in_sq.multiply(dut_in, cfg.max_harmonic)

        lo2 = None
        if not cfg.random_path_phase:
            lo2 = EnvelopeSignal.sine_carrier(
                n,
                cfg.engine_rate,
                cfg.carrier_freq,
                amplitude=cfg.carrier_amplitude,
                phase=cfg.path_phase_rad,
                offset_hz=cfg.lo_offset_hz,
            )
        return CapturePlan(
            record=record,
            upconverted=upconverted,
            dut_in=dut_in,
            peak=peak,
            u1=u1,
            amps=amps,
            dut_in_sq=dut_in_sq,
            dut_in_cube=dut_in_cube,
            lo2=lo2,
        )

    # ------------------------------------------------------------------
    # the device-dependent back half (vectorized over the batch)
    # ------------------------------------------------------------------
    def _dut_response_batch(
        self, plan: CapturePlan, devices: Sequence[RFDevice]
    ) -> EnvelopeSignal:
        """DUT outputs for a batch: one ``(batch, n)`` envelope signal.

        Row ``i`` is bit-identical to pushing ``plan.dut_in`` through
        device ``i`` alone; also updates the overdrive bookkeeping.
        """
        cfg = self.config
        coeffs = envelope_coefficients(devices)
        ratios = overdrive_ratios(coeffs, plan.peak)
        with self._state_lock:
            # one atomic pair: a reader never sees ratios from one
            # capture next to the scalar peak of another
            self.last_overdrive_ratios = ratios
            self.last_overdrive_ratio = float(ratios.max()) if len(ratios) else 0.0

        if cfg.dut_coupling == "tuned":
            # Narrowband DUT: only the carrier band reaches the
            # nonlinearity, so the describing function of the *saturating*
            # transfer is exact -- physical gain compression at any drive,
            # without the raw cubic's fold-back.  One (batch, 256) gain
            # table on the plan's shared grid interpolates the shared
            # |u1| record; the whole batch then multiplies u1 at once.
            gain = describing_gain_batch(coeffs, plan.amps, plan.peak)
            return EnvelopeSignal(
                {1: gain * plan.u1},
                plan.dut_in.sample_rate,
                plan.dut_in.carrier_freq,
            )

        # Wideband DUT: every product reaches the polynomial.  Only
        # valid below the fold-back point; the optimizer's drive
        # penalty keeps stimuli inside that range.  The drive powers
        # come precomputed from the plan; per-device coefficients enter
        # as (batch, 1) columns.
        a1_col = coeffs[:, 0:1]
        a2s = coeffs[:, 1]
        a3s = coeffs[:, 2]
        out = plan.dut_in.scale(a1_col)
        if np.any(a2s != 0.0):
            out = out + plan.dut_in_sq.scale(a2s[:, None])
        if np.any(a3s != 0.0):
            out = out + plan.dut_in_cube.scale(a3s[:, None])
        return out

    def _resolve_rngs(
        self,
        rng: Optional[np.random.Generator],
        rngs: Optional[RngList],
        n_devices: int,
    ) -> List[Optional[np.random.Generator]]:
        """Per-device generators: explicit list, spawned from ``rng``, or None."""
        return resolve_rng_streams(rng, rngs, n_devices)

    def _reference_front_matrix(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        gens: RngList,
    ) -> np.ndarray:
        """Filtered baseband for a batch, stopping short of the digitizer.

        The uncompiled analog front half of :meth:`_reference_signature_batch`:
        plan, DUT response, fixture output loss, device noise, mixer-2
        downconversion through :func:`mix_envelope` and the anti-alias LPF.
        """
        cfg = self.config
        plan = self.capture_plan(stimulus)
        n = plan.n
        dut_out = self._dut_response_batch(plan, devices)
        dut_out = self._envelope_bandwidth_batch(dut_out, devices)

        if cfg.output_loss_db > 0.0:
            dut_out = dut_out.scale(undb20(-cfg.output_loss_db))

        if cfg.include_device_noise and any(g is not None for g in gens):
            dut_out = self._add_device_noise_batch(dut_out, devices, gens)

        if cfg.random_path_phase:
            if any(g is None for g in gens):
                raise ValueError("random_path_phase requires an rng")
            phases = np.array(
                [cfg.path_phase_rad + g.uniform(0.0, 2.0 * np.pi) for g in gens]
            )
            lo2 = EnvelopeSignal.sine_carrier(
                n,
                cfg.engine_rate,
                cfg.carrier_freq,
                amplitude=cfg.carrier_amplitude,
                phase=phases[:, None],
                offset_hz=cfg.lo_offset_hz,
            )
        else:
            lo2 = plan.lo2
        downconverted = mix_envelope(cfg.mixer2, dut_out, lo2, cfg.max_harmonic)

        baseband = downconverted.keep_harmonics([0]).baseband()
        return self._lpf.apply_fft_matrix(baseband)

    def digitize_matrix(self, filtered: np.ndarray, gens: RngList) -> np.ndarray:
        """Digitize filtered-baseband rows: jitter, resample, noise, quantize.

        The back half shared by the compiled program and the reference
        oracle; row ``i`` draws its digitizer noise from ``gens[i]``.
        """
        cfg = self.config
        return self._digitizer.capture_matrix(
            filtered, cfg.engine_rate, cfg.capture_seconds, gens
        )

    def filtered_baseband_matrix(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        *,
        rngs: Optional[RngList] = None,
    ) -> Tuple[np.ndarray, List[Optional[np.random.Generator]]]:
        """The analog front half for a batch: ``(filtered, gens)``.

        ``filtered`` is the ``(batch, n)`` LPF output at the engine rate;
        ``gens`` are the per-device generators with the analog-stage
        draws (path phase, device noise) already consumed, ready for
        :meth:`digitize_matrix`.  Splitting the capture here lets
        :class:`~repro.loadboard.sites.MultiSiteBoard` inject site-to-site
        crosstalk between the per-site front ends and the shared
        digitizer while every stage stays bit-identical to this board's
        own :meth:`signature_batch`.
        """
        devices = list(devices)
        gens = self._resolve_rngs(rng, rngs, len(devices))
        filtered, program = self._compiled_front_matrix(devices, stimulus, gens)
        with self._state_lock:
            self.last_stage_seconds = dict(program.last_stage_seconds)
        return filtered, gens

    def _reference_signature_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        n_bins: Optional[int] = None,
        log_scale: bool = False,
        *,
        rngs: Optional[RngList] = None,
    ) -> np.ndarray:
        """The test oracle for :meth:`signature_batch`: uncompiled algebra.

        Same arguments and, bit for bit, the same result as
        :meth:`signature_batch`, with the mixer-2 downconversion run
        through the generic envelope algebra instead of the compiled
        program.  Only tests, :mod:`repro.verify` and the capture
        benchmarks call it.
        """
        devices = list(devices)
        gens = self._resolve_rngs(rng, rngs, len(devices))
        filtered = self._reference_front_matrix(devices, stimulus, gens)
        return fft_magnitude_signature_matrix(
            self.digitize_matrix(filtered, gens),
            n_bins=n_bins,
            log_scale=log_scale,
        )

    def _envelope_bandwidth_batch(
        self, dut_out: EnvelopeSignal, devices: Sequence[RFDevice]
    ) -> EnvelopeSignal:
        """DUT envelope dynamics: a finite modulation bandwidth low-passes
        the carrier-band envelope (tuned coupling only -- a wideband DUT
        with memory is outside this model's scope)."""
        cfg = self.config
        bws = [getattr(d, "envelope_bandwidth", None) for d in devices]
        if cfg.dut_coupling != "tuned" or not any(bw is not None for bw in bws):
            return dut_out
        env1 = dut_out.harmonic(1)
        filtered_env = np.array(env1, copy=True)
        groups: Dict[float, List[int]] = {}
        for i, bw in enumerate(bws):
            if bw is not None:
                groups.setdefault(bw, []).append(i)
        for bw, idx in groups.items():
            filtered_env[idx] = one_pole_lowpass(env1[idx], dut_out.sample_rate, bw)
        envs = dict(dut_out.envelopes)
        envs[1] = filtered_env
        return EnvelopeSignal(envs, dut_out.sample_rate, dut_out.carrier_freq)

    # ------------------------------------------------------------------
    # the compiled whole-lot program
    # ------------------------------------------------------------------
    def _compiled_program(
        self, plan: CapturePlan, rf_keys: tuple
    ) -> CompiledCaptureProgram:
        """The (board-cached) compiled mixer-2 program for this rf shape."""
        cfg = self.config
        # the folded LO depends on the plan only through its length
        key = (rf_keys, plan.n)
        with self._state_lock:
            program = self._programs.get(key)
            if program is not None:
                self._programs.move_to_end(key)
        if program is None:
            # compile outside the lock (tracing + constant folding is
            # the expensive part); first publication wins
            tape, out = trace_mixer_baseband(
                cfg.mixer2, rf_keys, (1,), cfg.max_harmonic
            )
            const_inputs = None
            if not cfg.random_path_phase:
                const_inputs = {("lo", 1): np.asarray(plan.lo2.envelopes[1])}
            program = CompiledCaptureProgram(tape, out, const_inputs=const_inputs)
            with self._state_lock:
                winner = self._programs.get(key)
                if winner is not None:
                    return winner
                self._programs[key] = program
                self._enforce_plan_cache_bytes()
        return program

    def _compiled_front_matrix(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        gens: RngList,
    ) -> Tuple[np.ndarray, CompiledCaptureProgram]:
        """Compiled analog front half: ``(filtered, program)``.

        Identical pipeline to :meth:`_reference_front_matrix` except the
        mixer-2 downconversion runs as the compiled op tape, bit-identical
        to the envelope algebra.  Per-stage wall times accumulate on the
        returned program; the caller publishes them to
        :attr:`last_stage_seconds`.
        """
        cfg = self.config
        t_start = time.perf_counter()
        plan = self.capture_plan(stimulus)
        t_plan = time.perf_counter() - t_start
        n = plan.n

        t_start = time.perf_counter()
        dut_out = self._dut_response_batch(plan, devices)
        dut_out = self._envelope_bandwidth_batch(dut_out, devices)
        if cfg.output_loss_db > 0.0:
            dut_out = dut_out.scale(undb20(-cfg.output_loss_db))
        t_nonlin = time.perf_counter() - t_start

        t_start = time.perf_counter()
        if cfg.include_device_noise and any(g is not None for g in gens):
            dut_out = self._add_device_noise_batch(dut_out, devices, gens)
        t_noise = time.perf_counter() - t_start

        rf_keys = tuple(dut_out.envelopes.keys())
        program = self._compiled_program(plan, rf_keys)
        program.begin_capture()
        program.last_stage_seconds["plan"] = t_plan
        program.last_stage_seconds["nonlinearity"] = t_nonlin
        program.last_stage_seconds["noise"] = t_noise

        with program.stage("mix"):
            rf_arrays = {
                h: np.asarray(env) for h, env in dut_out.envelopes.items()
            }
            if cfg.random_path_phase:
                if any(g is None for g in gens):
                    raise ValueError("random_path_phase requires an rng")
                phases = np.array(
                    [cfg.path_phase_rad + g.uniform(0.0, 2.0 * np.pi) for g in gens]
                )
                lo2 = EnvelopeSignal.sine_carrier(
                    n,
                    cfg.engine_rate,
                    cfg.carrier_freq,
                    amplitude=cfg.carrier_amplitude,
                    phase=phases[:, None],
                    offset_hz=cfg.lo_offset_hz,
                )
                baseband = program.execute(
                    rf_arrays, {1: np.asarray(lo2.envelopes[1])}
                )
            else:
                baseband = program.execute(rf_arrays)
        with program.stage("filter"):
            filtered = self._lpf.apply_fft_matrix(baseband)
        return filtered, program

    def _capture_compiled_matrix(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator],
        rngs: Optional[RngList],
    ) -> np.ndarray:
        """Digitized records via the compiled whole-lot program.

        The compiled front half plus the shared digitize stage; per-stage
        wall times land in :attr:`last_stage_seconds`.
        """
        gens = self._resolve_rngs(rng, rngs, len(devices))
        filtered, program = self._compiled_front_matrix(devices, stimulus, gens)
        with program.stage("digitize"):
            mat = self.digitize_matrix(filtered, gens)
        with self._state_lock:
            self.last_stage_seconds = dict(program.last_stage_seconds)
        return mat

    def overdrive_snapshot(self) -> Tuple[float, np.ndarray]:
        """The last capture's (peak ratio, per-device ratios), atomically.

        Readers that poll a board shared with a thread executor get a
        consistent pair from one capture instead of a torn mix of two.
        """
        with self._state_lock:
            return self.last_overdrive_ratio, self.last_overdrive_ratios

    def _add_device_noise_batch(
        self,
        dut_out: EnvelopeSignal,
        devices: Sequence[RFDevice],
        gens: RngList,
    ) -> EnvelopeSignal:
        """Inject each DUT's added thermal noise on the carrier band.

        :func:`add_device_noise` on harmonic 1; the other harmonics
        carry through untouched.
        """
        envs = dict(dut_out.envelopes)
        envs[1] = add_device_noise(
            dut_out.harmonic(1), devices, gens, self.config.engine_rate
        )
        return EnvelopeSignal(envs, dut_out.sample_rate, dut_out.carrier_freq)

    # ------------------------------------------------------------------
    # the full path
    # ------------------------------------------------------------------
    def capture(
        self,
        device: RFDevice,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
    ) -> Waveform:
        """One signature acquisition: the digitized baseband response.

        Implemented as a batch of one, so a lone capture and row ``i`` of
        a batched capture run the exact same code path.
        """
        return self.capture_batch([device], stimulus, rngs=[rng])[0]

    def capture_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        *,
        rngs: Optional[RngList] = None,
    ) -> List[Waveform]:
        """One signature acquisition per device, vectorized over the batch.

        Parameters
        ----------
        devices:
            The device batch; results are returned in this order.
        rng:
            Master generator: one independent stream per device is
            spawned exactly like
            :func:`repro.runtime.executor.spawn_generators`, so the
            records equal a per-device loop over those streams.  ``None``
            disables measurement noise (noise-free captures).
        rngs:
            Alternatively, explicit per-device generators (entries may be
            ``None``); mutually exclusive with ``rng``.

        Returns
        -------
        One digitized :class:`~repro.dsp.waveform.Waveform` per device,
        bit-identical to calling :meth:`capture` per device with the same
        per-device generators.
        """
        devices = list(devices)
        if not devices:
            return []
        mat = self._capture_compiled_matrix(devices, stimulus, rng, rngs)
        return [
            Waveform(row, self._digitizer.sample_rate, 0.0) for row in mat
        ]

    # ------------------------------------------------------------------
    # signature extraction (Figure 3: FFT magnitude)
    # ------------------------------------------------------------------
    def signature(
        self,
        device: RFDevice,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        n_bins: Optional[int] = None,
        log_scale: bool = False,
    ) -> np.ndarray:
        """Capture and reduce to the FFT-magnitude signature vector."""
        record = self.capture(device, stimulus, rng)
        return fft_magnitude_signature(
            record, n_bins=n_bins, log_scale=log_scale
        )

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
        """FFT-magnitude signatures for a device batch, shape ``(batch, m)``.

        Row ``i`` is bit-identical (``np.array_equal``) to
        ``signature(devices[i], stimulus, rng=stream_i, ...)`` where
        ``stream_i`` is the i-th generator spawned from ``rng`` (see
        :meth:`capture_batch`).  An empty lot yields shape ``(0, m)``
        with the same bin count ``m`` as any non-empty batch, so
        downstream matrix code never sees a degenerate ``(0, 0)``.
        """
        devices = list(devices)
        mat = self._capture_compiled_matrix(devices, stimulus, rng, rngs)
        t_start = time.perf_counter()
        sig = fft_magnitude_signature_matrix(
            mat, n_bins=n_bins, log_scale=log_scale
        )
        with self._state_lock:
            self.last_stage_seconds["fft"] = time.perf_counter() - t_start
        return sig

    def time_signature(
        self,
        device: RFDevice,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Raw time-domain signature (phase-sensitive; Figure 2 style).

        Provided for the phase-robustness study -- the paper's Section 2.1
        shows why this signature fails under path-phase variation.
        """
        return self.capture(device, stimulus, rng).samples.copy()


def simulation_config() -> SignaturePathConfig:
    """The paper's simulation setup (Section 4.1).

    10 dBm, 900 MHz carrier driving both mixers; mixers generating 2nd and
    3rd harmonic cross products; 10 MHz low-pass; response sampled at
    20 MHz; 5 us stimulus; 1 mV gaussian measurement noise.
    """
    return SignaturePathConfig(
        carrier_freq=900e6,
        carrier_power_dbm=10.0,
        lo_offset_hz=0.0,
        lpf_cutoff_hz=10e6,
        lpf_order=5,
        digitizer_rate=20e6,
        digitizer_noise_vrms=1e-3,
        digitizer_bits=None,
        capture_seconds=5e-6,
        envelope_oversample=4,
        dut_coupling="tuned",
    )


def hardware_config() -> SignaturePathConfig:
    """The paper's hardware prototype setup (Section 4.2).

    100 kHz offset between the mixer LO frequencies (900 MHz and
    900.1 MHz), 1 MHz digitizing rate, 5 ms capture; FFT magnitudes used
    as the signature to remove the phase dependence of the test-lead
    interconnects (modeled as a random path phase per insertion).
    """
    return SignaturePathConfig(
        carrier_freq=900e6,
        carrier_power_dbm=10.0,
        lo_offset_hz=100e3,
        random_path_phase=True,
        lpf_cutoff_hz=450e3,
        lpf_order=5,
        digitizer_rate=1e6,
        digitizer_noise_vrms=2e-3,
        digitizer_bits=12,
        capture_seconds=5e-3,
        envelope_oversample=4,
        dut_coupling="tuned",
    )
