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
the device.  :class:`CapturePlan` precomputes that front half once
(:meth:`SignatureTestBoard.signature_grid` builds several stimuli's plans
as one ``(S, n)`` batch) and :meth:`SignatureTestBoard.capture_batch` /
:meth:`SignatureTestBoard.signature_batch` run the device-dependent back
half as ``(rows, n)`` NumPy operations over blocks of a device lot whose
complex operands stay cache resident
(:data:`repro.loadboard.capture_compiler.BLOCK_BYTES`), each block
written into one preallocated result.
:meth:`SignatureTestBoard.signature_grid` runs every (stimulus, device)
pair of several stimuli through the same blocks -- one capture per GA
generation, each distinct noise-free device captured once.  Each row
draws only from its own device's generator (the caller's ``rngs``), and
every vectorized step is elementwise along the record axis, so batched
and blocked results are bit-identical to the one-device-at-a-time path
-- :meth:`SignaturePath.capture` itself is a batch of one.

:class:`SignaturePath` is the surface every signature path shares (this
board, the BIST and ABM paths of :mod:`repro.loadboard.scenario_paths`
and :class:`~repro.loadboard.sites.MultiSiteBoard`): each implements
only its digitized capture matrix and its peak drive.

Every capture runs the mixer-2 downconversion as a compiled op tape
(:mod:`repro.loadboard.capture_compiler`).  The uncompiled envelope
algebra survives as the test oracle,
:func:`repro.verify.reference.reference_signature_batch`, which the
compiled program equals bit for bit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.device import RFDevice
from repro.circuits.noisefig import added_output_noise_vrms_rows
from repro.circuits.nonlinear import (
    DescribingGainStack,
    GainLot,
    saturation_amplitudes,
)
from repro.dsp.filters import ButterworthLowpass
from repro.dsp.mixer import Mixer
from repro.dsp.sources import dbm_to_vpeak
from repro.dsp.spectral import fft_magnitude_signature_matrix
from repro.dsp.units import undb20
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.instruments.digitizer import BasebandDigitizer
from repro.loadboard.capture_compiler import (
    CompiledCaptureProgram,
    block_rows,
    trace_mixer_baseband,
)
from repro.loadboard.envelope import EnvelopeSignal, one_pole_lowpass

__all__ = [
    "CapturePlan",
    "SignaturePath",
    "SignaturePathConfig",
    "SignatureTestBoard",
    "device_noise_sigmas",
    "envelope_coefficients",
    "mix_envelope",
    "overdrive_ratios",
    "render_stimulus",
    "resolve_rng_streams",
    "simulation_config",
    "hardware_config",
]

RngList = Sequence[Optional[np.random.Generator]]
Stimulus = Union[Waveform, PiecewiseLinearStimulus]


def resolve_rng_streams(
    rngs: Optional[RngList], n_devices: int
) -> List[Optional[np.random.Generator]]:
    """Per-device generators: the explicit list, or ``None`` for every device.

    The one rule every batch front end shares: ``rngs`` passes through
    (one generator, or ``None``, per device) and ``None`` disables
    measurement noise.  A caller holding one master generator spawns
    the per-device streams itself
    (:func:`repro.runtime.executor.spawn_generators`).
    """
    if rngs is None:
        return [None] * n_devices
    rngs = list(rngs)
    if len(rngs) != n_devices:
        raise ValueError("need one rng (or None) per device")
    return rngs


def render_stimulus(
    stimulus: Stimulus, engine_rate: float, capture_seconds: float
) -> Waveform:
    """The stimulus at ``engine_rate``, padded or cut to ``capture_seconds``.

    Accepts a raw :class:`Waveform` or any stimulus object exposing
    ``to_waveform(sample_rate)`` (PWL, multitone, ...).
    """
    if hasattr(stimulus, "to_waveform"):
        wf = stimulus.to_waveform(engine_rate)
    else:
        wf = stimulus
        if wf.sample_rate != engine_rate:
            wf = wf.resample(engine_rate)
    n_needed = int(round(capture_seconds * engine_rate))
    if len(wf) < n_needed:
        wf = wf.pad_to(n_needed)
    elif len(wf) > n_needed:
        wf = Waveform(wf.samples[:n_needed], engine_rate, wf.t0)
    return wf


def envelope_coefficients(devices: Sequence[RFDevice]) -> np.ndarray:
    """The lot's envelope polynomials as one ``(N, 3)`` ``(a1, a2, a3)`` matrix."""
    return np.array(
        [d.envelope_poly() for d in devices], dtype=float
    ).reshape(len(devices), 3)


def _wideband_terms(coeffs: np.ndarray) -> Tuple[bool, bool]:
    """Whether any device of the lot has a nonzero ``a2`` / ``a3``."""
    return bool(np.any(coeffs[:, 1] != 0.0)), bool(np.any(coeffs[:, 2] != 0.0))


def _row_blocks(n_plans: int, n_dev: int, rows: int) -> List[Tuple[int, int]]:
    """``(start, stop)`` row blocks over an ``(n_plans, n_dev)`` grid.

    Blocks of ``rows`` rows, straddling plan boundaries; an empty grid
    still runs one empty block, which fixes the result's width.
    """
    total = n_plans * n_dev
    if not total:
        return [(0, 0)]
    return [(a, min(a + rows, total)) for a in range(0, total, rows)]


def _take(seq: Sequence, rows: Union[slice, np.ndarray]) -> Sequence:
    """The entries of ``seq`` at ``rows``: a slice, or an index array."""
    return seq[rows] if isinstance(rows, slice) else [seq[r] for r in rows.tolist()]


def _distinct_devices(devices: Sequence[RFDevice]) -> Tuple[List[int], np.ndarray]:
    """The devices a noise-free capture tells apart, and who is who.

    Returns ``(first, rows)``: ``first`` indexes the first device of
    each distinct (envelope-polynomial bytes, ``envelope_bandwidth``)
    pair in order of appearance, and device ``i`` is captured as
    ``devices[first[rows[i]]]``.
    """
    coeffs = envelope_coefficients(devices)
    index: Dict[tuple, int] = {}
    first: List[int] = []
    rows = np.empty(len(devices), dtype=np.intp)
    for i, device in enumerate(devices):
        bw = device.envelope_bandwidth
        key = (coeffs[i].tobytes(), None if bw is None else np.float64(bw).tobytes())
        if key not in index:
            index[key] = len(first)
            first.append(i)
        rows[i] = index[key]
    return first, rows


def overdrive_ratios(coeffs: np.ndarray, peak: float) -> np.ndarray:
    """Peak drive over each device's saturation amplitude (0 if none).

    A path's overdrive for a lot is
    ``overdrive_ratios(envelope_coefficients(devices), path.peak_drive(stimulus))``;
    no capture is needed.
    """
    sat = saturation_amplitudes(coeffs)
    finite = np.isfinite(sat)
    ratios = np.zeros(len(sat))
    ratios[finite] = peak / sat[finite]
    return ratios


def device_noise_sigmas(
    devices: Sequence[RFDevice], gens: RngList, engine_rate: float
) -> np.ndarray:
    """Each device's added output-noise sigma in ``engine_rate`` hertz.

    ``added_output_noise_vrms`` of device ``i``'s specs, bit for bit,
    for every row with a generator; rows without one get 0.  One
    ``specs()`` call per noisy device, and one set of array operations
    for the lot.
    """
    sigmas = np.zeros(len(devices))
    rows = [i for i, g in enumerate(gens) if g is not None]
    if rows:
        specs = [devices[i].specs() for i in rows]
        sigmas[rows] = added_output_noise_vrms_rows(
            [s.gain_db for s in specs], [s.nf_db for s in specs], engine_rate
        )
    return sigmas


def _noisy_rows(sigmas: np.ndarray) -> np.ndarray:
    """Rows that draw device noise: a positive sigma, or a NaN one (a
    device whose gain or NF is NaN), which then turns its row NaN."""
    return np.flatnonzero(~(sigmas <= 0.0))


def _add_noise_rows(
    env: np.ndarray, sigmas: np.ndarray, gens: RngList, rows: np.ndarray
) -> None:
    """Add ``sigmas[i] * (re + 1j im)`` to rows ``rows`` of the complex
    ``env``, in place, with ``re`` then ``im`` drawn from ``gens[i]``.

    All draws land in one ``(M, 2, n)`` buffer, scaled and added once
    per quadrature.
    """
    draws = np.empty((len(rows), 2, env.shape[1]))
    for k, i in enumerate(rows.tolist()):
        gens[i].standard_normal(out=draws[k])
    draws *= sigmas[rows, None, None]
    # the usual lot is noisy in every row: add through views instead of
    # a gather and scatter of every row
    target = slice(None) if len(rows) == len(env) else rows
    env.real[target] += draws[:, 0]
    env.imag[target] += draws[:, 1]


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


class SignaturePath:
    """One signature path (Figure 3): stimulus to digitized records.

    The board surface the runtime layer dispatches on, written once for
    every path (the load board, on-die BIST, the 1149.4 ABM access path
    and the multi-site board).  A path implements :meth:`_capture_matrix`
    -- the digitized ``(N, n)`` records of a lot, row ``i`` drawing from
    ``gens[i]`` only -- and :meth:`peak_drive`; its ``config`` supplies
    ``digitizer_rate`` and ``total_test_time()``.  The lot geometry the
    runtime reads is declared here once: one site (:attr:`n_sites`), the
    config's test time per device and no shared-instrument arbitration;
    :class:`~repro.loadboard.sites.MultiSiteBoard` overrides all three.
    Every capture is a batch: :meth:`capture` and
    :meth:`signature` are row 0 of a one-device batch, so a lone device
    and row ``i`` of a lot run the same code.  A capture is a function
    of its devices, stimulus and generators only: a path keeps no
    record of its last capture, and a lot's overdrive is
    :func:`overdrive_ratios` of its :func:`envelope_coefficients` and
    :meth:`peak_drive`.
    """

    #: DUT sites per insertion; lot position ``i`` sits on site
    #: ``i % n_sites``, and lot chunks are cut at multiples of it
    n_sites = 1

    def device_test_time(self) -> float:
        """Tester seconds per device."""
        return self.config.total_test_time()

    def arbitration_seconds(self) -> float:
        """Shared-instrument overhead of one insertion (none on one site)."""
        return 0.0

    def _capture_matrix(
        self, devices: List[RFDevice], stimulus: Stimulus, gens: RngList
    ) -> np.ndarray:
        """The lot's digitized records, one row per device."""
        raise NotImplementedError

    def peak_drive(self, stimulus: Stimulus) -> float:
        """Peak DUT drive for this stimulus, without capturing."""
        raise NotImplementedError

    def capture(
        self,
        device: RFDevice,
        stimulus: Stimulus,
        rng: Optional[np.random.Generator] = None,
    ) -> Waveform:
        """One signature acquisition: the digitized response (a batch of one)."""
        return self.capture_batch([device], stimulus, rngs=[rng])[0]

    def capture_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Stimulus,
        *,
        rngs: Optional[RngList] = None,
    ) -> List[Waveform]:
        """One digitized :class:`~repro.dsp.waveform.Waveform` per device.

        ``rngs`` gives the per-device generators (entries may be
        ``None``); ``None`` disables measurement noise.  Record ``i`` is
        bit-identical to :meth:`capture` of device ``i`` with its
        generator.
        """
        devices = list(devices)
        if not devices:
            return []
        gens = resolve_rng_streams(rngs, len(devices))
        rate = self.config.digitizer_rate
        return [
            Waveform(row, rate, 0.0)
            for row in self._capture_matrix(devices, stimulus, gens)
        ]

    def signature(
        self,
        device: RFDevice,
        stimulus: Stimulus,
        rng: Optional[np.random.Generator] = None,
        n_bins: Optional[int] = None,
    ) -> np.ndarray:
        """Capture and reduce to the FFT-magnitude signature (a batch of one)."""
        return self.signature_batch([device], stimulus, n_bins=n_bins, rngs=[rng])[0]

    def signature_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Stimulus,
        *,
        rngs: Optional[RngList] = None,
        n_bins: Optional[int] = None,
    ) -> np.ndarray:
        """FFT-magnitude signatures for a device batch, shape ``(batch, m)``.

        Generators as in :meth:`capture_batch`; row ``i`` is
        bit-identical to :meth:`signature` of device ``i`` with its
        generator.  An empty lot yields shape ``(0, m)`` with the same
        bin count ``m`` as any non-empty batch, so downstream matrix
        code never sees a degenerate ``(0, 0)``.
        """
        devices = list(devices)
        gens = resolve_rng_streams(rngs, len(devices))
        # the FFT-magnitude signature (Figure 3) of each digitized row
        return fft_magnitude_signature_matrix(
            self._capture_matrix(devices, stimulus, gens), n_bins
        )

    def signature_grid(
        self,
        devices: Sequence[RFDevice],
        stimuli: Sequence[Stimulus],
        n_bins: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(grid, peaks)``: noise-free ``signature_batch`` per stimulus,
        stacked ``(S, N, m)``, and ``peak_drive`` per stimulus."""
        grid = np.stack(
            [self.signature_batch(devices, s, n_bins=n_bins) for s in stimuli]
        )
        return grid, np.array([self.peak_drive(s) for s in stimuli])


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


def _rows(
    env: Optional[EnvelopeSignal], key: Union[int, slice, np.ndarray]
) -> Optional[EnvelopeSignal]:
    """Rows ``key`` of a stacked envelope signal (a single row broadcasts)."""
    if env is None:
        return None
    return EnvelopeSignal(
        {h: e[key] for h, e in env.envelopes.items()}, env.sample_rate, env.carrier_freq
    )


@dataclass(frozen=True)
class CapturePlan:
    """The device-independent front half of ``S`` signature captures.

    Everything here depends only on ``(stimuli, config)``: the stimulus
    records rendered at the engine rate, the mixer-1 upconversion (with
    fixture input loss applied), the coupled DUT drive and its cached
    derived quantities, and -- when the path phase is fixed -- the second
    LO envelope.  Every array holds one row per stimulus; a lot of N
    devices reuses one plan instead of paying the front half N times.
    One stimulus's plan (:meth:`SignatureTestBoard.capture_plan`) is the
    ``S = 1`` stack.
    """

    #: stimuli rendered at the engine rate, padded/truncated to the capture
    records: Tuple[Waveform, ...]
    #: mixer-1 output after fixture input loss, ``(S, n)`` per harmonic
    upconverted: EnvelopeSignal
    #: the drive the DUT sees (carrier band only for tuned coupling)
    dut_in: EnvelopeSignal
    #: ``(S,)`` peak drive estimates used for overdrive bookkeeping
    peaks: np.ndarray
    #: tuned coupling: ``(S, n)`` carrier-band drive envelopes and magnitudes
    u1: Optional[np.ndarray] = None
    amps: Optional[np.ndarray] = None
    #: tuned coupling: the describing-gain grids and knot searches over
    #: ``amps``, shared by every row block and device of the plan
    gains: Optional[DescribingGainStack] = None
    #: wideband coupling: cached powers of the drive for the cubic DUT
    dut_in_sq: Optional[EnvelopeSignal] = None
    dut_in_cube: Optional[EnvelopeSignal] = None
    #: second LO at the fixed path phase (None when the phase is random),
    #: shared by every stimulus
    lo2: Optional[EnvelopeSignal] = None

    def __post_init__(self):
        # the plan is frozen, so the byte count the cache budget reads
        # on every publish is counted once, here
        total = sum(r.samples.nbytes for r in self.records)
        for env in (
            self.upconverted,
            self.dut_in,
            self.dut_in_sq,
            self.dut_in_cube,
            self.lo2,
        ):
            if env is not None:
                total += sum(np.asarray(e).nbytes for e in env.envelopes.values())
        for arr in (self.u1, self.amps):
            if arr is not None:
                total += arr.nbytes
        if self.gains is not None:
            total += self.gains.nbytes()
        object.__setattr__(self, "_nbytes", total)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def peak(self) -> float:
        """A one-stimulus plan's peak drive."""
        if len(self) != 1:
            raise ValueError("a stack of several stimuli has no single peak")
        return float(self.peaks[0])

    @property
    def n(self) -> int:
        """Engine-rate record length."""
        return len(self.records[0])

    def nbytes(self) -> int:
        """Approximate retained bytes: envelopes and arrays.

        Counts toward the board's plan-and-program memory bound
        (:meth:`SignatureTestBoard._enforce_plan_cache_bytes`).
        """
        return self._nbytes


class SignatureTestBoard(SignaturePath):
    """Simulates one capture through the load board of Figure 2/3.

    :func:`overdrive_ratios` of a lot at :meth:`peak_drive` gives each
    DUT's input peak relative to its polynomial's saturation amplitude.
    Ratios approaching 1 mean the cubic model is leaving its physical
    validity range; the stimulus optimizer penalizes such drive levels.
    The board's only state is its plan and program caches.
    """

    #: distinct (stimulus, config) plans kept per board (LRU)
    _plan_cache_size = 8
    #: byte budget for cached plans + compiled programs (with their
    #: block workspaces); over-budget caches shed whole LRU plans first
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
        self._plan_cache: "OrderedDict[tuple, CapturePlan]" = OrderedDict()
        #: compiled mixer-2 programs keyed (rf keys, n) (LRU): the tape
        #: and its folded LO constants depend on the board config and the
        #: record length, never on the stimulus, so every plan of one
        #: length shares them
        self._programs: "OrderedDict[tuple, CompiledCaptureProgram]" = OrderedDict()
        #: guards both caches: thread executors share one board across
        #: captures
        self._cache_lock = threading.Lock()

    def __getstate__(self):
        # the caches can hold megabytes of envelopes and constants;
        # rebuilding them in a worker is cheaper than pickling them
        # across every task, and a lock does not pickle
        state = self.__dict__.copy()
        state["_plan_cache"] = OrderedDict()
        state["_programs"] = OrderedDict()
        del state["_cache_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # stimulus handling
    # ------------------------------------------------------------------
    def _stimulus_record(self, stimulus: Stimulus) -> Waveform:
        """The stimulus rendered at the engine rate, padded to the capture."""
        cfg = self.config
        return render_stimulus(stimulus, cfg.engine_rate, cfg.capture_seconds)

    @staticmethod
    def _record_key(record: Waveform) -> tuple:
        return (record.sample_rate, record.t0, record.samples.tobytes())

    # ------------------------------------------------------------------
    # the device-independent front half
    # ------------------------------------------------------------------
    def capture_plan(self, stimulus: Stimulus) -> CapturePlan:
        """The (cached) device-independent front half for this stimulus.

        Keyed on the rendered record's bytes, so value-equal stimuli of
        any type (PWL, multitone, raw waveform) share one plan.  An LRU
        of :attr:`_plan_cache_size` plans is kept per board -- enough for
        a finite-difference star (nominal plus per-parameter steps uses
        one plan each) while bounding memory.  A miss builds the plan as
        a stack of one (:meth:`_build_plans`).
        """
        record = self._stimulus_record(stimulus)
        key = self._record_key(record)
        with self._cache_lock:
            plan = self._plan_cache.get(key)
            if plan is not None:
                self._plan_cache.move_to_end(key)
                return plan
        # build outside the lock: concurrent first captures may build
        # the same plan twice, but neither stalls behind the other
        plan = self._build_plans([record])
        with self._cache_lock:
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

        Whole LRU plans go first, then LRU programs; the most recent
        plan and program always survive (a program's workspaces are one
        block per thread, so they never outgrow a lot).  Enforcement
        runs only when a plan or program is published.  The caller must
        hold :attr:`_cache_lock`.
        """
        budget = self._plan_cache_max_bytes
        for cache in (self._plan_cache, self._programs):
            while len(cache) > 1 and self._cache_nbytes() > budget:
                cache.popitem(last=False)

    def clear_plan_cache(self) -> None:
        """Drop all cached plans and compiled programs (each rebuilds on next use)."""
        with self._cache_lock:
            self._plan_cache.clear()
            self._programs.clear()

    def peak_drive(self, stimulus: Stimulus) -> float:
        """Peak DUT drive for this stimulus, without capturing.

        The numerator of every :func:`overdrive_ratios` under this
        stimulus; device-independent, so it reads the cached plan a
        following capture reuses.
        """
        return self.capture_plan(stimulus).peak

    def _build_plans(self, records: Sequence[Waveform]) -> CapturePlan:
        """The plan stack of ``records`` (at least one): mixer-1 runs once
        over the ``(S, n)`` baseband, and the describing-gain grids and
        knot searches are built for every record at once."""
        cfg = self.config
        n = len(records[0])
        rf_in = EnvelopeSignal(
            {0: np.array([r.samples for r in records], dtype=complex)},
            cfg.engine_rate,
            cfg.carrier_freq,
        )
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

        u1 = amps = gains = None
        dut_in_sq = dut_in_cube = None
        if cfg.dut_coupling == "tuned":
            dut_in = upconverted.keep_harmonics([1])
            u1 = dut_in.harmonic(1)
            amps = np.abs(u1)
            peaks = amps.max(axis=-1) if n else np.zeros(len(records))
            gains = DescribingGainStack.build(amps, peaks)
        else:
            dut_in = upconverted
            peaks = dut_in.peak_passband_rows()
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
            records=tuple(records),
            upconverted=upconverted,
            dut_in=dut_in,
            peaks=np.asarray(peaks, dtype=float),
            u1=u1,
            amps=amps,
            gains=gains,
            dut_in_sq=dut_in_sq,
            dut_in_cube=dut_in_cube,
            lo2=lo2,
        )

    # ------------------------------------------------------------------
    # the device-dependent back half (vectorized over the batch)
    # ------------------------------------------------------------------
    def _dut_rows(
        self,
        plan: CapturePlan,
        coeffs: np.ndarray,
        terms: Tuple[bool, bool],
        devices: Union[slice, np.ndarray],
        stimuli: Union[int, np.ndarray],
        lot: Optional[GainLot] = None,
    ) -> EnvelopeSignal:
        """DUT outputs of rows pairing device ``coeffs[devices][i]`` with
        stimulus ``stimuli`` (one stimulus of the plan) or ``stimuli[i]``.

        ``terms`` says whether the lot has any nonzero ``a2`` / ``a3``
        (wideband coupling only): decided once per lot, so every row
        block carries the same harmonics.  ``lot`` is ``coeffs`` on the
        plan's describing-gain grids (tuned coupling only; built here
        when ``None``).  One stimulus's drive broadcasts over its rows;
        several are gathered.
        """
        if self.config.dut_coupling == "tuned":
            # Narrowband DUT: only the carrier band reaches the
            # nonlinearity, so the describing function of the *saturating*
            # transfer is exact -- physical gain compression at any drive,
            # without the raw cubic's fold-back.  One (rows, 256) gain
            # table, each row on its stimulus's grid, interpolates the
            # rows' |u1| records; the block then multiplies u1 at once.
            if lot is None:
                lot = plan.gains.lot(coeffs)
            gain = plan.gains(lot, devices, stimuli)
            return EnvelopeSignal(
                {1: gain * plan.u1[stimuli]},
                plan.dut_in.sample_rate,
                plan.dut_in.carrier_freq,
            )

        # Wideband DUT: every product reaches the polynomial.  Only
        # valid below the fold-back point; the optimizer's drive
        # penalty keeps stimuli inside that range.  The drive powers
        # come precomputed from the plan; per-device coefficients enter
        # as (rows, 1) columns.
        coeffs = coeffs[devices]
        out = _rows(plan.dut_in, stimuli).scale(coeffs[:, 0:1])
        if terms[0]:
            out = out + _rows(plan.dut_in_sq, stimuli).scale(coeffs[:, 1][:, None])
        if terms[1]:
            out = out + _rows(plan.dut_in_cube, stimuli).scale(coeffs[:, 2][:, None])
        return out

    def _random_lo2(self, gens: RngList, n: int) -> EnvelopeSignal:
        """Second LO at one random path phase per row, drawn from ``gens``."""
        cfg = self.config
        if any(g is None for g in gens):
            raise ValueError("random_path_phase requires an rng")
        phases = np.array(
            [cfg.path_phase_rad + g.uniform(0.0, 2.0 * np.pi) for g in gens]
        )
        return EnvelopeSignal.sine_carrier(
            n,
            cfg.engine_rate,
            cfg.carrier_freq,
            amplitude=cfg.carrier_amplitude,
            phase=phases[:, None],
            offset_hz=cfg.lo_offset_hz,
        )

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
        stimulus: Stimulus,
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
        own :meth:`signature_batch`.  The rows run in blocks up to the
        LPF and come back as one matrix, so crosstalk sees whole
        insertions.
        """
        devices = list(devices)
        gens = resolve_rng_streams(rngs, len(devices))
        return self._capture(devices, stimulus, gens, "filter"), gens

    def _envelope_bandwidth_batch(
        self, dut_out: EnvelopeSignal, devices: Sequence[RFDevice]
    ) -> EnvelopeSignal:
        """DUT envelope dynamics: a finite modulation bandwidth low-passes
        the carrier-band envelope (tuned coupling only -- a wideband DUT
        with memory is outside this model's scope)."""
        cfg = self.config
        bws = [d.envelope_bandwidth for d in devices]
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
    # the compiled, row-blocked back half
    # ------------------------------------------------------------------
    def _compiled_program(
        self, plan: CapturePlan, rf_keys: tuple
    ) -> CompiledCaptureProgram:
        """The (board-cached) compiled mixer-2 program for this rf shape."""
        cfg = self.config
        # the folded LO depends on the plan only through its length
        key = (rf_keys, plan.n)
        with self._cache_lock:
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
            with self._cache_lock:
                winner = self._programs.get(key)
                if winner is not None:
                    return winner
                self._programs[key] = program
                self._enforce_plan_cache_bytes()
        return program

    def _dut_block(
        self,
        plan: CapturePlan,
        coeffs: np.ndarray,
        terms: Tuple[bool, bool],
        start: int,
        stop: int,
        lot: Optional[GainLot],
    ) -> EnvelopeSignal:
        """DUT outputs of rows ``start:stop`` of the ``(stimulus, device)`` grid."""
        n_dev = len(coeffs)
        first = start // n_dev if n_dev else 0
        if stop == start or (stop - 1) // n_dev == first:
            # inside one stimulus: its drive and knots are views
            lo = start - first * n_dev
            devices = slice(lo, lo + stop - start)
            return self._dut_rows(plan, coeffs, terms, devices, first, lot)
        rows = np.arange(start, stop)
        return self._dut_rows(plan, coeffs, terms, rows % n_dev, rows // n_dev, lot)

    def _capture_rows(
        self,
        plan: CapturePlan,
        devices: Sequence[RFDevice],
        gens: RngList,
        stop: str,
        n_bins: Optional[int] = None,
    ) -> np.ndarray:
        """The device-dependent back half over every ``(stimulus, device)`` row.

        Row ``s * N + i`` pairs the plan's stimulus ``s`` with
        ``devices[i]`` (and its generator ``gens[i]``).  Rows run in blocks of :func:`block_rows`
        through the DUT response, envelope bandwidth, output loss,
        device noise, path phase, compiled mixer-2 tape, LPF and -- up
        to ``stop`` (``"filter"``, ``"digitize"`` or ``"fft"``) -- the
        digitizer and FFT magnitude, each block written into one
        preallocated result.  Every stage is elementwise along rows and
        each row draws from its own generator in the one-device order
        (device noise, path phase, digitizer noise), so the result
        equals the whole-batch reference bit for bit.  Lot-wide work
        runs once, before the blocks: the device-noise sigmas
        (:func:`device_noise_sigmas`) and whether any device has
        envelope dynamics; device noise then lands in place on each
        block's own DUT output.
        """
        cfg = self.config
        n_dev = len(devices)
        n_rows = len(plan) * n_dev
        coeffs = envelope_coefficients(devices)
        # each saturating (device, amplitude) cell of a stimulus cubes its
        # grid's shared abscissae: one table per stimulus, built when the
        # stimulus-major rows reach it and dropped when they leave it
        lot = None if plan.gains is None else plan.gains.lot(coeffs)
        terms = _wideband_terms(coeffs)
        if cfg.random_path_phase and any(g is None for g in gens):
            raise ValueError("random_path_phase requires an rng")
        # lot-wide work, done once: the device-noise sigmas and whether
        # any device has envelope dynamics (tuned coupling only)
        sigmas = None
        if cfg.include_device_noise and any(g is not None for g in gens):
            sigmas = device_noise_sigmas(devices, gens, cfg.engine_rate)
        dynamics = cfg.dut_coupling == "tuned" and any(
            d.envelope_bandwidth is not None for d in devices
        )
        n = plan.n
        program: Optional[CompiledCaptureProgram] = None
        out: Optional[np.ndarray] = None
        for start, end in _row_blocks(len(plan), n_dev, block_rows(n)):
            # one stimulus: row r is device r, so a block is a slice
            rows = slice(start, end) if len(plan) == 1 else np.arange(start, end) % n_dev
            row_gens = _take(gens, rows)
            dut_out = self._dut_block(plan, coeffs, terms, start, end, lot)
            if dynamics:
                dut_out = self._envelope_bandwidth_batch(dut_out, _take(devices, rows))
            if cfg.output_loss_db > 0.0:
                dut_out = dut_out.scale(undb20(-cfg.output_loss_db))
            rf_arrays = dict(dut_out.envelopes)
            if sigmas is not None:
                # harmonic 1 is this block's own fresh array: noise goes
                # in place (a missing harmonic joins as zeros)
                env = rf_arrays.get(1)
                if env is None or not env.flags.owndata:
                    env = np.array(dut_out.harmonic(1), dtype=complex)
                rf_arrays[1] = env
                row_sigmas = sigmas[rows]
                drawn = _noisy_rows(row_sigmas)
                if len(drawn):
                    _add_noise_rows(env, row_sigmas, row_gens, drawn)
            if program is None:
                program = self._compiled_program(plan, tuple(rf_arrays))
            lo = None
            if cfg.random_path_phase:
                lo = {1: np.asarray(self._random_lo2(row_gens, n).envelopes[1])}
            block = program.execute(rf_arrays, lo)
            block = self._lpf.apply_fft_matrix(block)
            if stop != "filter":
                block = self.digitize_matrix(block, row_gens)
                if stop == "fft":
                    block = fft_magnitude_signature_matrix(block, n_bins)
            if out is None:
                out = np.empty((n_rows,) + block.shape[1:])
            out[start:end] = block
        return out

    def _capture(
        self,
        devices: List[RFDevice],
        stimulus: Stimulus,
        gens: RngList,
        stop: str,
        n_bins: Optional[int] = None,
    ) -> np.ndarray:
        """One stimulus through the cached plan and the row-blocked back half."""
        plan = self.capture_plan(stimulus)
        return self._capture_rows(plan, devices, gens, stop, n_bins)

    # ------------------------------------------------------------------
    # the full path and its signatures (Figure 3: FFT magnitude)
    # ------------------------------------------------------------------
    def _capture_matrix(
        self, devices: List[RFDevice], stimulus: Stimulus, gens: RngList
    ) -> np.ndarray:
        """The lot's digitized records through the row-blocked back half."""
        return self._capture(devices, stimulus, gens, "digitize")

    def signature_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Stimulus,
        *,
        rngs: Optional[RngList] = None,
        n_bins: Optional[int] = None,
    ) -> np.ndarray:
        """FFT-magnitude signatures for a device batch, shape ``(batch, m)``.

        The base contract, with the FFT fused into each row block: row
        ``i`` is bit-identical (``np.array_equal``) to
        ``signature(devices[i], stimulus, rngs[i], ...)``, and an empty
        lot yields ``(0, m)``.
        """
        devices = list(devices)
        gens = resolve_rng_streams(rngs, len(devices))
        return self._capture(devices, stimulus, gens, "fft", n_bins)

    def signature_grid(
        self,
        devices: Sequence[RFDevice],
        stimuli: Sequence[Stimulus],
        n_bins: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Noise-free signatures of every device under every stimulus.

        Returns ``(grid, peaks)``.  ``grid`` has shape ``(S, N, m)``:
        slice ``s`` equals ``signature_batch(devices, stimuli[s],
        n_bins=n_bins)`` bit for bit.  ``peaks[s]`` equals
        ``peak_drive(stimuli[s])``, the numerator of every
        :func:`overdrive_ratios` under that stimulus.  The plans come
        from one plan stack (:meth:`_build_plans`) and all ``S * N`` rows share
        one row-blocked back half -- one capture per GA generation
        instead of one per gene.  Without noise a row depends on its
        device only through the envelope polynomial and
        ``envelope_bandwidth``, so each distinct pair is captured once
        and its rows are scattered to every device that has it.
        """
        devices = list(devices)
        if not len(stimuli):
            raise ValueError("signature_grid needs at least one stimulus")
        plan = self._build_plans([self._stimulus_record(s) for s in stimuli])
        first, rows = _distinct_devices(devices)
        distinct = [devices[i] for i in first]
        sigs = self._capture_rows(
            plan, distinct, [None] * len(distinct), "fft", n_bins
        )
        grid = sigs.reshape(len(plan), len(distinct), sigs.shape[-1])
        return grid[:, rows], plan.peaks.copy()

    def time_signature(
        self,
        device: RFDevice,
        stimulus: Stimulus,
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
