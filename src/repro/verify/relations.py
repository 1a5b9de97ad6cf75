"""The relation library: the paper's invariants as executable checks.

Each relation quantifies over a sampled configuration space (device
specs, stimulus shapes, board settings) and checks one structural
invariant of the reproduction:

==============================  ========================================
relation                        invariant
==============================  ========================================
signature-lo2-phase-invariance  Eq. 5: offset-LO FFT-magnitude
                                signatures are path-phase independent
capture-batch-equivalence       batched capture == per-device capture,
                                bit for bit, on the board, BIST and ABM
                                paths
compiled-capture-equivalence    compiled whole-lot program == reference
                                envelope algebra bit for bit
executor-equivalence            ``measure_signatures`` is bit-identical
                                across executor backends and chunkings
envelope-gain-linearity         a linear DUT's signature scales with its
                                small-signal gain
attenuation-monotonicity        output fixture loss monotonically
                                attenuates the signature
db-linear-roundtrip             ``repro.dsp.units`` conversions invert
noise-determinism               seeded noise replays bit-identically
spec-permutation-stability      Eqs. 6-10: spec predictions are stable
                                under signature column permutation
streaming-offline-equivalence   streamed service records ==
                                ``ProductionTestFlow.run``, bit for bit
lot-columns-equivalence         a lot's on-demand records == the
                                per-row record build, field by field
multisite-serial-equivalence    a zero-crosstalk N-site capture ==
                                N independent single-site captures, bit
                                for bit, on every executor
bist-calibration-predicts       ridge calibration predicts gain through
                                the coarse on-die BIST path to the
                                declared tolerance
predict-batch-invariance        every model family predicts each row
                                bit-identically whatever batch it is
                                predicted in
calibration-sharing-            the model-zoo calibration with its fit
equivalence                     memos == every fit on its own, bit for
                                bit
describing-gain-batch-          the batched tuned-DUT gain equals one
equivalence                     describing function + ``np.interp`` per
                                device, bit for bit
ga-generation-batch-            one GA generation's batched fitness
equivalence                     (one capture for every gene) equals the
                                per-gene capture loop, bit for bit
seed-derivation-equivalence     every derived per-device generator
                                draws like ``np.random.default_rng`` of
                                ``SeedSequence.spawn``'s child
==============================  ========================================

Tolerances are calibrated, not guessed: each non-exact bound sits an
order of magnitude above the invariant's measured residual (mixer
harmonics make the path only *approximately* linear in the DUT output)
and an order of magnitude below the deviation a real bug produces (the
Eq. 4 phase-sensitive regime deviates by tens of percent where the
legitimate Eq. 5 path stays under a few percent).

Every relation draws all its randomness from the harness-provided
``rng`` (see the ``verify-relation-seeded`` lint rule), so campaigns
replay exactly from the master seed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.device import RFDevice, SpecSet
from repro.circuits.parameters import ParameterSpace, ProcessParameter
from repro.circuits.parasitics import SwitchParasitics
from repro.circuits.nonlinear import (
    DESCRIBING_TABLE_POINTS,
    DescribingGainStack,
    PolynomialNonlinearity,
    describing_gain_batch,
    poly_from_specs,
    saturation_amplitudes,
)
from repro.dsp.units import db, db20, dbm_to_watts, undb, undb20, watts_to_dbm
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.loadboard.scenario_paths import (
    AbmAccessPath,
    AbmPathConfig,
    BistPathConfig,
    BistSignaturePath,
)
from repro.loadboard.capture_compiler import block_rows
from repro.loadboard.signature_path import (
    SignaturePathConfig,
    SignatureTestBoard,
    _distinct_devices,
    envelope_coefficients,
    overdrive_ratios,
)
from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig
from repro.regression.linear import RidgeRegression
from repro.regression.mars import MARSRegressor
from repro.regression.metrics import rmse
from repro.regression.model_select import kfold_indices
from repro.regression.pca import PCA
from repro.regression.pipeline import Pipeline
from repro.regression.scaling import StandardScaler
from repro.runtime.calibration import (
    CalibrationModel,
    CalibrationSession,
    default_candidates,
    measure_signatures,
)
from repro.runtime.executor import SeedBlock, SerialExecutor, spawn_seeds
from repro.runtime.production import DeviceTestRecord, ProductionTestFlow
from repro.runtime.service import StreamingTestService
from repro.runtime.specs import lna_limits
from repro.testgen.objective import signature_test_objective
from repro.testgen.optimizer import SignatureStimulusOptimizer
from repro.testgen.pwl import StimulusEncoding
from repro.testgen.sensitivity import star_jacobian
from repro.verify.harness import (
    booleans,
    check,
    check_allclose,
    check_array_equal,
    choice,
    floats,
    integers,
    log_floats,
    relation,
    stratum,
)
from repro.verify.reference import DescribingGains, reference_signature_batch

__all__: list = []  # relations register by import; nothing to re-export

#: measured legit phase deviation is 3 %% median / 7 %% worst rel-L2
#: (DC-overlap of the offset image tails plus noise); the Eq. 4 bug
#: regime sits at tens of percent -- 0.15 splits the two populations wide
PHASE_TOL = 0.15
#: measured gain-linearity residual is 1e-4..1.3e-3 (mixer-2 RF harmonics)
LINEARITY_TOL = 1e-2
#: measured attenuation-scaling residual is ~5e-4
ATTENUATION_SCALE_TOL = 2e-2
#: worst gain RMSE of a 32-train/16-val BIST ridge calibration measured
#: over 20 seeded trials is 2.10 dB; a broken path (signatures carrying
#: no device information) degrades to the mean predictor at ~2.9 dB
BIST_GAIN_RMSE_TOL_DB = 2.75
#: the same populations as a skill ratio (RMSE over the mean-predictor
#: RMSE): legit worst 0.63, broken best 1.03 -- 0.85 splits them wide
BIST_GAIN_SKILL_TOL = 0.85

_CARRIER = 900e6
_CAPTURE_SECONDS = 64e-6


def _fast_config(**overrides) -> SignaturePathConfig:
    """A scaled-down signature path: full physics, 128-sample captures.

    Same topology as :func:`~repro.loadboard.signature_path.simulation_config`
    (tuned LNA, 5th-order LPF, gaussian digitizer noise) with the rates
    shrunk so one capture costs a few hundred envelope samples -- cheap
    enough for hundreds of sampled cases per campaign.
    """
    base = dict(
        carrier_freq=_CARRIER,
        carrier_power_dbm=10.0,
        lpf_cutoff_hz=0.45e6,
        lpf_order=5,
        digitizer_rate=2e6,
        digitizer_noise_vrms=1e-3,
        capture_seconds=_CAPTURE_SECONDS,
        envelope_oversample=2,
        dut_coupling="tuned",
    )
    base.update(overrides)
    return SignaturePathConfig(**base)


def _stimulus(
    rng: np.random.Generator, n_breakpoints: int, drive: float = 0.8
) -> PiecewiseLinearStimulus:
    """A random PWL stimulus spanning the capture window.

    ``drive`` bounds the breakpoint voltages.  The linearity relations
    pass a small value: the mixer-2 RF harmonics grow quadratically with
    the DUT output, so "the path is linear in the DUT" only holds in the
    small-signal regime the claim is actually about.
    """
    levels = rng.uniform(-drive, drive, size=n_breakpoints)
    return PiecewiseLinearStimulus(levels, duration=_CAPTURE_SECONDS)


def _amplifier(gain_db: float, nf_db: float, iip3_dbm: float) -> BehavioralAmplifier:
    return BehavioralAmplifier(
        center_frequency=_CARRIER, gain_db=gain_db, nf_db=nf_db, iip3_dbm=iip3_dbm
    )


def _sample_lot(rng: np.random.Generator, n: int) -> list:
    """``n`` devices with random spec spread around a nominal LNA."""
    return [
        _amplifier(
            gain_db=float(rng.uniform(8.0, 18.0)),
            nf_db=float(rng.uniform(0.5, 3.5)),
            iip3_dbm=float(rng.uniform(-12.0, -2.0)),
        )
        for _ in range(n)
    ]


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2 deviation ``||a - b|| / ||b||`` (sanitizer-safe)."""
    denom = float(np.linalg.norm(b))
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) / max(denom, 1e-30)


class _LinearDevice(RFDevice):
    """A perfectly linear DUT (``y = a1 x``) for linearity relations.

    :class:`BehavioralAmplifier` always carries the cubic term its IIP3
    implies; gain-linearity and attenuation metamorphics need a device
    whose only parameter is its small-signal gain.
    """

    def __init__(self, gain_db: float):
        self.center_frequency = _CARRIER
        self._gain_db = float(gain_db)
        self._a1 = float(undb20(gain_db))

    def specs(self) -> SpecSet:
        return SpecSet(gain_db=self._gain_db, nf_db=0.0, iip3_dbm=100.0)

    def envelope_poly(self) -> Tuple[float, float, float]:
        return (self._a1, 0.0, 0.0)

    def process_rf(
        self, wf: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        return Waveform(self._a1 * wf.samples, wf.sample_rate, wf.t0)


# ----------------------------------------------------------------------
# Eq. 5: offset-LO FFT-magnitude phase invariance
# ----------------------------------------------------------------------
@relation(
    "signature-lo2-phase-invariance",
    params={
        "gain_db": floats(8.0, 18.0, origin=12.0),
        "nf_db": floats(0.5, 3.5, origin=2.0),
        "iip3_dbm": floats(-12.0, -2.0, origin=-5.0),
        "path_phase_rad": floats(0.0, 2.0 * np.pi, origin=np.pi / 2.0),
        "offset_cycles": integers(36, 52, origin=44),
        "n_breakpoints": integers(3, 5, origin=3),
    },
    equation="Eq. 5",
)
def _rel_phase_invariance(case, rng):
    """Offset-LO FFT-magnitude signatures do not depend on the path phase.

    Equation 4 shows the same-LO signature scales by ``cos(phi)`` and
    nulls at quarter-wave mismatch; Equation 5's offset-LO + FFT
    magnitude removes that dependence.  We capture the same device at
    path phase 0, at a sampled fixed phase, and through the
    random-phase-per-insertion path (the hardware prototype's regime),
    and require all three signatures to agree within :data:`PHASE_TOL`.

    The invariance holds where the paper applies it: the LO offset is an
    integer number of cycles per capture and sits well above the
    stimulus baseband bandwidth, so the ``+offset`` and ``-offset``
    spectral images of the real record do not overlap (where the image
    *tails* do meet, near DC, they interfere phase-dependently -- that
    residual is what :data:`PHASE_TOL` budgets for).
    """
    device = _amplifier(case["gain_db"], case["nf_db"], case["iip3_dbm"])
    stimulus = _stimulus(rng, case["n_breakpoints"])
    offset = case["offset_cycles"] / _CAPTURE_SECONDS
    lpf = 0.9e6  # open the LPF so the offset-modulated tone passes

    ref_board = SignatureTestBoard(
        _fast_config(lo_offset_hz=offset, lpf_cutoff_hz=lpf, path_phase_rad=0.0)
    )
    reference = ref_board.signature(device, stimulus, rng=None)

    shifted_board = SignatureTestBoard(
        _fast_config(
            lo_offset_hz=offset,
            lpf_cutoff_hz=lpf,
            path_phase_rad=case["path_phase_rad"],
        )
    )
    shifted = shifted_board.signature(device, stimulus, rng=None)
    deviation = _rel_l2(shifted, reference)
    check(
        deviation <= PHASE_TOL,
        f"fixed path phase {case['path_phase_rad']:.3f} rad moved the "
        f"FFT-magnitude signature by {deviation:.1%} rel-L2 "
        f"(tolerance {PHASE_TOL:.0%}): Eq. 5 phase invariance is broken",
    )

    random_board = SignatureTestBoard(
        _fast_config(
            lo_offset_hz=offset,
            lpf_cutoff_hz=lpf,
            path_phase_rad=case["path_phase_rad"],
            random_path_phase=True,
        )
    )
    randomized = random_board.signature(device, stimulus, rng=rng)
    deviation = _rel_l2(randomized, reference)
    check(
        deviation <= PHASE_TOL,
        f"random-per-insertion path phase moved the FFT-magnitude "
        f"signature by {deviation:.1%} rel-L2 (tolerance {PHASE_TOL:.0%})",
    )


# ----------------------------------------------------------------------
# batched capture == per-device capture
# ----------------------------------------------------------------------
@relation(
    "capture-batch-equivalence",
    params={
        "path": choice("board", "bist", "abm"),
        "n_devices": integers(1, 5, origin=1),
        "dut_coupling": choice("tuned", "wideband"),
        "digitizer_bits": choice(None, 12, 8),
        "random_path_phase": booleans(),
        "input_loss_db": floats(0.0, 2.0, origin=0.0),
        "output_loss_db": floats(0.0, 3.0, origin=0.0),
        "lo_offset_hz": choice(0.0, 100e3),
        "n_breakpoints": integers(3, 7, origin=3),
    },
    equation="reproduction contract (CapturePlan batching)",
)
def _rel_capture_batch_equivalence(case, rng):
    """``capture_batch``/``signature_batch`` equal the per-device path bit for bit.

    With one RNG stream per device, row ``i`` of a batched capture must
    be ``np.array_equal`` to capturing device ``i`` alone -- its one-row
    batch -- with the same stream, on every path that shares the
    :class:`~repro.loadboard.signature_path.SignaturePath` surface: the
    load board (across couplings, quantizers, fixture losses and the
    random-path-phase regime), the on-die BIST path (its quantizer) and
    the ABM access path (the board's regimes behind an in-band AT-bus
    pole).  The multi-site board is checked by
    ``multisite-serial-equivalence``: a lone device sits on site 0.
    """
    stratum(f"{case['path']} path")
    if case["path"] == "bist":
        board = BistSignaturePath(
            BistPathConfig(
                adc_bits=case["digitizer_bits"],
                adc_rate=2e6,
                envelope_oversample=2,
                detector_bandwidth_hz=0.8e6,
                capture_seconds=_CAPTURE_SECONDS,
            )
        )
    else:
        config = _fast_config(
            dut_coupling=case["dut_coupling"],
            digitizer_bits=case["digitizer_bits"],
            random_path_phase=case["random_path_phase"],
            input_loss_db=case["input_loss_db"],
            output_loss_db=case["output_loss_db"],
            lo_offset_hz=case["lo_offset_hz"],
        )
        board = SignatureTestBoard(config)
        if case["path"] == "abm":
            # a 2 nF node puts the AT-bus pole (~0.8 MHz) inside the
            # 2 MHz engine Nyquist band, so the pole filters the record
            board = AbmAccessPath(
                AbmPathConfig(
                    config, SwitchParasitics(r_on_ohm=50.0, c_node_farads=2e-9)
                )
            )
    devices = _sample_lot(rng, case["n_devices"])
    stimulus = _stimulus(rng, case["n_breakpoints"])
    seeds = spawn_seeds(rng, len(devices))

    batch_records = board.capture_batch(
        devices, stimulus, rngs=seeds.generators()
    )
    batch_sigs = board.signature_batch(
        devices, stimulus, rngs=seeds.generators()
    )
    for i, (device, seed) in enumerate(zip(devices, seeds)):
        solo_record = board.capture(device, stimulus, np.random.default_rng(seed))
        check_array_equal(
            batch_records[i].samples,
            solo_record.samples,
            label=f"capture_batch row {i}",
        )
        solo_sig = board.signature(device, stimulus, np.random.default_rng(seed))
        check_array_equal(batch_sigs[i], solo_sig, label=f"signature_batch row {i}")


# ----------------------------------------------------------------------
# the compiled whole-lot capture program
# ----------------------------------------------------------------------
@relation(
    "compiled-capture-equivalence",
    params={
        "n_devices": integers(1, 5, origin=1),
        "dut_coupling": choice("tuned", "wideband"),
        "digitizer_bits": choice(None, 12),
        "random_path_phase": booleans(),
        "lo_offset_hz": choice(0.0, 100e3),
        "n_breakpoints": integers(3, 7, origin=3),
        "backend": choice("serial", "thread:2"),
        "chunksize": integers(1, 3, origin=1),
        "lot": choice("plain", "mixed generators", "odd lot of long records"),
    },
    equation="reproduction contract (compiled capture program)",
)
def _rel_compiled_capture_equivalence(case, rng):
    """The compiled program equals the reference algebra bit for bit.

    ``signature_batch`` must be ``np.array_equal`` to the uncompiled
    oracle (``reference_signature_batch``) -- directly, through
    ``measure_signatures`` on every backend/chunking, and on the empty
    lot.  Two kinds of lot stress the row blocks' lot-wide work: one
    whose generators mix ``None`` and seeded rows (noise sigmas and
    digitizer noise per row), and an odd lot of records long enough
    for two rows per block, whose last block is a single row.
    """
    long_records = case["lot"] == "odd lot of long records"
    board = SignatureTestBoard(
        _fast_config(
            dut_coupling=case["dut_coupling"],
            digitizer_bits=case["digitizer_bits"],
            random_path_phase=case["random_path_phase"],
            lo_offset_hz=case["lo_offset_hz"],
            # 8,192 engine samples: two rows per block
            capture_seconds=32 * _CAPTURE_SECONDS if long_records else _CAPTURE_SECONDS,
        )
    )
    n_devices = 2 * case["n_devices"] - 1 if long_records else case["n_devices"]
    devices = _sample_lot(rng, n_devices)
    stimulus = _stimulus(rng, case["n_breakpoints"])
    seeds = spawn_seeds(rng, len(devices))
    quiet = np.zeros(n_devices, dtype=bool)
    # a random path phase draws from every row's generator, so such a
    # lot cannot mix in rows without one
    if case["lot"] == "mixed generators" and not case["random_path_phase"] and n_devices > 1:
        quiet[rng.permutation(n_devices)[: int(rng.integers(1, n_devices))]] = True
        stratum("generators mix None and seeded rows")
    rows = block_rows(board.capture_plan(stimulus).n)
    if n_devices > rows and n_devices % rows == 1:
        stratum("last block is a single row")

    def generators():
        return [None if q else g for q, g in zip(quiet, seeds.generators())]

    reference = reference_signature_batch(board, devices, stimulus, rngs=generators())
    compiled = board.signature_batch(devices, stimulus, rngs=generators())
    check_array_equal(compiled, reference, label="compiled program")

    empty = board.signature_batch([], stimulus, rngs=[])
    check(
        empty.shape == (0, reference.shape[1]),
        f"compiled empty lot shape {empty.shape} != (0, {reference.shape[1]})",
    )

    master = int(rng.integers(0, 2**63))
    # measure_signatures spawns per-device streams from the master
    # exactly like the oracle's ``rng`` argument
    measured_ref = reference_signature_batch(
        board, devices, stimulus, np.random.default_rng(master)
    )
    measured_compiled = measure_signatures(
        board,
        stimulus,
        devices,
        np.random.default_rng(master),
        executor=case["backend"],
        chunksize=case["chunksize"],
    )
    check_array_equal(
        measured_compiled,
        measured_ref,
        label=f"compiled via {case['backend']} chunksize={case['chunksize']}",
    )


# ----------------------------------------------------------------------
# measure_signatures across executor backends
# ----------------------------------------------------------------------
@relation(
    "executor-equivalence",
    params={
        "n_devices": integers(2, 6, origin=2),
        "chunksize": integers(1, 3, origin=1),
        "digitizer_bits": choice(None, 12),
        "n_breakpoints": integers(3, 6, origin=3),
    },
    equation="reproduction contract (executor determinism)",
)
def _rel_executor_equivalence(case, rng):
    """``measure_signatures`` is bit-identical for any backend and chunking.

    The serial whole-lot run is the reference; a 2-worker thread pool
    and a deliberately mis-chunked serial run must reproduce it exactly
    (the :func:`~repro.runtime.executor.spawn_seeds` contract).
    """
    board = SignatureTestBoard(_fast_config(digitizer_bits=case["digitizer_bits"]))
    devices = _sample_lot(rng, case["n_devices"])
    stimulus = _stimulus(rng, case["n_breakpoints"])
    master = int(rng.integers(0, 2**63))

    reference = measure_signatures(
        board, stimulus, devices, np.random.default_rng(master)
    )
    threaded = measure_signatures(
        board,
        stimulus,
        devices,
        np.random.default_rng(master),
        executor="thread:2",
        chunksize=case["chunksize"],
    )
    check_array_equal(threaded, reference, label="thread:2 backend")
    chunked = measure_signatures(
        board,
        stimulus,
        devices,
        np.random.default_rng(master),
        executor=SerialExecutor(),
        chunksize=case["chunksize"],
    )
    check_array_equal(
        chunked, reference, label=f"serial chunksize={case['chunksize']}"
    )


# ----------------------------------------------------------------------
# envelope-engine linearity
# ----------------------------------------------------------------------
@relation(
    "envelope-gain-linearity",
    params={
        "gain_db": floats(0.0, 20.0, origin=0.0),
        "scale": floats(1.05, 4.0, origin=1.05),
        "dut_coupling": choice("tuned", "wideband"),
        "n_breakpoints": integers(3, 7, origin=3),
    },
    equation="Eq. 1-3 (small-signal limit)",
)
def _rel_gain_linearity(case, rng):
    """Scaling a linear DUT's gain scales its noise-free signature.

    For ``y = a1 x``, signatures must satisfy ``sig(c * a1) = c *
    sig(a1)`` up to the mixer-2 RF harmonics (measured residual
    1e-4..1.3e-3; tolerance :data:`LINEARITY_TOL`).
    """
    board = SignatureTestBoard(_fast_config(dut_coupling=case["dut_coupling"]))
    stimulus = _stimulus(rng, case["n_breakpoints"], drive=0.05)
    scale = case["scale"]

    base = board.signature(_LinearDevice(case["gain_db"]), stimulus, rng=None)
    scaled_gain_db = case["gain_db"] + float(db20(scale))
    scaled = board.signature(_LinearDevice(scaled_gain_db), stimulus, rng=None)
    deviation = _rel_l2(scaled, scale * base)
    check(
        deviation <= LINEARITY_TOL,
        f"scaling a linear DUT's gain by {scale:.3f} changed the signature "
        f"nonlinearly ({deviation:.2e} rel-L2, tolerance {LINEARITY_TOL:g})",
    )


# ----------------------------------------------------------------------
# fixture-loss monotonicity
# ----------------------------------------------------------------------
@relation(
    "attenuation-monotonicity",
    params={
        "gain_db": floats(5.0, 18.0, origin=5.0),
        "loss_step_db": floats(0.5, 3.0, origin=0.5),
        "n_steps": integers(3, 5, origin=3),
        "n_breakpoints": integers(3, 6, origin=3),
    },
    equation="Eq. 1-3 (output path scaling)",
)
def _rel_attenuation_monotonicity(case, rng):
    """Output fixture loss strictly attenuates the signature.

    The signature L2 norm must fall strictly with every extra dB of
    ``output_loss_db``, and track the ``undb20(-loss)`` amplitude factor
    within :data:`ATTENUATION_SCALE_TOL` for a linear DUT.
    """
    device = _LinearDevice(case["gain_db"])
    stimulus = _stimulus(rng, case["n_breakpoints"], drive=0.05)
    losses = [i * case["loss_step_db"] for i in range(case["n_steps"])]
    norms = []
    for loss in losses:
        board = SignatureTestBoard(_fast_config(output_loss_db=loss))
        norms.append(
            float(np.linalg.norm(board.signature(device, stimulus, rng=None)))
        )
    for i in range(1, len(norms)):
        check(
            norms[i] < norms[i - 1],
            f"signature norm did not fall when output loss rose from "
            f"{losses[i - 1]:.2f} to {losses[i]:.2f} dB "
            f"({norms[i - 1]:.4e} -> {norms[i]:.4e})",
        )
        expected = float(undb20(-losses[i])) * norms[0]
        err = abs(norms[i] - expected) / max(expected, 1e-30)
        check(
            err <= ATTENUATION_SCALE_TOL,
            f"{losses[i]:.2f} dB output loss scaled the signature norm by "
            f"{norms[i] / max(norms[0], 1e-30):.5f} instead of "
            f"{expected / max(norms[0], 1e-30):.5f} "
            f"({err:.2e} relative, tolerance {ATTENUATION_SCALE_TOL:g})",
        )


# ----------------------------------------------------------------------
# dB / linear unit round trips
# ----------------------------------------------------------------------
@relation(
    "db-linear-roundtrip",
    params={
        "size": integers(1, 64, origin=1),
        "decades": floats(1.0, 6.0, origin=1.0),
    },
    equation="Eqs. 6-10 (log-domain spec arithmetic)",
)
def _rel_db_roundtrip(case, rng):
    """``repro.dsp.units`` conversions invert and agree across domains."""
    span = case["decades"] * np.log(10.0)
    x = np.exp(rng.uniform(-span, span, size=case["size"]))

    check_allclose(undb(db(x)), x, rtol=1e-12, label="undb(db(x))")
    check_allclose(undb20(db20(x)), x, rtol=1e-12, label="undb20(db20(x))")
    check_allclose(
        dbm_to_watts(watts_to_dbm(x)), x, rtol=1e-12, label="dbm->watts roundtrip"
    )
    # the amplitude and power scales must agree: 20 log10 x == 10 log10 x^2
    check_allclose(db20(x), db(x * x), rtol=1e-12, atol=1e-9, label="db20 vs db")
    # scalar paths share the array semantics
    scalar = float(x[0])
    check(
        abs(undb(db(scalar)) - scalar) <= 1e-12 * scalar,
        f"scalar undb(db({scalar!r})) does not round-trip",
    )
    check(
        watts_to_dbm(0.0) == -np.inf,
        "watts_to_dbm(0) must be -inf (an empty bin has no power)",
    )


# ----------------------------------------------------------------------
# seeded-noise determinism
# ----------------------------------------------------------------------
@relation(
    "noise-determinism",
    params={
        "n_devices": integers(1, 3, origin=1),
        "digitizer_bits": choice(None, 12, 8),
        "random_path_phase": booleans(),
        "n_breakpoints": integers(3, 6, origin=3),
    },
    equation="reproduction contract (seeded replay)",
)
def _rel_noise_determinism(case, rng):
    """Identical seeds replay identical signatures; noise is really there.

    The same master seed must reproduce a noisy lot bit for bit, the
    noise-free path must be deterministic without any seed, and a seeded
    capture must actually differ from the noise-free one (the digitizer
    noise is not silently dropped).
    """
    board = SignatureTestBoard(
        _fast_config(
            digitizer_bits=case["digitizer_bits"],
            random_path_phase=case["random_path_phase"],
        )
    )
    devices = _sample_lot(rng, case["n_devices"])
    stimulus = _stimulus(rng, case["n_breakpoints"])
    master = int(rng.integers(0, 2**63))

    first = board.signature_batch(devices, stimulus, rng=np.random.default_rng(master))
    second = board.signature_batch(devices, stimulus, rng=np.random.default_rng(master))
    check_array_equal(second, first, label="same-seed replay")

    if not case["random_path_phase"]:  # the random-phase path requires an rng
        clean_a = board.signature_batch(devices, stimulus, rng=None)
        clean_b = board.signature_batch(devices, stimulus, rng=None)
        check_array_equal(clean_b, clean_a, label="noise-free determinism")
        check(
            not np.array_equal(first, clean_a),
            "a seeded capture equals the noise-free capture: measurement "
            "noise was silently dropped",
        )


# ----------------------------------------------------------------------
# spec-prediction stability under column permutation
# ----------------------------------------------------------------------
@relation(
    "spec-permutation-stability",
    params={
        "n_train": integers(12, 30, origin=12),
        "n_features": integers(6, 24, origin=6),
        "n_val": integers(3, 8, origin=3),
        "alpha": log_floats(1e-3, 10.0, origin=1e-3),
    },
    equation="Eqs. 6-10",
)
def _rel_spec_permutation_stability(case, rng):
    """Spec predictions do not depend on signature column order.

    FFT-bin ordering is an artifact of the capture, not of the device:
    training the standardize+ridge calibration pipeline on permuted
    signature columns and predicting permuted validation signatures must
    reproduce the unpermuted predictions.
    """
    m = case["n_features"]
    x_train = rng.normal(size=(case["n_train"], m))
    weights = rng.normal(size=m)
    y_train = x_train @ weights + 0.01 * rng.normal(size=case["n_train"])
    x_val = rng.normal(size=(case["n_val"], m))
    perm = rng.permutation(m)

    plain = Pipeline([StandardScaler(), RidgeRegression(alpha=case["alpha"])])
    plain.fit(x_train, y_train)
    permuted = Pipeline([StandardScaler(), RidgeRegression(alpha=case["alpha"])])
    permuted.fit(x_train[:, perm], y_train)

    check_allclose(
        permuted.predict(x_val[:, perm]),
        plain.predict(x_val),
        rtol=1e-6,
        atol=1e-8,
        label="column-permuted spec predictions",
    )


# ----------------------------------------------------------------------
# streaming service == offline production flow
# ----------------------------------------------------------------------
def _ridge_flow(
    rng: np.random.Generator, stimulus: PiecewiseLinearStimulus, sites: int = 1
) -> ProductionTestFlow:
    """A calibrated flow on the fast path (plain ridge, no model zoo).

    With ``sites > 1`` it captures through a :class:`MultiSiteBoard`
    with 1% site-to-site crosstalk.
    """
    if sites > 1:
        board = MultiSiteBoard(
            _fast_config(), MultiSiteConfig(n_sites=sites, crosstalk_coupling=0.01)
        )
    else:
        board = SignatureTestBoard(_fast_config())
    train = _sample_lot(rng, 10)
    signatures = measure_signatures(
        board, stimulus, train, np.random.default_rng(int(rng.integers(0, 2**63)))
    )
    spec_matrix = np.vstack([d.specs().as_vector() for d in train])
    pipelines = {}
    for j, name in enumerate(SpecSet.NAMES):
        pipeline = Pipeline([StandardScaler(), RidgeRegression(alpha=1.0)])
        pipeline.fit(signatures, spec_matrix[:, j])
        pipelines[name] = pipeline
    calibration = CalibrationModel(
        spec_names=SpecSet.NAMES,
        pipelines=pipelines,
        chosen={name: "ridge_1" for name in SpecSet.NAMES},
        cv_scores={name: {"ridge_1": 0.0} for name in SpecSet.NAMES},
    )
    return ProductionTestFlow(board, stimulus, calibration, limits=lna_limits())


@relation(
    "streaming-offline-equivalence",
    params={
        "n_lots": integers(1, 8, origin=1),
        "max_lot_size": integers(0, 6, origin=0),
        "executor": choice("serial", "thread:2", "process:2"),
        "chunksize": choice(None, 1, 2, 3),
        "max_pending_lots": integers(1, 6, origin=1),
        "sites": choice(1, 4),
        "n_breakpoints": integers(3, 5, origin=3),
    },
    equation="reproduction contract (streaming service)",
)
def _rel_streaming_offline_equivalence(case, rng):
    """Streamed per-device records equal ``ProductionTestFlow.run`` bit for bit.

    The streaming service freezes per-device seed streams at submission
    time with the same ``spawn_seeds`` derivation the offline flow
    uses, so for the same master seed every streamed record -- raw
    signature, predicted specs, pass verdict, device and lot order,
    site -- must be ``np.array_equal`` to the offline lot, across
    backends, chunkings, queue bounds, and empty/single-device streams.
    Lots are submitted back to back, so several queue up and share one
    capture; their sizes (0 to ``max_lot_size``) are mostly not
    multiples of a 4-site board's insertion, whose crosstalk couples
    co-inserted devices.
    """
    stimulus = _stimulus(rng, case["n_breakpoints"])
    flow = _ridge_flow(rng, stimulus, sites=case["sites"])
    lots = [
        (
            _sample_lot(rng, int(rng.integers(0, case["max_lot_size"] + 1))),
            int(rng.integers(0, 2**63)),
        )
        for _ in range(case["n_lots"])
    ]

    with StreamingTestService(
        flow,
        executor=case["executor"],
        max_pending_lots=case["max_pending_lots"],
        chunksize=case["chunksize"],
    ) as service:
        for devices, seed in lots:
            service.submit(devices, np.random.default_rng(seed))
        service.close()
        streamed = list(service.records())

    by_lot = {lot_id: [] for lot_id in range(len(lots))}
    for stream_record in streamed:
        by_lot[stream_record.lot_id].append(stream_record)

    total = 0
    for lot_id, (devices, seed) in enumerate(lots):
        offline = flow.run(devices, np.random.default_rng(seed))
        records = by_lot[lot_id]
        check(
            len(records) == len(offline.records),
            f"lot {lot_id}: streamed {len(records)} records but the offline "
            f"flow produced {len(offline.records)} -- the service dropped or "
            "duplicated devices",
        )
        total += len(records)
        for stream_record, reference in zip(records, offline.records):
            record = stream_record.record
            check(
                record.device_id == reference.device_id,
                f"lot {lot_id}: streamed device_id {record.device_id} != "
                f"offline {reference.device_id} (order not preserved)",
            )
            check_array_equal(
                record.signature,
                reference.signature,
                label=f"lot {lot_id} device {reference.device_id} signature",
            )
            check_array_equal(
                record.predicted.as_vector(),
                reference.predicted.as_vector(),
                label=f"lot {lot_id} device {reference.device_id} predicted specs",
            )
            check(
                record.passed == reference.passed,
                f"lot {lot_id} device {reference.device_id}: streamed verdict "
                f"{record.passed} != offline {reference.passed}",
            )
            check(
                record.site_index == reference.site_index,
                f"lot {lot_id} device {reference.device_id}: streamed site "
                f"{record.site_index} != offline {reference.site_index}",
            )
    check(
        total == len(streamed),
        "service emitted records for lots that were never submitted",
    )


# ----------------------------------------------------------------------
# the columnar lot result == the per-row record build
# ----------------------------------------------------------------------
def _per_row_records(
    flow: ProductionTestFlow, devices: list, rng: np.random.Generator
) -> List[DeviceTestRecord]:
    """The lot's records built row by row from one whole-lot capture.

    The oracle of ``lot-columns-equivalence``: how the production flow
    built its records before a lot's result became columns -- one
    :class:`DeviceTestRecord` per row, with its own ``SpecSet``, a copy
    of its signature row and its site.
    """
    seeds = spawn_seeds(rng, len(devices))
    if not devices:
        return []
    board = flow.board
    signatures = board.signature_batch(
        devices, flow.stimulus, rngs=seeds.generators(), n_bins=flow.signature_bins
    )
    predicted = flow.calibration.predict_matrix(signatures)
    passed = [None] * len(devices)
    if flow.limits is not None:
        verdicts = flow.limits.check_matrix(predicted)
        passed = [bool(p) for p in verdicts & np.isfinite(signatures).all(axis=1)]
    if hasattr(board, "device_test_time"):
        test_time = board.device_test_time()
    else:
        test_time = board.config.total_test_time()
    site_of = getattr(board, "site_of", lambda position: 0)
    return [
        DeviceTestRecord(
            device_id=i,
            predicted=SpecSet.from_vector(predicted[i]),
            passed=passed[i],
            test_time=test_time,
            signature=signatures[i].copy(),
            site_index=site_of(i),
        )
        for i in range(len(devices))
    ]


@relation(
    "lot-columns-equivalence",
    params={
        "n_devices": integers(0, 9, origin=0),
        "executor": choice("serial", "thread:2", "process:2"),
        "chunksize": choice(None, 1, 3),
        "sites": choice(1, 4),
        "limits": booleans(),
        "nan_row": booleans(),
        "constant_model": booleans(),
        "n_breakpoints": integers(3, 5, origin=3),
    },
    equation="reproduction contract (columnar lot result)",
)
def _rel_lot_columns_equivalence(case, rng):
    """A lot's on-demand records equal the per-row record build, field by field.

    ``ProductionTestFlow.run`` keeps a lot as columns (signatures,
    predictions, verdicts, sites) and builds each
    :class:`DeviceTestRecord` only when it is read.  Every record --
    ``device_id``, ``signature``, ``predicted``, ``passed``,
    ``test_time``, ``site_index`` -- and the run's aggregates must equal
    :func:`_per_row_records` bit for bit, on serial, thread and process
    backends, any chunking, a 4-site crosstalk board, with and without
    limits, and for the empty lot.  A device with a NaN gain has a
    non-finite signature row: with limits set it must stay failed, also
    when every model is a constant that predicts passing specs from it.
    """
    stimulus = _stimulus(rng, case["n_breakpoints"])
    flow = _ridge_flow(rng, stimulus, sites=case["sites"])
    calibration = flow.calibration
    if case["constant_model"]:
        # hinge-free MARS fits of constant targets ignore the signature
        train = flow.board.signature_batch(
            _sample_lot(rng, 4), stimulus, rngs=spawn_seeds(rng, 4).generators()
        )
        nominal = {"gain_db": 16.0, "nf_db": 2.0, "iip3_dbm": 3.0}
        calibration = CalibrationModel(
            spec_names=SpecSet.NAMES,
            pipelines={
                name: Pipeline([MARSRegressor()]).fit(train, np.full(4, value))
                for name, value in nominal.items()
            },
            chosen={name: "mars" for name in SpecSet.NAMES},
            cv_scores={name: {"mars": 0.0} for name in SpecSet.NAMES},
        )
    flow = ProductionTestFlow(
        flow.board, stimulus, calibration, limits=lna_limits() if case["limits"] else None
    )
    devices = _sample_lot(rng, case["n_devices"])
    nan_rows = []
    if case["nan_row"] and devices:
        nan_rows = [int(rng.integers(0, len(devices)))]
        devices[nan_rows[0]] = _amplifier(float("nan"), 2.0, -6.0)
    seed = int(rng.integers(0, 2**63))

    want = _per_row_records(flow, devices, np.random.default_rng(seed))
    result = flow.run(
        devices,
        np.random.default_rng(seed),
        executor=case["executor"],
        chunksize=case["chunksize"],
    )
    got = result.records
    check(
        len(got) == len(want) == result.n_devices,
        f"{result.n_devices} devices, {len(got)} records, oracle {len(want)}",
    )
    for record, reference in zip(got, want):
        label = f"device {reference.device_id}"
        for name in ("device_id", "passed", "test_time", "site_index"):
            check(
                getattr(record, name) == getattr(reference, name),
                f"{label}: {name} {getattr(record, name)!r} != "
                f"oracle {getattr(reference, name)!r}",
            )
        check_array_equal(
            record.signature, reference.signature, label=f"{label} signature",
            equal_nan=True,
        )
        check(not record.signature.flags.writeable, f"{label}: signature is writeable")
        check_array_equal(
            record.predicted.as_vector(),
            reference.predicted.as_vector(),
            label=f"{label} predicted specs",
            equal_nan=True,
        )
    if flow.limits is not None:
        for row in nan_rows:
            check(
                not np.isfinite(got[row].signature).all() and got[row].passed is False,
                f"device {row}: a NaN-gain device did not fail",
            )
    check_array_equal(
        result.predicted_matrix(),
        np.vstack([r.predicted.as_vector() for r in want]) if want
        else np.empty((0, len(SpecSet.NAMES))),
        label="predicted matrix",
        equal_nan=True,
    )
    check(
        result.total_test_time == sum(r.test_time for r in want),
        f"total test time {result.total_test_time!r} != oracle sum",
    )
    if flow.limits is not None and want:
        check(
            result.yield_fraction == sum(r.passed for r in want) / len(want),
            f"yield {result.yield_fraction!r} != oracle",
        )


# ----------------------------------------------------------------------
# multi-site insertions == independent single-site captures
# ----------------------------------------------------------------------
@relation(
    "multisite-serial-equivalence",
    params={
        "n_sites": integers(2, 4, origin=2),
        "n_insertions": integers(1, 3, origin=1),
        "partial_last": booleans(),
        "loss_skew": booleans(),
        "digitizer_bits": choice(None, 12),
        "backend": choice("serial", "thread:2"),
        "chunksize": integers(1, 5, origin=1),
        "n_breakpoints": integers(3, 6, origin=3),
    },
    equation="reproduction contract (multi-site isolation)",
)
def _rel_multisite_serial_equivalence(case, rng):
    """A zero-crosstalk N-site capture equals N single-site captures bit for bit.

    With perfect site isolation the multi-site board is physically N
    independent copies of the Figure 2/3 path, so every signature row
    must be ``np.array_equal`` to capturing that device alone on its
    site's standalone board with the same RNG stream -- including
    partially-occupied final insertions and per-site fixture-loss skew.
    ``measure_signatures`` must be bit-identical
    across backends and chunk sizes (the site-aligned chunking
    contract).  Finally, turning crosstalk *on* must actually change the
    signatures -- coupling silently dropped is itself a failure.
    """
    n_sites = case["n_sites"]
    n_devices = n_sites * case["n_insertions"] - int(case["partial_last"])
    skew = [0.25 * j for j in range(n_sites)] if case["loss_skew"] else None
    base_cfg = _fast_config(digitizer_bits=case["digitizer_bits"])
    board = MultiSiteBoard(
        base_cfg,
        MultiSiteConfig(
            n_sites=n_sites, crosstalk_coupling=0.0, site_loss_skew_db=skew
        ),
    )
    devices = _sample_lot(rng, n_devices)
    stimulus = _stimulus(rng, case["n_breakpoints"])
    seeds = spawn_seeds(rng, n_devices)

    multi = board.signature_batch(
        devices, stimulus, rngs=seeds.generators()
    )
    for j, site_board in enumerate(board.site_boards):
        idx = list(range(j, n_devices, n_sites))
        serial = site_board.signature_batch(
            [devices[i] for i in idx],
            stimulus,
            rngs=[np.random.default_rng(seeds[i]) for i in idx],
        )
        check_array_equal(
            multi[idx], serial, label=f"site {j} rows vs serial single-site"
        )

    master = int(rng.integers(0, 2**63))
    measured_ref = measure_signatures(
        board, stimulus, devices, np.random.default_rng(master)
    )
    measured = measure_signatures(
        board,
        stimulus,
        devices,
        np.random.default_rng(master),
        executor=case["backend"],
        chunksize=case["chunksize"],
    )
    check_array_equal(
        measured,
        measured_ref,
        label=(
            f"{case['backend']} chunksize={case['chunksize']} "
            "(site-aligned chunking)"
        ),
    )

    if n_devices >= 2:
        coupled_board = MultiSiteBoard(
            base_cfg,
            MultiSiteConfig(
                n_sites=n_sites, crosstalk_coupling=0.05, site_loss_skew_db=skew
            ),
        )
        coupled = coupled_board.signature_batch(
            devices, stimulus, rngs=seeds.generators()
        )
        check(
            not np.array_equal(coupled, multi),
            "5% site-to-site coupling left every signature bit-identical "
            "to the isolated capture: crosstalk is silently dropped",
        )


# ----------------------------------------------------------------------
# ridge calibration through the on-die BIST path
# ----------------------------------------------------------------------
@relation(
    "bist-calibration-predicts",
    params={
        "adc_bits": choice(6, 8),
        "n_breakpoints": integers(4, 8, origin=4),
        "backend": choice("serial", "thread:2"),
    },
    equation="Eqs. 6-10 through the BIST access path",
)
def _rel_bist_calibration_predicts(case, rng):
    """Ridge calibration predicts gain through the coarse BIST path.

    The on-die chain (AM drive, square-law detector, 6-bit ADC) is the
    paper's low-cost-tester argument taken to its limit: the signature
    is degraded but must still carry the specification information.  A
    standardize+ridge calibration trained on 32 BIST signatures must
    predict a held-out 16-device lot's gain within
    :data:`BIST_GAIN_RMSE_TOL_DB` RMSE *and* beat the train-mean
    predictor by the :data:`BIST_GAIN_SKILL_TOL` skill ratio -- a
    signature path carrying no device information degrades to the mean
    predictor (skill ~1) and fails both.
    """
    cfg = BistPathConfig(adc_bits=case["adc_bits"])
    path = BistSignaturePath(cfg)
    stimulus = PiecewiseLinearStimulus(
        rng.uniform(-0.8, 0.8, case["n_breakpoints"]),
        duration=cfg.capture_seconds,
    )
    train = _sample_lot(rng, 32)
    val = _sample_lot(rng, 16)
    train_sigs = measure_signatures(
        path,
        stimulus,
        train,
        np.random.default_rng(int(rng.integers(0, 2**63))),
        n_bins=32,
        executor=case["backend"],
    )
    val_sigs = measure_signatures(
        path,
        stimulus,
        val,
        np.random.default_rng(int(rng.integers(0, 2**63))),
        n_bins=32,
    )
    gain_train = np.array([d.specs().gain_db for d in train])
    gain_val = np.array([d.specs().gain_db for d in val])

    pipeline = Pipeline([StandardScaler(), RidgeRegression(alpha=1.0)])
    pipeline.fit(train_sigs, gain_train)
    rmse = float(np.sqrt(np.mean((pipeline.predict(val_sigs) - gain_val) ** 2)))
    baseline = float(np.sqrt(np.mean((gain_train.mean() - gain_val) ** 2)))
    check(
        rmse <= BIST_GAIN_RMSE_TOL_DB,
        f"BIST ridge calibration missed held-out gain by {rmse:.2f} dB RMSE "
        f"(declared tolerance {BIST_GAIN_RMSE_TOL_DB} dB)",
    )
    check(
        rmse <= BIST_GAIN_SKILL_TOL * baseline,
        f"BIST calibration skill {rmse / baseline:.2f} (RMSE {rmse:.2f} dB "
        f"over mean-predictor {baseline:.2f} dB) exceeds "
        f"{BIST_GAIN_SKILL_TOL}: the BIST signature carries no usable "
        "device information",
    )


# ----------------------------------------------------------------------
# spec prediction is independent of the batch it runs in
# ----------------------------------------------------------------------
@relation(
    "predict-batch-invariance",
    params={
        "n_train": integers(16, 48, origin=16),
        "n_features": integers(3, 24, origin=3),
        "n_lot": integers(1, 40, origin=1),
        "n_cuts": integers(0, 6, origin=0),
    },
    equation="reproduction contract (row-invariant prediction)",
)
def _rel_predict_batch_invariance(case, rng):
    """Each row's predicted specs are bit-identical in any batch.

    Production predicts a lot chunk by chunk, and the chunk sizes depend
    on the executor, ``chunksize`` and the streaming lot size.  For
    every :func:`default_candidates` model family, fitted on a small
    random training set, ``predict_matrix`` over any split of a lot must
    be ``np.array_equal`` to the whole-lot rows, and ``predict`` of one
    signature must equal its row.  BLAS matrix products fail this: their
    summation order depends on the batch shape.
    """
    n, m = case["n_train"], case["n_features"]
    x_train = rng.normal(size=(n, m))
    mix = rng.normal(size=(m, len(SpecSet.NAMES)))
    latent = x_train @ mix
    y_train = latent + 0.3 * latent**2 + 0.01 * rng.normal(size=latent.shape)
    lot = rng.normal(size=(case["n_lot"], m))
    n_cuts = min(case["n_cuts"], case["n_lot"] - 1)
    cuts = np.sort(rng.choice(np.arange(1, case["n_lot"]), size=n_cuts, replace=False))

    for family, make in default_candidates(n).items():
        pipelines = {}
        for j, name in enumerate(SpecSet.NAMES):
            pipelines[name] = make().fit(x_train, y_train[:, j])
        model = CalibrationModel(
            spec_names=SpecSet.NAMES,
            pipelines=pipelines,
            chosen={name: family for name in SpecSet.NAMES},
            cv_scores={name: {family: 0.0} for name in SpecSet.NAMES},
        )
        whole = model.predict_matrix(lot)
        pieces = [model.predict_matrix(piece) for piece in np.split(lot, cuts)]
        check_array_equal(
            np.vstack(pieces),
            whole,
            label=f"{family}: lot split at {cuts.tolist()} vs whole lot",
        )
        for i, row in enumerate(lot):
            check_array_equal(
                model.predict(row).as_vector(),
                whole[i],
                label=f"{family}: predict(row {i}) vs whole-lot row",
            )


# ----------------------------------------------------------------------
# the calibration's shared fits against fits that share nothing
# ----------------------------------------------------------------------
class _FailsWithoutDevice:
    """A regressor that raises unless its training targets hold ``marker``:
    on the fold that holds that device out, and on every other spec."""

    def __init__(self, marker: float):
        self.marker = marker

    def fit(self, x: np.ndarray, y: np.ndarray) -> "_FailsWithoutDevice":
        if not np.any(y == self.marker):
            raise ValueError("the marked device is not in this training set")
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.zeros(len(x))


def _unshared_calibration(candidates, signatures, specs, folds, rng) -> CalibrationModel:
    """``CalibrationSession.fit`` with no fit memo: every candidate fits
    every fold on fresh writable arrays, which no memo shares, and each
    winner refits on a writable copy of its own."""
    x = np.array(signatures, dtype=float)
    pipelines, chosen, scores = {}, {}, {}
    for j, name in enumerate(SpecSet.NAMES):
        # the session's own strided column: MARS's coefficients depend
        # on the target's memory layout
        y = specs[:, j]
        split_seed = int(rng.integers(0, 2**31 - 1))
        cv = {}
        for family, make in candidates.items():
            per_fold = []
            for train, test in kfold_indices(len(x), folds, np.random.default_rng(split_seed)):
                try:
                    model = make().fit(x[train], y[train])
                    per_fold.append(rmse(y[test], model.predict(x[test])))
                except (np.linalg.LinAlgError, ValueError):
                    per_fold = None
                    break
            cv[family] = float("inf") if per_fold is None else float(np.mean(per_fold))
        ranked = {f: v if np.isfinite(v) else np.inf for f, v in cv.items()}
        best = min(ranked, key=ranked.get)
        pipelines[name] = candidates[best]().fit(np.array(x), y)
        chosen[name] = best
        scores[name] = cv
    return CalibrationModel(SpecSet.NAMES, pipelines, chosen, scores)


@relation(
    "calibration-sharing-equivalence",
    params={
        "n_train": choice(28, 100, 200),
        "n_bins": integers(6, 60, origin=6),
        "n_latent": integers(1, 4, origin=1),
        "noise": log_floats(1e-4, 1e-1, origin=1e-4),
        "folds": integers(2, 5, origin=5),
        "constant_bins": booleans(),
        "failing_candidate": booleans(),
    },
    equation="reproduction contract (shared calibration fits)",
)
def _rel_calibration_sharing_equivalence(case, rng):
    """The model-zoo calibration with its fit memos equals unshared fits.

    ``CalibrationSession.fit`` shares, inside one fit memo per fold and
    one over the spec loop, each fold's centred SVD, every
    ``PCA(k) -> StandardScaler`` front-end fit with its output, the
    ridge alphas' centring and Gram and the winners' full-data refits.
    Over the full :func:`default_candidates` zoo on
    signatures from a random low-dimensional manifold, the chosen
    families and CV scores must equal (``==``) those of fits that share
    nothing (:func:`_unshared_calibration`), and ``predict_matrix`` must
    be ``np.array_equal`` on the training signatures and a fresh lot.
    Strata: 28 devices of more bins than a fold's rows (the dual ridge
    form), constant bins, and a candidate that fails on some folds
    (charged ``inf``, no other score moves).  Every returned pipeline owns its steps, and the
    caller's arrays stay writable.
    """
    n, m = case["n_train"], case["n_bins"]
    basis = rng.normal(size=(case["n_latent"], m)) * 10.0 ** rng.uniform(-2, 1, m)
    u = rng.uniform(0.5, 1.5, size=(n + 40, case["n_latent"]))
    sigs = u @ basis + case["noise"] * rng.normal(size=(n + 40, m))
    if case["constant_bins"]:
        stratum("constant bins")
        sigs[:, rng.integers(0, m, max(1, m // 5))] = float(rng.normal())
    specs = np.column_stack(
        [
            db20(u[:, 0]) + 16.0,
            2.0 + 0.3 * u[:, -1] ** 2,
            3.0 + 5.0 * np.log10(u[:, 0] / u[:, -1]) + 0.1 * np.sin(4.0 * u[:, 0]),
        ]
    )
    train, lot = sigs[:n], sigs[n:]
    folds = min(case["folds"], n // 2)
    candidates = dict(default_candidates(n))
    if case["failing_candidate"]:
        stratum("a candidate fails on some folds")
        marker = float(specs[rng.integers(n), 0])
        n_pc = max(2, min(4, n // 12))
        names = list(candidates)
        at = int(rng.integers(0, len(names) + 1))
        candidates = dict(
            [(f, candidates[f]) for f in names[:at]]
            + [("fails", lambda: Pipeline([PCA(n_pc), StandardScaler(), _FailsWithoutDevice(marker)]))]
            + [(f, candidates[f]) for f in names[at:]]
        )
    if n - -(-n // folds) < m:
        stratum("dual ridge")
    seed = int(rng.integers(0, 2**32))
    shared = CalibrationSession(candidates=candidates, cv_folds=folds).fit(
        train, specs[:n], rng=np.random.default_rng(seed)
    )
    oracle = _unshared_calibration(
        candidates, train, specs[:n], folds, np.random.default_rng(seed)
    )
    label = f"{n} devices x {m} bins, {folds} folds"
    check(
        shared.chosen == oracle.chosen,
        f"{label}: chosen {shared.chosen} vs unshared {oracle.chosen}",
    )
    for name in SpecSet.NAMES:
        got = np.array(list(shared.cv_scores[name].values()))
        want = np.array(list(oracle.cv_scores[name].values()))
        check(
            list(shared.cv_scores[name]) == list(oracle.cv_scores[name]),
            f"{label}: {name} scored other families",
        )
        check_array_equal(got, want, label=f"{label}: {name} CV scores", equal_nan=True)
    for rows, what in ((train, "training signatures"), (lot, "a fresh lot")):
        check_array_equal(
            shared.predict_matrix(rows),
            oracle.predict_matrix(rows),
            label=f"{label}: predict_matrix on {what}",
        )
    steps = [id(step) for p in shared.pipelines.values() for step in p.steps]
    check(len(steps) == len(set(steps)), f"{label}: two pipelines share a step")
    check(train.flags.writeable, f"{label}: the caller's signatures became read-only")


# ----------------------------------------------------------------------
# the batched describing-gain kernel against the per-device loop
# ----------------------------------------------------------------------
def _describing_gain_rows(case, rng) -> np.ndarray:
    """``describing-gain-batch-equivalence``'s ``(n_devices, 3)`` polynomial rows."""
    n = case["n_devices"]
    rows = []
    for _ in range(n):
        iip2 = float(rng.uniform(5.0, 35.0)) if rng.random() < 0.5 else None
        rows.append(
            poly_from_specs(
                float(rng.uniform(5.0, 25.0)), float(rng.uniform(-15.0, 10.0)), iip2
            )
        )
    coeffs = np.array(rows, dtype=float).reshape(n, 3)
    expansive = rng.random(n) < case["expansive_frac"]
    coeffs[expansive, 2] = np.abs(coeffs[expansive, 2])
    defective = np.flatnonzero(rng.random(n) < case["defect_frac"])
    negated = defective[rng.random(len(defective)) < 0.5]
    coeffs[negated, 0] = -coeffs[negated, 0]
    # half the inverting rows flip a2 too (a2 < 0 when it is non-zero)
    flipped = negated[rng.random(len(negated)) < 0.5]
    coeffs[flipped, 1] = -coeffs[flipped, 1]
    for i in np.setdiff1d(defective, negated):
        coeffs[i, rng.integers(0, 3)] = np.nan
    # the inverting stratum, from the intact rows: a2**2 exceeds
    # 3*a1*a3 (> 0) by 1.5x to 100x
    intact = rng.permutation(np.setdiff1d(np.arange(n), defective))
    inverting = intact[: int(np.ceil(case["inverting_frac"] * len(intact)))]
    a1 = -np.abs(coeffs[inverting, 0])
    a3 = -np.abs(coeffs[inverting, 2])
    a2 = -np.sqrt(3.0 * a1 * a3 * rng.uniform(1.5, 100.0, len(inverting)))
    coeffs[inverting] = np.column_stack([a1, a2, a3])
    return coeffs


@relation(
    "describing-gain-batch-equivalence",
    params={
        "n_devices": integers(0, 48, origin=1),
        "n_samples": integers(1, 600, origin=1),
        "overdrive": log_floats(0.05, 20.0, origin=0.05),
        "expansive_frac": floats(0.0, 0.5, origin=0.0),
        "defect_frac": floats(0.0, 0.4, origin=0.0),
        "inverting_frac": floats(0.05, 0.5, origin=0.05),
        "n_blocks": integers(2, 6, origin=2),
        "silent_frac": floats(0.0, 0.5, origin=0.0),
        "zero_peak": booleans(),
        "n_records": integers(1, 4, origin=1),
    },
    equation="reproduction contract (batched describing function)",
)
def _rel_describing_gain_batch_equivalence(case, rng):
    """The batched tuned-DUT gain equals the per-device loop bit for bit.

    Random device polynomials (some expansive, some with even-order
    terms) driven from far below to far past their fold-back point:
    :func:`describing_gain_batch` must be ``np.array_equal`` to one
    :class:`PolynomialNonlinearity` per device, its describing function
    tabulated on ``linspace(0, 1.01 * peak, 256)`` and ``np.interp`` of
    the drive magnitudes -- and :func:`overdrive_ratios` to the scalar
    saturation bookkeeping.  Some rows are defective: a NaN coefficient
    or a negated ``a1`` (half of those with ``a2`` negated too).  An
    explicit inverting stratum -- ``a1 < 0``, ``a2 < 0``, ``a3 < 0`` and
    ``a2**2 > 3*a1*a3``, like ``(-1, -10, -1)`` -- reaches the fold-back
    that saturated at a negative amplitude before inverting rows were
    mirrored; realistic polynomials almost never do.  The lot also runs
    the way a board capture runs it, in 2-6 row blocks sharing the lot's
    quadrature cubes (:meth:`DescribingGains.cubes`), checked device by
    device; a NaN row must stay NaN, never pass.  With 2-4 records the
    lot also runs the way a GA generation's capture runs it: every
    (record, device) row of a :class:`DescribingGainStack` -- the drive
    records at their own overdrives, a third of the added ones silent --
    in record-major blocks whose tables hold several records' grids,
    each row checked against its record's :class:`DescribingGains`.
    """
    n = case["n_devices"]
    coeffs = _describing_gain_rows(case, rng)

    sat = saturation_amplitudes(coeffs)
    finite = sat[np.isfinite(sat)]
    scale = float(np.median(finite)) if finite.size else 1.0
    amps = np.abs(rng.normal(size=case["n_samples"]))
    amps[rng.random(case["n_samples"]) < case["silent_frac"]] = 0.0
    if case["zero_peak"] or not amps.max() > 0.0:
        amps[:] = 0.0
    else:
        amps *= case["overdrive"] * scale / amps.max()
    peak = float(amps.max())

    want = np.empty((n, len(amps)))
    want_ratios = []
    for i, c in enumerate(coeffs):
        poly = PolynomialNonlinearity(*c)
        if peak > 0.0:
            grid = np.linspace(0.0, 1.01 * peak, 256)
            want[i] = np.interp(amps, grid, poly.describing_function(grid))
        else:
            want[i] = np.full_like(amps, poly.a1, dtype=float)
        s = poly.saturation_amplitude
        want_ratios.append(peak / s if np.isfinite(s) else 0.0)
    check_array_equal(
        describing_gain_batch(coeffs, amps, peak),
        want,
        label=f"{n} devices at {case['overdrive']:.3g}x median saturation",
        equal_nan=True,
    )
    gains = DescribingGains(amps, peak)
    cubes = gains.cubes(sat)
    step = max(1, -(-n // case["n_blocks"]))
    for start in range(0, n, step):
        block = gains(coeffs[start : start + step], cubes)
        for i, row in enumerate(block, start):
            check_array_equal(
                row,
                want[i],
                label=f"device {i} of a {step}-row block, lot-wide cubes",
                equal_nan=True,
            )
    check_array_equal(
        overdrive_ratios(coeffs, peak),
        np.array(want_ratios).reshape(n),
        label="overdrive ratios",
    )
    if case["n_records"] > 1:
        _check_describing_stack(case, rng, coeffs, amps, scale)


def _check_describing_stack(case, rng, coeffs, amps, scale) -> None:
    """``describing-gain-batch-equivalence``'s several-records stratum."""
    stratum("several records in one stack")
    records = [amps]
    for _ in range(case["n_records"] - 1):
        extra = np.abs(rng.normal(size=len(amps)))
        if rng.random() < 1.0 / 3.0 or not extra.max() > 0.0:
            extra[:] = 0.0
        else:
            extra *= float(rng.uniform(0.05, 20.0)) * scale / extra.max()
        records.append(extra)
    records = np.array(records)
    peaks = records.max(axis=1)
    if rng.random() < 0.5 and peaks.any():
        # half the drive samples exactly on their record's grid knots
        stratum("magnitudes on grid knots")
        for s in np.flatnonzero(peaks > 0.0):
            grid = np.linspace(0.0, 1.01 * peaks[s], 256)
            cells = rng.integers(0, len(amps), max(1, len(amps) // 2))
            records[s, cells] = grid[rng.integers(0, 255, len(cells))]
        peaks = records.max(axis=1)
    if (peaks > 0.0).any() and (peaks == 0.0).any():
        stratum("zero-peak record among driven ones")
    n, n_rec = len(coeffs), len(records)
    want = [DescribingGains(r, p)(coeffs) for r, p in zip(records, peaks)]
    stack = DescribingGainStack.build(records, peaks)
    lot = stack.lot(coeffs)
    step = max(1, -(-n * n_rec // case["n_blocks"]))
    for start in range(0, n * n_rec, step):
        rows = np.arange(start, min(start + step, n * n_rec))
        block = stack(lot, rows % n, rows // n)
        if rows[0] // n != rows[-1] // n:
            stratum("block spanning records")
        for row, got in zip(rows, block):
            s, i = divmod(int(row), n)
            check_array_equal(
                got,
                want[s][i],
                label=f"device {i} on record {s} of {n_rec}, {step}-row blocks",
                equal_nan=True,
            )
    _check_knot_search(rng, records, peaks, f"{n_rec} records")


def _check_knot_search(rng, amps: np.ndarray, peaks: np.ndarray, label: str) -> None:
    """A stack's knot intervals equal ``np.searchsorted`` on its grids.

    A third of each driven record's samples move onto its grid's knots,
    where ``floor(amp / step)`` alone misses the interval at about one
    knot in twenty; :meth:`DescribingGainStack.build` must still find
    ``jc`` with ``grid[jc] <= amp < grid[jc + 1]`` (clipped to the
    table) on every record's own ``linspace`` grid.
    """
    amps = np.array(amps, dtype=float)
    points = DESCRIBING_TABLE_POINTS
    want = np.zeros(amps.shape, dtype=np.intp)
    for s in np.flatnonzero(peaks > 0.0).tolist():
        grid = np.linspace(0.0, 1.01 * peaks[s], points)
        cells = rng.integers(0, amps.shape[1], max(1, amps.shape[1] // 3))
        amps[s, cells] = grid[rng.integers(0, points, len(cells))]
        j = np.searchsorted(grid, amps[s], side="right") - 1
        with np.errstate(all="ignore"):
            estimate = np.floor(amps[s] / grid[1])
        if np.any(np.isfinite(estimate) & (estimate != j) & (j >= 0) & (j < points - 1)):
            stratum("floor(amp / step) off by one")
        want[s] = np.clip(j, 0, points - 2)
    stack = DescribingGainStack.build(amps, peaks)
    check_array_equal(stack.jc, want, label=f"{label}: knot intervals vs np.searchsorted")


# ----------------------------------------------------------------------
# one capture per GA generation against one capture per gene
# ----------------------------------------------------------------------
@relation(
    "ga-generation-batch-equivalence",
    params={
        "n_genes": integers(1, 24, origin=1),
        "dut_coupling": choice("tuned", "wideband"),
        "output_loss_db": choice(0.0, 1.5),
        "n_breakpoints": integers(3, 8, origin=3),
        "drive": floats(0.05, 0.6, origin=0.05),
        "zero_gene": booleans(),
        "overdrive": booleans(),
    },
    equation="Eqs. 6-10 (batched GA fitness)",
)
def _rel_ga_generation_batch_equivalence(case, rng):
    """A generation's batch fitness equals the per-gene loop bit for bit.

    ``objective_batch`` decodes every gene and reads all
    finite-difference stars and peak drives from one row-blocked
    ``board.signature_grid`` capture.  Each value must be
    ``np.array_equal`` to the fitness of that gene alone computed the
    long way -- ``peak_drive``, one ``signature_batch`` of the star,
    the star Jacobian and Eq. 10 -- on a fresh board, each grid slice
    to its stimulus's ``signature_batch`` and each peak to its
    ``peak_drive``.  Strata: an all-zero gene (zero drive, the
    small-signal gain); half the genes at full-scale levels, driving
    the star's weakest devices past their fold-back so that saturated
    cells fall in row blocks spanning two genes; and generations whose
    rows are not a multiple of the block size.
    """
    config = _fast_config(
        dut_coupling=case["dut_coupling"],
        output_loss_db=case["output_loss_db"],
        include_device_noise=False,
    )
    space = ParameterSpace(
        [
            ProcessParameter("gain_db", 12.0, 0.08),
            ProcessParameter("nf_db", 2.0, 0.10),
            ProcessParameter("iip3_dbm", -2.0, 0.10),
        ]
    )

    def optimizer() -> SignatureStimulusOptimizer:
        return SignatureStimulusOptimizer(
            board_config=config,
            device_factory=lambda p: _amplifier(
                p["gain_db"], p["nf_db"], p["iip3_dbm"]
            ),
            space=space,
            encoding=StimulusEncoding(
                case["n_breakpoints"], _CAPTURE_SECONDS, case["drive"]
            ),
            rel_step=0.03,
        )

    batched = optimizer()
    lower, upper = batched.encoding.bounds()
    genes = rng.uniform(lower, upper, size=(case["n_genes"], len(lower)))
    if case["overdrive"]:
        loud = rng.random(len(genes)) < 0.5
        genes[loud] = np.where(rng.random((int(loud.sum()), len(lower))) < 0.5, lower, upper)
    if case["zero_gene"]:
        genes[rng.integers(len(genes))] = 0.0
    values = batched.objective_batch(genes)
    stimuli = [batched.encoding.decode(gene) for gene in genes]
    grid, peaks = batched.board.signature_grid(batched._fd_star(), stimuli)
    _ga_strata(batched, stimuli, peaks)
    if case["dut_coupling"] == "tuned":
        plan = batched.board._build_plans(
            [batched.board._stimulus_record(s) for s in stimuli]
        )
        _check_knot_search(rng, plan.gains.amps, plan.peaks, f"{len(genes)} genes")

    single = optimizer()
    star = single._fd_star()
    a_p = single.performance_matrix()
    single._find_weakest_device()
    want = np.empty(len(genes))
    for j, gene in enumerate(genes):
        stimulus = single.encoding.decode(gene)
        peak = single.board.peak_drive(stimulus)
        check_array_equal(
            peaks[j], peak, label=f"gene {j}: grid peak vs peak_drive"
        )
        ratio = 0.0
        if np.isfinite(single._weakest_saturation):
            ratio = float(peak / single._weakest_saturation)
        excess = ratio - single.overdrive_margin
        penalty = single.overdrive_weight * excess**2 if excess > 0.0 else 0.0
        signatures = single.board.signature_batch(star, stimulus, rng=None)
        check_array_equal(
            grid[j], signatures, label=f"gene {j}: grid slice vs signature_batch"
        )
        a_s, _ = star_jacobian(signatures, space, single.rel_step, central=True)
        a_s = a_s * space.fractional_std_vector()[None, :]
        want[j] = penalty + signature_test_objective(a_p, a_s, single.sigma_m)
    check_array_equal(
        values, want, label=f"{len(genes)} genes: batch vs per-gene fitness"
    )


def _ga_strata(opt: SignatureStimulusOptimizer, stimuli, peaks: np.ndarray) -> None:
    """The ``ga-generation-batch-equivalence`` strata a generation reached.

    The grid captures each distinct star device once, gene-major, in
    blocks of ``block_rows(n)`` rows; a (gene, device) row has saturated
    table cells when the device's saturation amplitude lies below the
    gene's grid top ``1.01 * peak``.
    """
    first, _ = _distinct_devices(opt._fd_star())
    sat = saturation_amplitudes(
        envelope_coefficients([opt._fd_star()[i] for i in first])
    )
    if np.any(peaks == 0.0):
        stratum("zero-drive gene")
    n_dev, rows = len(first), block_rows(opt.board.capture_plan(stimuli[0]).n)
    total = len(stimuli) * n_dev
    if total % rows:
        stratum("rows not a block multiple")
    saturated = (sat[None, :] < 1.01 * peaks[:, None]).ravel()
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        if start // n_dev != (stop - 1) // n_dev and saturated[start:stop].any():
            stratum("saturated block spanning genes")
            break


# ----------------------------------------------------------------------
# the per-device noise-stream derivation
# ----------------------------------------------------------------------
@relation(
    "seed-derivation-equivalence",
    params={
        "root": choice("int", "generator", "seed_sequence", "list_entropy", "big_entropy"),
        "n_children": integers(0, 48, origin=0),
        "counter": integers(0, 1000, origin=0),
        "spawn_key_len": integers(0, 3, origin=0),
        "pool_size": choice(4, 8),
        "n_draws": integers(1, 16, origin=1),
    },
    equation="reproduction contract (per-device noise streams)",
)
def _rel_seed_derivation_equivalence(case, rng):
    """Each derived device generator equals ``default_rng`` of the spawned child.

    :func:`spawn_seeds` computes its children's PCG64 seed words as
    uint32 columns instead of calling ``SeedSequence.spawn``.  For every
    root kind it accepts -- an integer, a ``Generator`` (one draw
    consumed), a caller's ``SeedSequence`` with a spawn key, a non-zero
    spawn counter and a non-default pool, list entropy, entropy past
    2**64 -- each block generator must start in the bit generator state
    of ``np.random.default_rng(child)`` for ``child`` in the reference
    ``spawn(n)``, draw the same numbers, and ``block[i]`` / a sub-block
    must be that child.  The roots must be left in identical states.
    """
    n = case["n_children"]
    kind = case["root"]
    entropy = int(rng.integers(0, 2**63))
    key = tuple(int(k) for k in rng.integers(0, 2**32, size=case["spawn_key_len"]))
    if kind == "list_entropy":
        entropy = [entropy, int(rng.integers(0, 2**32)), int(rng.integers(0, 2**63))]
    elif kind == "big_entropy":
        entropy = entropy << 64 | int(rng.integers(0, 2**63))

    def root():
        """One fresh copy of the sampled root (the derivation and the oracle each get one)."""
        if kind == "int":
            return entropy
        if kind == "generator":
            return np.random.default_rng(entropy)
        if kind == "seed_sequence":
            return np.random.SeedSequence(
                entropy, spawn_key=key, pool_size=case["pool_size"],
                n_children_spawned=case["counter"],
            )
        return np.random.SeedSequence(entropy, spawn_key=key)

    derived_root, oracle_root = root(), root()
    block = spawn_seeds(derived_root, n)
    if isinstance(oracle_root, np.random.Generator):
        oracle_seq = np.random.SeedSequence(int(oracle_root.integers(0, 2**63)))
    elif isinstance(oracle_root, np.random.SeedSequence):
        oracle_seq = oracle_root
    else:
        oracle_seq = np.random.SeedSequence(oracle_root)
    children = oracle_seq.spawn(n)

    check(isinstance(block, SeedBlock) and len(block) == n, f"{kind}: not a {n}-child block")
    generators = block.generators()
    for i, (gen, child) in enumerate(zip(generators, children)):
        want = np.random.default_rng(child)
        check(
            gen.bit_generator.state == want.bit_generator.state,
            f"{kind} child {i}: PCG64 state differs from default_rng(spawn child)",
        )
        check_array_equal(
            gen.standard_normal(case["n_draws"]),
            want.standard_normal(case["n_draws"]),
            label=f"{kind} child {i} draws",
        )
        check(
            (block[i].entropy, block[i].spawn_key, block[i].pool_size)
            == (child.entropy, child.spawn_key, child.pool_size),
            f"{kind}: block[{i}] is not the spawned child",
        )
    lo, hi = sorted(int(v) for v in rng.integers(0, n + 1, size=2))
    for i, gen in enumerate(block[lo:hi].generators()):
        check(
            gen.bit_generator.state
            == np.random.default_rng(children[lo + i]).bit_generator.state,
            f"{kind}: sub-block [{lo}:{hi}] row {i} differs",
        )
    if isinstance(derived_root, np.random.Generator):
        check(
            derived_root.bit_generator.state == oracle_root.bit_generator.state,
            f"{kind}: the root generator advanced differently from one draw",
        )
    if isinstance(derived_root, np.random.SeedSequence):
        check(
            derived_root.n_children_spawned == oracle_root.n_children_spawned,
            f"{kind}: spawn counter {derived_root.n_children_spawned}, "
            f"want {oracle_root.n_children_spawned}",
        )
