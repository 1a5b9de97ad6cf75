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
                                bit for bit
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
multisite-serial-equivalence    a zero-crosstalk N-site capture ==
                                N independent single-site captures, bit
                                for bit, on every executor
bist-calibration-predicts       ridge calibration predicts gain through
                                the coarse on-die BIST path to the
                                declared tolerance
predict-batch-invariance        every model family predicts each row
                                bit-identically whatever batch it is
                                predicted in
describing-gain-batch-          the batched tuned-DUT gain equals one
equivalence                     describing function + ``np.interp`` per
                                device, bit for bit
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

from typing import Optional, Tuple

import numpy as np

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.device import RFDevice, SpecSet
from repro.circuits.nonlinear import (
    PolynomialNonlinearity,
    describing_gain_batch,
    poly_from_specs,
    saturation_amplitudes,
)
from repro.dsp.units import db, db20, dbm_to_watts, undb, undb20, watts_to_dbm
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.loadboard.scenario_paths import BistPathConfig, BistSignaturePath
from repro.loadboard.signature_path import (
    SignaturePathConfig,
    SignatureTestBoard,
    overdrive_ratios,
)
from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig
from repro.regression.linear import RidgeRegression
from repro.regression.pipeline import Pipeline
from repro.regression.scaling import StandardScaler
from repro.runtime.calibration import (
    CalibrationModel,
    default_candidates,
    measure_signatures,
)
from repro.runtime.executor import SerialExecutor, spawn_seeds
from repro.runtime.production import ProductionTestFlow
from repro.runtime.service import StreamingTestService
from repro.runtime.specs import lna_limits
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
)

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
    be ``np.array_equal`` to capturing device ``i`` alone with the same
    stream -- across couplings, quantizers, fixture losses, and the
    random-path-phase regime.
    """
    board = SignatureTestBoard(
        _fast_config(
            dut_coupling=case["dut_coupling"],
            digitizer_bits=case["digitizer_bits"],
            random_path_phase=case["random_path_phase"],
            input_loss_db=case["input_loss_db"],
            output_loss_db=case["output_loss_db"],
            lo_offset_hz=case["lo_offset_hz"],
        )
    )
    devices = _sample_lot(rng, case["n_devices"])
    stimulus = _stimulus(rng, case["n_breakpoints"])
    seeds = spawn_seeds(rng, len(devices))

    batch_records = board.capture_batch(
        devices, stimulus, rngs=[np.random.default_rng(s) for s in seeds]
    )
    batch_sigs = board.signature_batch(
        devices, stimulus, rngs=[np.random.default_rng(s) for s in seeds]
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
    },
    equation="reproduction contract (compiled capture program)",
)
def _rel_compiled_capture_equivalence(case, rng):
    """The compiled program equals the reference algebra bit for bit.

    ``signature_batch`` must be ``np.array_equal`` to the uncompiled
    oracle (``_reference_signature_batch``) -- directly, through
    ``measure_signatures`` on every backend/chunking, and on the empty
    lot.
    """
    board = SignatureTestBoard(
        _fast_config(
            dut_coupling=case["dut_coupling"],
            digitizer_bits=case["digitizer_bits"],
            random_path_phase=case["random_path_phase"],
            lo_offset_hz=case["lo_offset_hz"],
        )
    )
    devices = _sample_lot(rng, case["n_devices"])
    stimulus = _stimulus(rng, case["n_breakpoints"])
    seeds = spawn_seeds(rng, len(devices))

    reference = board._reference_signature_batch(
        devices, stimulus, rngs=[np.random.default_rng(s) for s in seeds]
    )
    compiled = board.signature_batch(
        devices, stimulus, rngs=[np.random.default_rng(s) for s in seeds]
    )
    check_array_equal(compiled, reference, label="compiled program")

    empty = board.signature_batch([], stimulus, rngs=[])
    check(
        empty.shape == (0, reference.shape[1]),
        f"compiled empty lot shape {empty.shape} != (0, {reference.shape[1]})",
    )

    master = int(rng.integers(0, 2**63))
    # measure_signatures spawns per-device streams from the master
    # exactly like the oracle's ``rng`` argument
    measured_ref = board._reference_signature_batch(
        devices, stimulus, np.random.default_rng(master)
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
    rng: np.random.Generator, stimulus: PiecewiseLinearStimulus
) -> ProductionTestFlow:
    """A calibrated flow on the fast path (plain ridge, no model zoo)."""
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
        "n_lots": integers(1, 3, origin=1),
        "lot_size": integers(0, 3, origin=0),
        "executor": choice("serial", "thread:2"),
        "chunksize": integers(1, 3, origin=1),
        "max_pending_lots": integers(1, 2, origin=1),
        "n_breakpoints": integers(3, 5, origin=3),
    },
    equation="reproduction contract (streaming service)",
)
def _rel_streaming_offline_equivalence(case, rng):
    """Streamed per-device records equal ``ProductionTestFlow.run`` bit for bit.

    The streaming service freezes per-device seed streams at submission
    time with the same ``spawn_seeds`` derivation the offline flow
    uses, so for the same master seed every streamed record -- raw
    signature, predicted specs, pass verdict, device and lot order --
    must be ``np.array_equal`` to the offline lot, across backends,
    chunkings, queue bounds, and empty/single-device streams.
    """
    stimulus = _stimulus(rng, case["n_breakpoints"])
    flow = _ridge_flow(rng, stimulus)
    lots = [
        (_sample_lot(rng, case["lot_size"]), int(rng.integers(0, 2**63)))
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
        total == len(streamed),
        "service emitted records for lots that were never submitted",
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
        devices, stimulus, rngs=[np.random.default_rng(s) for s in seeds]
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
            devices, stimulus, rngs=[np.random.default_rng(s) for s in seeds]
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
# the batched describing-gain kernel against the per-device loop
# ----------------------------------------------------------------------
@relation(
    "describing-gain-batch-equivalence",
    params={
        "n_devices": integers(0, 48, origin=1),
        "n_samples": integers(1, 600, origin=1),
        "overdrive": log_floats(0.05, 20.0, origin=0.05),
        "expansive_frac": floats(0.0, 0.5, origin=0.0),
        "silent_frac": floats(0.0, 0.5, origin=0.0),
        "zero_peak": booleans(),
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
    saturation bookkeeping.
    """
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
    )
    check_array_equal(
        overdrive_ratios(coeffs, peak),
        np.array(want_ratios).reshape(n),
        label="overdrive ratios",
    )
