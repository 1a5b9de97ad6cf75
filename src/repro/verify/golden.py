"""Golden-signature corpus: canonical seeded lots with drift detection.

Each corpus is one fully-seeded end-to-end run of the framework -- a
device lot, a stimulus, a board configuration, a ridge calibration --
whose validation signatures and predicted specs are committed to
``tests/golden/*.json`` together with comparison tolerances.  A campaign
(:func:`repro.verify.harness.run_campaign` via ``python -m repro
verify``) rebuilds every corpus from its seed and flags *any* numeric
drift: a change that moves these numbers is a behavior change, not a
refactor, and must be reviewed as one.

The committed numbers may legitimately change (a physics fix, a new
noise model).  :func:`update_golden` regenerates them -- but only after
the relation campaign passes, so a bug can never be frozen into the
reference data (:class:`GoldenUpdateRefused`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.device import SpecSet
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.scenario_paths import BistPathConfig, BistSignaturePath
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig
from repro.regression.linear import RidgeRegression
from repro.regression.pipeline import Pipeline
from repro.regression.scaling import StandardScaler
from repro.runtime.calibration import CalibrationSession, measure_signatures

__all__ = [
    "GoldenUpdateRefused",
    "build_corpus",
    "check_all_corpora",
    "check_corpus",
    "corpus_names",
    "golden_dir",
    "update_golden",
]

#: environment override for the corpus directory (tests use a tmp dir)
GOLDEN_DIR_ENV = "REPRO_GOLDEN_DIR"

#: signature bins kept per capture (the low-frequency, signal-bearing part)
N_BINS = 32
N_TRAIN = 16
N_VAL = 4

#: rebuild-vs-stored comparison bounds -- far above BLAS/FFT platform
#: jitter, far below any real behavior change
SIGNATURE_RTOL = 1e-6
SIGNATURE_ATOL = 1e-9
SPEC_RTOL = 1e-6
SPEC_ATOL = 1e-6


class GoldenUpdateRefused(RuntimeError):
    """Refusing to regenerate golden data while relations are failing."""


@dataclass(frozen=True)
class _CorpusSpec:
    """Recipe for one corpus: a seed, a path configuration, a board.

    ``config`` builds the path configuration (any object with a
    ``capture_seconds`` attribute) and ``board`` wraps it into the
    capture front end -- the plain single-site
    :class:`SignatureTestBoard` by default, or a scenario board like
    :class:`MultiSiteBoard` / :class:`BistSignaturePath`.
    """

    seed: int
    description: str
    config: Callable[[], Any]
    board: Callable[[Any], Any] = SignatureTestBoard


def _sim_config() -> SignaturePathConfig:
    """Scaled-down Section 4.1 setup: tuned coupling, analog digitizer."""
    return SignaturePathConfig(
        carrier_freq=900e6,
        carrier_power_dbm=10.0,
        lpf_cutoff_hz=0.45e6,
        lpf_order=5,
        digitizer_rate=2e6,
        digitizer_noise_vrms=1e-3,
        capture_seconds=64e-6,
        envelope_oversample=2,
        dut_coupling="tuned",
    )


def _hardware_config() -> SignaturePathConfig:
    """Scaled-down Section 4.2 setup: offset LO, random phase, 12-bit ADC."""
    cfg = _sim_config()
    cfg.lo_offset_hz = 100e3
    cfg.random_path_phase = True
    cfg.digitizer_bits = 12
    cfg.digitizer_noise_vrms = 2e-3
    return cfg


def _wideband_config() -> SignaturePathConfig:
    """Wideband coupling with a lossy output fixture."""
    cfg = _sim_config()
    cfg.dut_coupling = "wideband"
    cfg.output_loss_db = 1.0
    return cfg


def _multisite_board(cfg: SignaturePathConfig) -> MultiSiteBoard:
    """A dual-site board with crosstalk and site-1 loss skew."""
    return MultiSiteBoard(
        cfg,
        MultiSiteConfig(
            n_sites=2, crosstalk_coupling=0.02, site_loss_skew_db=[0.0, 0.4]
        ),
    )


_CORPORA: Dict[str, _CorpusSpec] = {
    "sim-small": _CorpusSpec(
        seed=20020101,
        description="tuned coupling, same-LO, analog digitizer (Section 4.1 regime)",
        config=_sim_config,
    ),
    "hardware-small": _CorpusSpec(
        seed=20020102,
        description="offset LO, random path phase, 12-bit ADC (Section 4.2 regime)",
        config=_hardware_config,
    ),
    "wideband-small": _CorpusSpec(
        seed=20020103,
        description="wideband coupling with 1 dB output fixture loss",
        config=_wideband_config,
    ),
    "multisite-small": _CorpusSpec(
        seed=20020104,
        description=(
            "dual-site load board: 2% site-to-site crosstalk, "
            "0.4 dB site-1 fixture-loss skew"
        ),
        config=_sim_config,
        board=_multisite_board,
    ),
    "bist-small": _CorpusSpec(
        seed=20020105,
        description=(
            "on-die BIST path: AM drive, square-law detector, 6-bit ADC"
        ),
        config=BistPathConfig,
        board=BistSignaturePath,
    ),
}


def corpus_names() -> List[str]:
    """Names of every defined golden corpus."""
    return list(_CORPORA)


def golden_dir(override: Optional[str] = None) -> str:
    """The corpus directory: explicit override, env var, or ``tests/golden``."""
    if override is not None:
        return override
    env = os.environ.get(GOLDEN_DIR_ENV)
    if env:
        return env
    here = os.path.dirname(os.path.abspath(__file__))
    # src/repro/verify -> repository root
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "golden")


def _corpus_path(name: str, directory: Optional[str] = None) -> str:
    return os.path.join(golden_dir(directory), f"{name}.json")


def _ridge_candidates() -> Dict[str, Callable[[], Pipeline]]:
    """A single deterministic calibration family.

    The full model zoo cross-validates KNN/MARS/PCA variants whose
    selection can flip on tiny score differences; the golden corpus
    pins ridge so the stored predictions exercise the capture + pipeline
    numerics, not the model-selection tie-breaking.
    """
    return {"ridge_1": lambda: Pipeline([StandardScaler(), RidgeRegression(alpha=1.0)])}


def _corpus_setup(spec: _CorpusSpec):
    """Deterministic lot / stimulus / board shared by build and checks."""
    lot_seq, stim_seq, train_seq, val_seq, cv_seq = np.random.SeedSequence(
        spec.seed
    ).spawn(5)

    lot_rng = np.random.default_rng(lot_seq)
    devices = [
        BehavioralAmplifier(
            center_frequency=900e6,
            gain_db=float(lot_rng.uniform(8.0, 18.0)),
            nf_db=float(lot_rng.uniform(0.5, 3.5)),
            iip3_dbm=float(lot_rng.uniform(-12.0, -2.0)),
        )
        for _ in range(N_TRAIN + N_VAL)
    ]
    train, val = devices[:N_TRAIN], devices[N_TRAIN:]

    cfg = spec.config()
    stim_rng = np.random.default_rng(stim_seq)
    stimulus = PiecewiseLinearStimulus(
        stim_rng.uniform(-0.8, 0.8, size=6), duration=cfg.capture_seconds
    )
    board = spec.board(cfg)
    return train, val, stimulus, board, (train_seq, val_seq, cv_seq)


def build_corpus(name: str) -> Dict:
    """Rebuild a corpus from its seed: the numbers that should be golden.

    Fully deterministic: every random draw descends from the corpus seed
    through ``SeedSequence`` children for the device lot, the stimulus,
    the two measurement passes, and the cross-validation splits.
    """
    spec = _CORPORA.get(name)
    if spec is None:
        raise KeyError(f"unknown corpus {name!r}; defined: {corpus_names()}")
    train, val, stimulus, board, seqs = _corpus_setup(spec)
    train_seq, val_seq, cv_seq = seqs

    train_sigs = measure_signatures(
        board, stimulus, train, np.random.default_rng(train_seq), n_bins=N_BINS
    )
    val_sigs = measure_signatures(
        board, stimulus, val, np.random.default_rng(val_seq), n_bins=N_BINS
    )
    spec_matrix = np.array([d.specs().as_vector() for d in train])
    session = CalibrationSession(candidates=_ridge_candidates())
    model = session.fit(train_sigs, spec_matrix, rng=np.random.default_rng(cv_seq))
    predicted = model.predict_matrix(val_sigs)

    return {
        "name": name,
        "seed": spec.seed,
        "description": spec.description,
        "n_train": N_TRAIN,
        "n_val": N_VAL,
        "n_bins": N_BINS,
        "spec_names": list(SpecSet.NAMES),
        "true_specs": [d.specs().as_vector().tolist() for d in val],
        "signatures": val_sigs.tolist(),
        "signature_tolerance": {"rtol": SIGNATURE_RTOL, "atol": SIGNATURE_ATOL},
        "predicted_specs": predicted.tolist(),
        "spec_tolerance": {"rtol": SPEC_RTOL, "atol": SPEC_ATOL},
    }


def _compare(
    label: str,
    rebuilt: np.ndarray,
    stored: np.ndarray,
    rtol: float,
    atol: float,
) -> List[str]:
    if rebuilt.shape != stored.shape:
        return [f"{label}: shape changed {stored.shape} -> {rebuilt.shape}"]
    if np.allclose(rebuilt, stored, rtol=rtol, atol=atol):
        return []
    err = np.abs(rebuilt - stored)
    worst = int(np.argmax(err))
    return [
        f"{label}: max drift {float(err.flat[worst]):.3e} at flat index "
        f"{worst} (stored {float(stored.flat[worst]):.6e}, rebuilt "
        f"{float(rebuilt.flat[worst]):.6e}; rtol={rtol:g}, atol={atol:g})"
    ]


def check_corpus(name: str, directory: Optional[str] = None) -> List[str]:
    """Rebuild one corpus and diff it against the committed file.

    Returns drift messages; an empty list means the corpus is clean.  A
    missing committed file is itself drift (run ``--update-golden``).
    """
    path = _corpus_path(name, directory)
    if not os.path.exists(path):
        return [f"{name}: golden file missing ({path}); run with --update-golden"]
    with open(path, "r", encoding="utf-8") as handle:
        stored = json.load(handle)
    rebuilt = build_corpus(name)
    messages: List[str] = []
    if stored.get("seed") != rebuilt["seed"]:
        messages.append(
            f"{name}: corpus seed changed {stored.get('seed')} -> {rebuilt['seed']}"
        )
    sig_tol = stored.get("signature_tolerance", {})
    messages += _compare(
        f"{name}: validation signatures",
        np.asarray(rebuilt["signatures"], dtype=float),
        np.asarray(stored["signatures"], dtype=float),
        rtol=float(sig_tol.get("rtol", SIGNATURE_RTOL)),
        atol=float(sig_tol.get("atol", SIGNATURE_ATOL)),
    )
    spec_tol = stored.get("spec_tolerance", {})
    messages += _compare(
        f"{name}: predicted specs",
        np.asarray(rebuilt["predicted_specs"], dtype=float),
        np.asarray(stored["predicted_specs"], dtype=float),
        rtol=float(spec_tol.get("rtol", SPEC_RTOL)),
        atol=float(spec_tol.get("atol", SPEC_ATOL)),
    )
    return messages


def check_all_corpora(directory: Optional[str] = None) -> Dict[str, List[str]]:
    """Drift messages per corpus (all empty = no drift)."""
    return {name: check_corpus(name, directory) for name in corpus_names()}


def update_golden(
    directory: Optional[str] = None,
    names: Optional[Sequence[str]] = None,
    n_cases: int = 25,
    master_seed: Optional[int] = None,
) -> List[str]:
    """Regenerate committed corpora -- refused while relations fail.

    Runs a relation campaign first and raises :class:`GoldenUpdateRefused`
    on any violation: golden data exists to pin *correct* behavior, so a
    tree that breaks the physics invariants may not redefine it.  Returns
    the paths written.
    """
    from repro.verify.harness import DEFAULT_MASTER_SEED, run_campaign

    campaign = run_campaign(
        n_cases=n_cases,
        master_seed=DEFAULT_MASTER_SEED if master_seed is None else master_seed,
    )
    if not campaign.ok:
        failing = [r.name for r in campaign.relations if not r.ok]
        raise GoldenUpdateRefused(
            f"relation campaign failed ({', '.join(failing)}); fix the "
            f"violations before regenerating golden data"
        )
    target = golden_dir(directory)
    os.makedirs(target, exist_ok=True)
    written: List[str] = []
    for name in names if names is not None else corpus_names():
        corpus = build_corpus(name)
        path = _corpus_path(name, target)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(corpus, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written
