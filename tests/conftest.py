"""Shared fixtures for the test suite."""

import os

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.lna import LNA900
from repro.dsp.mixer import Mixer, MixerHarmonics
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.verify.guards import SANITIZER_MARKER, fp_sanitizer, lock_sanitizer


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        f"{SANITIZER_MARKER}: run this test without the floating-point "
        "sanitizer (NaN/Inf creation will not raise)",
    )
    config.addinivalue_line(
        "markers",
        "no_lock_sanitizer: keep this test outside the REPRO_SANITIZE_LOCKS "
        "lock-order sanitizer window (it patches threading.Lock itself)",
    )


@pytest.fixture(autouse=True)
def _fp_sanitizer(request):
    """Run every test with NaN/Inf creation raising FloatingPointError.

    Opt out per-test with ``@pytest.mark.allow_nonfinite`` when the test
    intentionally exercises non-finite arithmetic.
    """
    if request.node.get_closest_marker(SANITIZER_MARKER) is not None:
        yield
        return
    with fp_sanitizer():
        yield


@pytest.fixture(autouse=True)
def _lock_sanitizer(request):
    """Opt-in lock-order sanitizing for the whole suite.

    With ``REPRO_SANITIZE_LOCKS=1`` every test runs inside
    :func:`~repro.verify.guards.lock_sanitizer`:
    locks constructed during the test are instrumented and an inverted
    acquisition order fails the test immediately instead of deadlocking.
    Tests that exercise the sanitizer itself opt out via the
    ``no_lock_sanitizer`` marker so nested patching stays predictable.
    """
    if os.environ.get("REPRO_SANITIZE_LOCKS") != "1":
        yield
        return
    if request.node.get_closest_marker("no_lock_sanitizer") is not None:
        yield
        return
    with lock_sanitizer(fail_fast=True):
        yield


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def nominal_lna():
    """The 900 MHz LNA at its nominal process point."""
    return LNA900()


@pytest.fixture
def behavioral_amp():
    """A representative behavioral amplifier DUT."""
    return BehavioralAmplifier(
        center_frequency=900e6, gain_db=16.0, nf_db=2.0, iip3_dbm=3.0, iip2_dbm=23.0
    )


@pytest.fixture
def fast_config():
    """A small, noise-free signature-path configuration for fast tests."""
    return SignaturePathConfig(
        carrier_freq=900e6,
        carrier_power_dbm=10.0,
        lpf_cutoff_hz=10e6,
        lpf_order=5,
        digitizer_rate=20e6,
        digitizer_noise_vrms=0.0,
        digitizer_bits=None,
        capture_seconds=5e-6,
        envelope_oversample=4,
        include_device_noise=False,
    )


@pytest.fixture
def fast_board(fast_config):
    return SignatureTestBoard(fast_config)


@pytest.fixture
def ideal_mixer_config(fast_config):
    """Fast config with ideal multipliers (for closed-form comparisons)."""
    fast_config.mixer1 = Mixer(0.5, MixerHarmonics.ideal())
    fast_config.mixer2 = Mixer(0.5, MixerHarmonics.ideal())
    return fast_config


@pytest.fixture
def short_stimulus():
    """A fixed 16-breakpoint PWL stimulus spanning 5 us."""
    levels = np.array(
        [-0.3, -0.25, -0.1, 0.05, 0.2, 0.3, 0.25, 0.1,
         -0.05, -0.2, -0.3, -0.15, 0.0, 0.15, 0.3, 0.2]
    )
    return PiecewiseLinearStimulus(levels, duration=5e-6, v_limit=0.4)
