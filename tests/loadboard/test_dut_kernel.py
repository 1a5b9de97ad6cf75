"""The board's batched DUT stage vs the per-device loops it replaced.

``SignatureTestBoard`` and ``BistSignaturePath`` share three kernels:
:func:`envelope_coefficients` + :func:`overdrive_ratios` (the overdrive
bookkeeping), :func:`repro.circuits.nonlinear.describing_gain_batch`
(the tuned DUT gain) and the device-noise rows (``device_noise_sigmas``
and ``_add_noise_rows``, whose whole-envelope form is the oracle
:func:`repro.verify.reference.add_device_noise`).  Each must equal the
old one-device-at-a-time code bit for bit.
"""

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.noisefig import added_output_noise_vrms
from repro.circuits.nonlinear import PolynomialNonlinearity
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.scenario_paths import BistPathConfig, BistSignaturePath
from repro.loadboard.signature_path import (
    SignatureTestBoard,
    envelope_coefficients,
    overdrive_ratios,
    simulation_config,
)
from repro.verify.reference import add_device_noise, dut_response_batch

ENGINE_RATE = 80e6


def make_lot(n, seed=7):
    rng = np.random.default_rng(seed)
    return [
        BehavioralAmplifier(
            900e6,
            16.0 + rng.normal(0.0, 0.5),
            2.0 + abs(rng.normal(0.0, 0.2)),
            rng.uniform(-10.0, 10.0),
        )
        for _ in range(n)
    ]


def _oracle_noise(env, devices, gens, engine_rate):
    """The per-device loop: specs, sigma, two normals, one row add."""
    noisy = np.array(env, dtype=complex)
    n = noisy.shape[1]
    for i, (device, g) in enumerate(zip(devices, gens)):
        if g is None:
            continue
        specs = device.specs()
        sigma = added_output_noise_vrms(specs.gain_db, specs.nf_db, engine_rate)
        if sigma > 0.0:
            noisy[i] = noisy[i] + sigma * (g.normal(size=n) + 1j * g.normal(size=n))
    return noisy


class TestOverdriveRatios:
    def test_matches_per_device_polynomials(self):
        devices = make_lot(12)
        coeffs = envelope_coefficients(devices)
        assert coeffs.shape == (12, 3)
        peak = 0.37
        want = []
        for d in devices:
            sat = PolynomialNonlinearity(*d.envelope_poly()).saturation_amplitude
            want.append(peak / sat if np.isfinite(sat) else 0.0)
        assert np.array_equal(overdrive_ratios(coeffs, peak), want)

    def test_non_saturating_rows_read_zero(self):
        coeffs = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, 0.1], [np.nan, 0.0, -0.1]])
        assert np.array_equal(overdrive_ratios(coeffs, 1.0), [0.0, 0.0, 0.0])

    def test_empty_lot(self):
        coeffs = envelope_coefficients([])
        assert coeffs.shape == (0, 3)
        assert overdrive_ratios(coeffs, 1.0).shape == (0,)


class TestAddDeviceNoise:
    @pytest.mark.parametrize("n_rows", [1, 5, 64])
    def test_matches_per_device_loop(self, n_rows):
        devices = make_lot(n_rows)
        rng = np.random.default_rng(n_rows)
        env = rng.normal(size=(n_rows, 97)) + 1j * rng.normal(size=(n_rows, 97))
        seeds = rng.integers(0, 2**63, size=n_rows)
        # every third row has no generator: it must pass untouched and
        # must not shift the other rows' streams
        def gens():
            return [
                None if i % 3 == 1 else np.random.default_rng(int(s))
                for i, s in enumerate(seeds)
            ]

        got_gens, want_gens = gens(), gens()
        got = add_device_noise(env, devices, got_gens, ENGINE_RATE)
        want = _oracle_noise(env, devices, want_gens, ENGINE_RATE)
        assert np.array_equal(got, want)
        # the generators are left in the same state for the next stage
        for g1, g2 in zip(got_gens, want_gens):
            if g1 is not None:
                assert g1.integers(0, 2**62) == g2.integers(0, 2**62)

    def test_real_envelope_is_promoted(self):
        devices = make_lot(3)
        env = np.random.default_rng(1).normal(size=(3, 40))
        got = add_device_noise(env, devices, [np.random.default_rng(i) for i in range(3)], ENGINE_RATE)
        want = _oracle_noise(env, devices, [np.random.default_rng(i) for i in range(3)], ENGINE_RATE)
        assert got.dtype == complex
        assert np.array_equal(got, want)

    def test_no_generators_returns_input(self):
        env = np.ones((2, 8), dtype=complex)
        assert add_device_noise(env, make_lot(2), [None, None], ENGINE_RATE) is env


class TestBoardDutStage:
    def test_dut_response_matches_per_device_describing_function(self):
        board = SignatureTestBoard(simulation_config())
        rng = np.random.default_rng(3)
        stimulus = PiecewiseLinearStimulus(rng.uniform(-0.3, 0.3, 12), 5e-6, 0.4)
        plan = board.capture_plan(stimulus)
        devices = make_lot(16)
        out = dut_response_batch(board, plan, devices)
        grid = np.linspace(0.0, 1.01 * plan.peak, 256)
        for i, d in enumerate(devices):
            poly = PolynomialNonlinearity(*d.envelope_poly())
            # a one-stimulus plan is the S = 1 stack: its drive is row 0
            gain = np.interp(plan.amps[0], grid, poly.describing_function(grid))
            assert np.array_equal(out.harmonic(1)[i], gain * plan.u1[0])
        # each device's overdrive: the plan's peak over its own
        # saturation amplitude
        ratios = overdrive_ratios(
            envelope_coefficients(devices), board.peak_drive(stimulus)
        )
        for i, d in enumerate(devices):
            sat = PolynomialNonlinearity(*d.envelope_poly()).saturation_amplitude
            assert ratios[i] == (plan.peak / sat if np.isfinite(sat) else 0.0)

    def test_bist_path_rows_equal_one_device_captures(self):
        path = BistSignaturePath(BistPathConfig())
        devices = make_lot(6)
        rng = np.random.default_rng(5)
        stimulus = PiecewiseLinearStimulus(rng.uniform(-0.8, 0.8, 6), duration=5e-6)
        seeds = [11, 12, 13, 14, 15, 16]
        batch = path.signature_batch(
            devices, stimulus, rngs=[np.random.default_rng(s) for s in seeds]
        )
        for i, (d, s) in enumerate(zip(devices, seeds)):
            solo = path.signature(d, stimulus, np.random.default_rng(s))
            assert np.array_equal(batch[i], solo)
