"""The row-blocked back half against the whole-batch oracle.

``SignatureTestBoard`` runs every device-dependent stage (DUT gain,
envelope bandwidth, output loss, device noise, path phase, compiled
mixer-2 tape, LPF, digitizer, FFT) over blocks of ``block_rows(n)``
rows.  The uncompiled oracle ``reference_signature_batch`` runs each
stage over the whole batch at once; the two must agree bit for bit at
every lot size around a block boundary, for every configuration regime.
A plan stack / ``signature_grid`` (one capture for many stimuli) must
equal the one-stimulus plan and capture.
"""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.device import SpecSet
from repro.circuits.noisefig import added_output_noise_vrms
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.capture_compiler import CompiledCaptureProgram, block_rows
from repro.loadboard.signature_path import (
    SignatureTestBoard,
    _row_blocks,
    device_noise_sigmas,
    hardware_config,
    simulation_config,
)
from repro.parallel import spawn_generators
from repro.verify.reference import reference_front_matrix, reference_signature_batch


def make_lot(n, seed=7, bandwidths=False):
    """Mild devices, every 100th one driven past its fold-back point."""
    rng = np.random.default_rng(seed)
    return [
        BehavioralAmplifier(
            900e6,
            16.0 + rng.normal(0.0, 0.5),
            2.0 + abs(rng.normal(0.0, 0.2)),
            rng.uniform(-10.0, 0.0) if i % 100 == 0 else 10.0 + rng.normal(0.0, 1.0),
            # every third device without envelope dynamics, the rest in
            # two bandwidth groups
            envelope_bandwidth=(
                None if not bandwidths or i % 3 == 0 else (2e6, 5e6)[i % 2]
            ),
        )
        for i in range(n)
    ]


def stimuli(k, seed=21):
    rng = np.random.default_rng(seed)
    return [
        PiecewiseLinearStimulus(rng.uniform(-0.3, 0.3, 12), 5e-6, 0.4)
        for _ in range(k)
    ]


_CONFIGS = {
    "simulation": simulation_config,
    "wideband": lambda: dataclasses.replace(
        simulation_config(), dut_coupling="wideband"
    ),
    "output_loss": lambda: dataclasses.replace(
        simulation_config(), output_loss_db=2.5
    ),
}


def _cases(rows):
    """(config, noisy, n): every size around a block boundary, noisy
    and noise-free, and a noisy 1,000-row lot (25 blocks) on the
    simulation config; the wideband and output-loss regimes at the
    sizes that change the block layout (the wideband oracle is the
    slow one)."""
    sizes = sorted({0, 1, max(rows - 1, 0), rows, rows + 1})
    cases = [("simulation", noisy, n) for noisy in (True, False) for n in sizes]
    cases += [("simulation", True, 1000)]
    for config in ("wideband", "output_loss"):
        cases += [(config, True, n) for n in (0, 1, rows + 1)]
        cases += [(config, False, rows + 1)]
    return cases


def _agree(cfg, devices, stim, seed):
    """(oracle, blocked) signature matrices on fresh boards."""
    gens = None if seed is None else spawn_generators(seed, len(devices))
    ref = reference_signature_batch(
        SignatureTestBoard(cfg), devices, stim, rngs=gens
    )
    gens = None if seed is None else spawn_generators(seed, len(devices))
    out = SignatureTestBoard(cfg).signature_batch(devices, stim, rngs=gens)
    return ref, out


class TestBlockedBackHalf:
    ROWS = block_rows(SignatureTestBoard(simulation_config()).capture_plan(
        stimuli(1)[0]
    ).n)

    @pytest.mark.parametrize("config, noisy, n", _cases(ROWS))
    def test_signature_batch_equals_oracle(self, config, noisy, n):
        cfg = _CONFIGS[config]()
        ref, out = _agree(cfg, make_lot(n), stimuli(1)[0], 5 if noisy else None)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("n", [1, 41, 100])
    def test_envelope_bandwidth_devices(self, n):
        devices = make_lot(n, bandwidths=True)
        ref, out = _agree(simulation_config(), devices, stimuli(1)[0], 9)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("noisy", [True, False])
    def test_records_and_filtered_rows(self, noisy):
        cfg = simulation_config()
        devices = make_lot(2 * self.ROWS + 5)
        stim = stimuli(1)[0]
        oracle = SignatureTestBoard(cfg)
        gens = spawn_generators(3, len(devices)) if noisy else [None] * len(devices)
        filtered = reference_front_matrix(oracle, devices, stim, gens)
        records = oracle.digitize_matrix(filtered, gens)

        board = SignatureTestBoard(cfg)
        gens = spawn_generators(3, len(devices)) if noisy else None
        got, _ = board.filtered_baseband_matrix(devices, stim, rngs=gens)
        assert np.array_equal(got, filtered)
        gens = spawn_generators(3, len(devices)) if noisy else None
        waves = board.capture_batch(devices, stim, rngs=gens)
        assert np.array_equal(np.array([w.samples for w in waves]), records)


class TestHardwareBlocks:
    """Hardware rows hold 20,000 samples: every block is one row.

    The random path phase draws from each device's generator between
    its device noise and its digitizer noise, in every block.
    """

    def test_one_row_blocks(self):
        board = SignatureTestBoard(hardware_config())
        assert block_rows(board.capture_plan(stimuli(1)[0]).n) == 1

    # B = 1 here, so 0, 1 and 2 rows are B - 1, B and B + 1
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_signature_batch_equals_oracle(self, n):
        ref, out = _agree(hardware_config(), make_lot(n), stimuli(1)[0], 11)
        assert out.shape == ref.shape
        assert np.array_equal(out, ref)

    def test_random_phase_needs_generators(self):
        board = SignatureTestBoard(hardware_config())
        with pytest.raises(ValueError, match="random_path_phase"):
            board.signature_batch(make_lot(2), stimuli(1)[0])


class TestStopStage:
    """Which back-half stages a capture runs, seen through spies."""

    def test_each_block_runs_the_program_once(self, monkeypatch):
        board = SignatureTestBoard(simulation_config())
        rows = block_rows(board.capture_plan(stimuli(1)[0]).n)
        blocks = []
        execute = CompiledCaptureProgram.execute

        def counting(program, rf, lo=None):
            blocks.append(len(next(iter(rf.values()))))
            return execute(program, rf, lo)

        monkeypatch.setattr(CompiledCaptureProgram, "execute", counting)
        board.signature_batch(
            make_lot(3 * rows), stimuli(1)[0], rngs=spawn_generators(1, 3 * rows)
        )
        assert blocks == [rows, rows, rows]

    def test_filtered_capture_stops_at_the_filter(self, monkeypatch):
        import repro.loadboard.signature_path as signature_path

        def never(*args, **kwargs):
            raise AssertionError("a filtered capture ran a later stage")

        board = SignatureTestBoard(simulation_config())
        monkeypatch.setattr(board, "digitize_matrix", never)
        monkeypatch.setattr(signature_path, "fft_magnitude_signature_matrix", never)
        filtered, _ = board.filtered_baseband_matrix(make_lot(2), stimuli(1)[0])
        assert filtered.shape == (2, board.capture_plan(stimuli(1)[0]).n)


class TestSaturationOnce:
    """A capture reads its lot's saturation amplitudes at most once."""

    @pytest.mark.parametrize("config", ["simulation", "wideband"])
    def test_one_call_per_capture(self, monkeypatch, config):
        # a tuned plan's GainLot holds them; a wideband capture needs none
        import repro.circuits.nonlinear as nonlinear
        import repro.loadboard.signature_path as signature_path

        seen = []
        real = nonlinear.saturation_amplitudes

        def counting(coeffs):
            seen.append(len(coeffs))
            return real(coeffs)

        monkeypatch.setattr(nonlinear, "saturation_amplitudes", counting)
        monkeypatch.setattr(signature_path, "saturation_amplitudes", counting)
        board = SignatureTestBoard(_CONFIGS[config]())
        stim = stimuli(1)[0]
        board.capture_plan(stim)
        devices = make_lot(TestBlockedBackHalf.ROWS + 3)
        board.signature_batch(devices, stim, rngs=spawn_generators(2, len(devices)))
        assert seen == ([len(devices)] if config == "simulation" else [])


class _SpecsOnly(BehavioralAmplifier):
    """A nominal amplifier whose specs read the given gain and NF, which
    a datasheet device could not have (a negative NF)."""

    def __init__(self, gain_db, nf_db):
        super().__init__(900e6, 16.0, 2.0, 10.0)
        self._specs = SpecSet(gain_db=gain_db, nf_db=nf_db, iip3_dbm=10.0)

    def specs(self):
        return self._specs


class TestLotNoiseSigmas:
    """The lot's device-noise sigmas, computed once before the blocks."""

    RATE = simulation_config().engine_rate

    @pytest.mark.allow_nonfinite
    def test_vector_equals_per_device_function(self):
        devices = make_lot(5) + [
            BehavioralAmplifier(900e6, 16.0, 0.0, 10.0),  # F - 1 = 0: sigma 0
            BehavioralAmplifier(900e6, 3000.0, 2.0, 10.0),  # huge gain
            BehavioralAmplifier(900e6, 3000.0, 300.0, 10.0),  # power overflows
            BehavioralAmplifier(900e6, 16.0, float("nan"), 10.0),
            BehavioralAmplifier(900e6, float("nan"), 2.0, 10.0),
            _SpecsOnly(-4000.0, -1e-9),  # (F - 1) G underflows to -0.0
            _SpecsOnly(float("inf"), 2.0),
        ]
        gens = [np.random.default_rng(i) for i in range(len(devices))]
        gens[1] = gens[3] = None  # rows without a generator read 0
        got = device_noise_sigmas(devices, gens, self.RATE)
        for i, (device, g) in enumerate(zip(devices, gens)):
            specs = device.specs()
            want = 0.0 if g is None else added_output_noise_vrms(
                specs.gain_db, specs.nf_db, self.RATE
            )
            assert np.float64(want).tobytes() == got[i].tobytes(), i
        assert np.signbit(got[-2]) and got[-2] == 0.0
        assert np.isnan(got[-4]) and np.isinf(got[-5])

    def test_zero_sigma_row_draws_nothing(self):
        # nf = 0 dB adds no noise: the row skips the device-noise draws,
        # so its digitizer noise starts where a noise-free board's does
        devices = make_lot(3)
        devices[1] = BehavioralAmplifier(900e6, 16.0, 0.0, 10.0)
        stim = stimuli(1)[0]
        got = SignatureTestBoard(simulation_config()).signature_batch(
            devices, stim, rngs=spawn_generators(4, 3)
        )
        quiet = dataclasses.replace(simulation_config(), include_device_noise=False)
        want = SignatureTestBoard(quiet).signature_batch(
            devices, stim, rngs=spawn_generators(4, 3)
        )
        assert np.array_equal(got[1], want[1])
        assert not np.array_equal(got[0], want[0])

    @pytest.mark.parametrize("n", [1, TestBlockedBackHalf.ROWS + 1, 83])
    def test_rows_without_generators_equal_oracle(self, n):
        devices = make_lot(n)
        stim = stimuli(1)[0]

        def gens():
            return [
                None if i % 3 == 1 else g
                for i, g in enumerate(spawn_generators(6, n))
            ]

        ref = reference_signature_batch(
            SignatureTestBoard(simulation_config()), devices, stim, rngs=gens()
        )
        out = SignatureTestBoard(simulation_config()).signature_batch(
            devices, stim, rngs=gens()
        )
        assert np.array_equal(out, ref)

    @pytest.mark.allow_nonfinite
    def test_nan_sigma_row_turns_nan_alone(self):
        # a NaN NF draws and scales like any noisy row, so the row turns
        # NaN; its neighbours keep their bits
        n = TestBlockedBackHalf.ROWS + 3
        devices = make_lot(n)
        nan_rows = [2, n - 1]
        for i in nan_rows:
            devices[i] = BehavioralAmplifier(900e6, 16.0, float("nan"), 10.0)
        stim = stimuli(1)[0]
        out = SignatureTestBoard(simulation_config()).signature_batch(
            devices, stim, rngs=spawn_generators(8, n)
        )
        ref = reference_signature_batch(
            SignatureTestBoard(simulation_config()), devices, stim, rngs=spawn_generators(8, n)
        )
        assert np.array_equal(out, ref, equal_nan=True)
        assert np.isnan(out[nan_rows]).all()
        finite = [i for i in range(n) if i not in nan_rows]
        assert np.isfinite(out[finite]).all()
        gens = spawn_generators(8, n)
        alone = SignatureTestBoard(simulation_config()).signature_batch(
            [devices[i] for i in finite], stim, rngs=[gens[i] for i in finite]
        )
        assert np.array_equal(out[finite], alone)


class TestRowBlocks:
    def test_straddle_plans_and_cover_the_grid(self):
        assert _row_blocks(3, 21, 40) == [(0, 40), (40, 63)]
        assert _row_blocks(1, 100, 40) == [(0, 40), (40, 80), (80, 100)]

    def test_empty_grid_runs_one_empty_block(self):
        assert _row_blocks(1, 0, 40) == [(0, 0)]
        assert _row_blocks(0, 5, 40) == [(0, 0)]


def _plan_arrays(plan, s=0):
    """Stimulus ``s``'s rows of a plan stack (the shared second LO whole)."""
    row = slice(s, s + 1)
    arrays = {"record": plan.records[s].samples}
    for name in ("upconverted", "dut_in", "dut_in_sq", "dut_in_cube", "lo2"):
        env = getattr(plan, name)
        if env is not None:
            for h, e in env.envelopes.items():
                arrays[f"{name}[{h}]"] = np.asarray(e) if name == "lo2" else e[row]
    for name in ("u1", "amps"):
        if getattr(plan, name) is not None:
            arrays[name] = getattr(plan, name)[row]
    return arrays


def _plan_stack(cfg, stims):
    board = SignatureTestBoard(cfg)
    return board._build_plans([board._stimulus_record(s) for s in stims])


class TestBatchedPlans:
    @pytest.mark.parametrize("config", sorted(_CONFIGS))
    def test_rows_equal_single_plans(self, config):
        cfg = _CONFIGS[config]()
        stims = stimuli(6)
        stack = _plan_stack(cfg, stims)
        for s, stim in enumerate(stims):
            single = SignatureTestBoard(cfg).capture_plan(stim)
            assert stack.peaks[s] == single.peak
            got, want = _plan_arrays(stack, s), _plan_arrays(single)
            assert got.keys() == want.keys()
            for name in want:
                assert np.array_equal(got[name], want[name]), name

    def test_wideband_peak_is_per_row(self):
        cfg = _CONFIGS["wideband"]()
        stims = stimuli(4)
        peaks = _plan_stack(cfg, stims).peaks.tolist()
        assert len(set(peaks)) == len(stims)
        for stim, peak in zip(stims, peaks):
            assert peak == SignatureTestBoard(cfg).peak_drive(stim)

    def test_stack_bytes_count_every_row(self):
        # the plan-cache budget reads nbytes(): a stack counts each row's
        # arrays and describing-gain grids once, and the shared LO once
        cfg = simulation_config()
        stims = stimuli(4)
        stack = _plan_stack(cfg, stims)
        singles = [SignatureTestBoard(cfg).capture_plan(s) for s in stims]
        lo2 = np.asarray(stack.lo2.envelopes[1]).nbytes
        assert stack.gains.nbytes() > 0
        assert stack.nbytes() == sum(p.nbytes() for p in singles) - 3 * lo2


class TestSignatureGrid:
    @pytest.mark.parametrize(
        "config, n_dev",
        [("simulation", 1), ("simulation", 45), ("wideband", 21)]
        + [(config, 45) for config in ("output_loss", "bandwidths")],
    )
    def test_slices_equal_signature_batch(self, config, n_dev):
        cfg = _CONFIGS.get(config, simulation_config)()
        devices = make_lot(n_dev, bandwidths=config == "bandwidths")
        stims = stimuli(5)
        board = SignatureTestBoard(cfg)
        grid, peaks = board.signature_grid(devices, stims, n_bins=40)
        assert grid.shape == (5, n_dev, 40)
        for s, stim in enumerate(stims):
            single = SignatureTestBoard(cfg)
            want = single.signature_batch(devices, stim, n_bins=40)
            assert np.array_equal(grid[s], want)
            assert peaks[s] == single.peak_drive(stim)

    def test_needs_a_stimulus(self):
        board = SignatureTestBoard(simulation_config())
        with pytest.raises(ValueError, match="at least one stimulus"):
            board.signature_grid(make_lot(2), [])

    @pytest.mark.parametrize(
        "case", ["repeated_object", "equal_coefficients", "other_bandwidth"]
    )
    def test_distinct_devices_captured_once(self, case):
        # a noise-free row depends on its device only through the
        # envelope polynomial and bandwidth: repeats are captured once
        # and scattered
        cfg = simulation_config()
        lot = make_lot(6, bandwidths=True)
        lot[0] = lot[0].with_specs(iip3_dbm=-20.0)  # driven past fold-back
        # distinct objects, equal polynomials: NF moves no coefficient
        twins = [lot[i].with_specs(nf_db=3.5) for i in (0, 1)]
        assert twins[1].envelope_poly() == lot[1].envelope_poly()
        other = lot[1].with_specs()
        other.envelope_bandwidth = 9e6
        extra, captured = {
            "repeated_object": ([lot[0], lot[4], lot[0]], 6),
            "equal_coefficients": (twins, 6),
            "other_bandwidth": ([other], 7),
        }[case]
        devices = lot + extra
        stims = stimuli(3)
        board = SignatureTestBoard(cfg)
        seen = []
        capture_rows = board._capture_rows

        def counting(plans, rows, *args, **kwargs):
            seen.append(len(rows))
            return capture_rows(plans, rows, *args, **kwargs)

        board._capture_rows = counting
        grid, _ = board.signature_grid(devices, stims, n_bins=40)
        assert seen == [captured]
        loop = SignatureTestBoard(cfg)
        want = np.stack(
            [loop.signature_batch(devices, stim, n_bins=40) for stim in stims]
        )
        assert np.array_equal(grid, want)


class TestSharedBoardThreads:
    def test_concurrent_generations_on_one_board(self):
        """Threads sharing one board (program cache, per-thread
        workspaces) each get their own batch's grid and peaks back."""
        cfg = simulation_config()
        devices = make_lot(5)
        batches = [stimuli(3, seed=s) for s in range(4)]
        want = [SignatureTestBoard(cfg).signature_grid(devices, b) for b in batches]
        board = SignatureTestBoard(cfg)

        def generation(i):
            return (i,) + board.signature_grid(devices, batches[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(generation, i % 4) for i in range(12)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 12
        for i, grid, peaks in results:
            assert np.array_equal(grid, want[i][0])
            assert np.array_equal(peaks, want[i][1])
