"""The capture-chain compiler: lowering identities and bit-identity.

Two contracts pin the compiled whole-lot program:

* every smart-constructor rewrite in :class:`CaptureTape` rests on a
  *bitwise* NumPy identity -- ``TestLoweringIdentities`` asserts each
  one on random data, and ``TestTapeConstruction`` checks the tape only
  reorders operands where the identity licenses it;
* every board entry point (``signature_batch``, ``capture_batch``,
  ``signature``, ``time_signature``) is ``np.array_equal`` to the
  uncompiled reference oracle for every configuration regime, lot size
  (including empty), executor backend and chunking.
"""

import dataclasses
import pickle
import threading

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.capture_compiler import (
    CaptureTape,
    _apply_kernel,
    block_rows,
    trace_mixer_baseband,
)
from repro.loadboard.signature_path import (
    SignatureTestBoard,
    hardware_config,
    simulation_config,
)
from repro.parallel import ThreadExecutor, spawn_generators
from repro.runtime.calibration import measure_signatures
from repro.verify.reference import reference_front_matrix, reference_signature_batch


@pytest.fixture
def stim():
    rng = np.random.default_rng(9)
    return PiecewiseLinearStimulus(rng.uniform(-0.25, 0.25, 16), 5e-6, 0.4)


def make_lot(n=5):
    rng = np.random.default_rng(7)
    return [
        BehavioralAmplifier(
            900e6,
            16.0 + rng.normal(0.0, 0.5),
            2.0 + abs(rng.normal(0.0, 0.2)),
            10.0 + rng.normal(0.0, 1.0),
        )
        for i in range(n)
    ]


def engines_agree(cfg, devices, stim, seed=42, entry="signature_batch"):
    """(oracle, entry-point) result matrices on fresh boards.

    ``entry`` names the board method under test, fed the per-device
    streams spawned from ``seed``.  Signature entry points
    (``signature_batch``, ``signature``) are compared with
    ``reference_signature_batch``; record entry points
    (``capture_batch``, ``time_signature``) with the oracle's digitized
    records (uncompiled front half plus the shared digitizer).
    """
    oracle = SignatureTestBoard(cfg)
    gens = spawn_generators(np.random.default_rng(seed), len(devices))
    if entry in ("signature_batch", "signature"):
        ref = reference_signature_batch(oracle, devices, stim, rngs=gens)
    else:
        filtered = reference_front_matrix(oracle, devices, stim, gens)
        ref = oracle.digitize_matrix(filtered, gens)

    board = SignatureTestBoard(cfg)
    gens = spawn_generators(np.random.default_rng(seed), len(devices))
    if entry == "signature_batch":
        other = board.signature_batch(devices, stim, rngs=gens)
    elif entry == "capture_batch":
        records = board.capture_batch(devices, stim, rngs=gens)
        other = np.array([w.samples for w in records])
    else:
        method = getattr(board, entry)
        other = np.array([method(d, stim, rng=g) for d, g in zip(devices, gens)])
    return ref, other


# ----------------------------------------------------------------------
# the bitwise identities the smart constructors rely on
# ----------------------------------------------------------------------
class TestLoweringIdentities:
    """Each rewrite the tape applies, asserted bitwise on random data."""

    @pytest.fixture
    def cplx(self):
        rng = np.random.default_rng(11)
        def draw():
            return rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
        return draw

    def test_product_real_part_commutes(self, cplx):
        a, b = cplx(), cplx()
        assert np.array_equal((a * b).real, (b * a).real)

    def test_real_operand_product_commutes_fully(self, cplx):
        c = cplx()
        r = c.real + 0.0  # real-dtype operand, as the tape coerces h=0
        assert np.array_equal(r * c, c * r)

    def test_conj_distributes_over_product(self, cplx):
        a, b = cplx(), cplx()
        assert np.array_equal(np.conjugate(a) * np.conjugate(b), np.conjugate(a * b))

    def test_conj_distributes_over_sum(self, cplx):
        a, b = cplx(), cplx()
        assert np.array_equal(np.conjugate(a) + np.conjugate(b), np.conjugate(a + b))

    def test_conj_mirrored_products_share_real_part(self, cplx):
        a, b = cplx(), cplx()
        assert np.array_equal((a * np.conjugate(b)).real, (np.conjugate(a) * b).real)
        assert np.array_equal((b * np.conjugate(a)).real, (a * np.conjugate(b)).real)

    def test_power_of_two_scaling_roundtrips(self, cplx):
        x = cplx()
        assert np.array_equal((x * 2.0) / 2.0, x)
        assert np.array_equal((x / 2.0) * 2.0, x)

    def test_conj_commutes_with_halving(self, cplx):
        x = cplx()
        assert np.array_equal(np.conjugate(x) / 2.0, np.conjugate(x / 2.0))

    def test_real_part_distributes_over_sum(self, cplx):
        a, b = cplx(), cplx()
        assert np.array_equal((a + b).real, a.real + b.real)

    def test_real_operand_pulls_out_of_real_part(self, cplx):
        c = cplx()
        r = c.real + 0.0
        assert np.array_equal((r * c).real, r * c.real)

    def test_real_scalar_pulls_out_of_real_part(self, cplx):
        c = cplx()
        assert np.array_equal((c * 0.37).real, c.real * 0.37)


class TestTapeConstruction:
    """The tape reorders operands only where an identity licenses it."""

    def test_complex_product_keeps_operand_order(self):
        # complex x complex does NOT commute bitwise in the imaginary
        # component (FMA contraction is operand-asymmetric), so the tape
        # must keep the traced order even when ids would sort otherwise
        tape = CaptureTape()
        a = tape.input_("rf", 1)
        b = tape.input_("rf", 2)
        nid = tape.mul(b, a)
        assert tape.nodes[nid].args == (b, a)

    def test_real_operand_product_sorts(self):
        tape = CaptureTape()
        r = tape.input_("rf", 0, dtype="r")
        c = tape.input_("rf", 1)
        assert tape.nodes[tape.mul(c, r)].args == (r, c)

    def test_products_are_hash_consed(self):
        tape = CaptureTape()
        a, b = tape.input_("rf", 1), tape.input_("rf", 2)
        assert tape.mul(a, b) == tape.mul(a, b)

    def test_identity_scale_is_elided(self):
        tape = CaptureTape()
        a = tape.input_("rf", 1)
        assert tape.scale(a, 1.0) == a
        assert tape.scale(a, 0.5) != a

    def test_conj_of_real_is_identity(self):
        tape = CaptureTape()
        r = tape.input_("rf", 0, dtype="r")
        assert tape.conj(r) == r

    def test_double_then_half_cancels(self):
        tape = CaptureTape()
        a = tape.input_("rf", 1)
        assert tape.half(tape.double(a)) == a
        assert tape.double(tape.half(a)) == a

    def test_mirrored_products_share_one_real_node(self):
        tape = CaptureTape()
        a, b = tape.input_("rf", 1), tape.input_("rf", 2)
        r1 = tape.real(tape.mul(a, tape.conj(b)))
        r2 = tape.real(tape.mul(tape.conj(a), b))
        assert r1 == r2

    def test_fingerprint_detects_structure_change(self):
        cfg = simulation_config()
        t1, o1 = trace_mixer_baseband(cfg.mixer2, (0, 1), (1,), cfg.max_harmonic)
        t2, o2 = trace_mixer_baseband(cfg.mixer2, (0, 1, 2), (1,), cfg.max_harmonic)
        assert t1.fingerprint(o1) != t2.fingerprint(o2)
        t3, o3 = trace_mixer_baseband(cfg.mixer2, (0, 1), (1,), cfg.max_harmonic)
        assert t1.fingerprint(o1) == t3.fingerprint(o3)


# ----------------------------------------------------------------------
# compiled == oracle, bit for bit
# ----------------------------------------------------------------------
class TestCompiledBitIdentity:
    @pytest.mark.parametrize("coupling", ["tuned", "wideband"])
    @pytest.mark.parametrize("bits", [None, 12])
    def test_coupling_and_quantization(self, stim, coupling, bits):
        cfg = dataclasses.replace(
            simulation_config(), dut_coupling=coupling, digitizer_bits=bits
        )
        ref, comp = engines_agree(cfg, make_lot(), stim)
        assert np.array_equal(ref, comp)

    def test_random_path_phase(self, stim):
        cfg = dataclasses.replace(simulation_config(), random_path_phase=True)
        ref, comp = engines_agree(cfg, make_lot(), stim)
        assert np.array_equal(ref, comp)

    def test_lo_offset(self, stim):
        cfg = dataclasses.replace(simulation_config(), lo_offset_hz=100e3)
        ref, comp = engines_agree(cfg, make_lot(), stim)
        assert np.array_equal(ref, comp)

    def test_hardware_config(self, stim):
        ref, comp = engines_agree(hardware_config(), make_lot(3), stim)
        assert np.array_equal(ref, comp)

    def test_single_device_and_empty_lot(self, stim):
        cfg = simulation_config()
        ref1, comp1 = engines_agree(cfg, make_lot(1), stim)
        assert np.array_equal(ref1, comp1)
        ref0, comp0 = engines_agree(cfg, [], stim)
        assert comp0.shape == (0, ref1.shape[1])
        assert np.array_equal(ref0, comp0)

    def test_matches_per_device_signature(self, stim):
        cfg = simulation_config()
        devices = make_lot()
        board = SignatureTestBoard(cfg)
        batch = board.signature_batch(
            devices, stim, rngs=spawn_generators(np.random.default_rng(3), len(devices))
        )
        board2 = SignatureTestBoard(cfg)
        gens = spawn_generators(np.random.default_rng(3), len(devices))
        for i, (dev, g) in enumerate(zip(devices, gens)):
            assert np.array_equal(batch[i], board2.signature(dev, stim, rng=g))


_ENTRY_CONFIGS = {
    "tuned": simulation_config,
    "wideband": lambda: dataclasses.replace(
        simulation_config(), dut_coupling="wideband"
    ),
    # random path phase, offset LO, 12-bit quantizer
    "hardware": hardware_config,
}


class TestEntryPoints:
    """The per-device and record entry points run the compiled program too."""

    @pytest.mark.parametrize("entry", ["capture_batch", "signature", "time_signature"])
    @pytest.mark.parametrize("config", sorted(_ENTRY_CONFIGS))
    def test_entry_point_equals_oracle(self, stim, entry, config):
        cfg = _ENTRY_CONFIGS[config]()
        ref, comp = engines_agree(cfg, make_lot(3), stim, entry=entry)
        assert ref.shape == comp.shape
        assert np.array_equal(ref, comp)

    def test_capture_leaves_a_compiled_program(self, stim):
        board = SignatureTestBoard(simulation_config())
        board.capture(make_lot(1)[0], stim, np.random.default_rng(2))
        assert len(board._programs) == 1


class TestExecutorBackends:
    """Compiled captures across executor backends, incl. degenerate lots."""

    @pytest.mark.parametrize("executor", [None, "thread:2", "process:2"])
    def test_empty_and_single_device(self, stim, executor):
        cfg = simulation_config()
        board = SignatureTestBoard(cfg)
        serial_one = measure_signatures(
            board, stim, make_lot(1), np.random.default_rng(8)
        )
        board2 = SignatureTestBoard(cfg)
        one = measure_signatures(
            board2, stim, make_lot(1), np.random.default_rng(8),
            executor=executor,
        )
        assert np.array_equal(serial_one, one)
        empty = measure_signatures(
            board2, stim, [], np.random.default_rng(8), executor=executor
        )
        assert empty.shape == (0, one.shape[1])

    @pytest.mark.parametrize("chunksize", [1, 2])
    def test_thread_chunking_identity(self, stim, chunksize):
        cfg = simulation_config()
        devices = make_lot(4)
        serial = measure_signatures(
            SignatureTestBoard(cfg), stim, devices, np.random.default_rng(6)
        )
        board = SignatureTestBoard(cfg)
        # one shared board: chunks of equal batch size execute the same
        # compiled program concurrently (regression for the workspace race)
        for _ in range(3):
            threaded = measure_signatures(
                board, stim, devices, np.random.default_rng(6),
                executor=ThreadExecutor(2), chunksize=chunksize,
            )
            assert np.array_equal(serial, threaded)


# ----------------------------------------------------------------------
# plan-cache hygiene
# ----------------------------------------------------------------------
def _stimuli(k):
    rng = np.random.default_rng(21)
    return [
        PiecewiseLinearStimulus(rng.uniform(-0.25, 0.25, 16), 5e-6, 0.4)
        for _ in range(k)
    ]


class TestProgramCache:
    def test_one_program_serves_every_stimulus(self):
        cfg = simulation_config()
        board = SignatureTestBoard(cfg)
        devices = make_lot(3)
        stimuli = _stimuli(5)
        shared = [
            board.signature_batch(devices, s, rngs=spawn_generators(8, len(devices)))
            for s in stimuli
        ]
        assert len(board._plan_cache) == len(stimuli)
        assert len(board._programs) == 1
        for s, sig in zip(stimuli, shared):
            fresh = SignatureTestBoard(cfg).signature_batch(
                devices, s, rngs=spawn_generators(8, len(devices))
            )
            assert np.array_equal(sig, fresh)

    def test_clear_plan_cache_drops_programs(self, stim):
        board = SignatureTestBoard(simulation_config())
        board.signature_batch(make_lot(2), stim, rngs=spawn_generators(1, 2))
        assert board._programs
        board.clear_plan_cache()
        assert not board._plan_cache and not board._programs


class TestPlanCacheBytes:
    def test_hard_bound_evicts_lru_plans_keeps_newest(self):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot(2)
        stimuli = _stimuli(3)
        for s in stimuli:
            board.signature_batch(devices, s, rngs=spawn_generators(1, len(devices)))
        board._plan_cache_max_bytes = 0
        board._enforce_plan_cache_bytes()
        assert len(board._plan_cache) == 1
        newest = board.capture_plan(stimuli[-1])
        assert next(iter(board._plan_cache.values())) is newest

    def test_bound_enforced_during_capture(self):
        board = SignatureTestBoard(simulation_config())
        board._plan_cache_max_bytes = 1
        devices = make_lot(2)
        for s in _stimuli(4):
            board.signature_batch(devices, s, rngs=spawn_generators(1, len(devices)))
            assert len(board._plan_cache) == 1

    def test_workspaces_bounded_by_one_block(self, stim):
        cfg = simulation_config()
        board = SignatureTestBoard(cfg)
        board.signature_batch(make_lot(3), stim, rngs=spawn_generators(4, 3))
        program = next(iter(board._programs.values()))
        one_block = program.nbytes()
        rows = block_rows(board.capture_plan(stim).n)
        devices = make_lot(2 * rows + 3)
        big = board.signature_batch(devices, stim, rngs=spawn_generators(4, len(devices)))
        # a lot of three blocks streams through the same block-sized set
        assert program.nbytes() == one_block
        (ws,) = program._workspaces.values()
        assert {buf.shape[0] for buf in ws.bufs} == {rows}
        ref = reference_signature_batch(
            SignatureTestBoard(cfg), devices, stim, rngs=spawn_generators(4, len(devices))
        )
        assert np.array_equal(big, ref)

    def test_execute_rejects_more_than_one_block(self, stim):
        board = SignatureTestBoard(simulation_config())
        board.signature_batch(make_lot(1), stim)
        program = next(iter(board._programs.values()))
        n = board.capture_plan(stim).n
        rf = {h: np.zeros((block_rows(n) + 1, n), dtype=complex)
              for kind, h in program.input_keys if kind == "rf"}
        with pytest.raises(ValueError, match="exceeds one block"):
            program.execute(rf)


def _compiled(cfg, stim):
    """A board's compiled program for ``cfg`` after a one-block capture."""
    board = SignatureTestBoard(cfg)
    n = board.capture_plan(stim).n
    rows = block_rows(n)
    board.signature_batch(make_lot(rows), stim, rngs=spawn_generators(1, rows))
    return next(iter(board._programs.values())), n


def _random_inputs(program, rows, n, seed):
    """Random ``(rf, lo)`` runtime inputs of ``rows`` rows."""
    rng = np.random.default_rng(seed)
    inputs = {"rf": {}, "lo": {}}
    for kind, harmonic in program.input_keys:
        arr = rng.normal(size=(rows, n))
        if program._input_dtype[(kind, harmonic)] == "c":
            arr = arr + 1j * rng.normal(size=(rows, n))
        inputs[kind][harmonic] = arr
    return inputs["rf"], inputs["lo"]


def _step_loop(program, rf, lo):
    """The oracle of the bound op list: ``_apply_kernel`` per scheduled
    step over fresh buffers, operands looked up on every step."""
    inputs = {}
    for key in program.input_keys:
        kind, harmonic = key
        arr = np.asarray((rf if kind == "rf" else lo)[harmonic])
        inputs[key] = arr.real if program._input_dtype[key] == "r" else arr
    shape = next(iter(inputs.values())).shape
    bufs = [
        np.empty(shape, dtype=complex if dt == "c" else float)
        for dt in program._slot_dtype
    ]

    def fetch(src):
        kind, ref = src
        if kind == "buf":
            return bufs[ref]
        return program.consts[ref] if kind == "const" else inputs[ref]

    for step in program.steps:
        b = fetch(step.b) if step.b is not None else None
        _apply_kernel(step.node, fetch(step.a), b, out=bufs[step.out_slot])
    return bufs[program._out_slot]


class TestBoundOpList:
    """``execute`` runs an op list bound to the thread's workspace: kept
    for full blocks, built per call for tail blocks."""

    @pytest.mark.parametrize(
        "config",
        [
            "tuned",
            # the LO is a runtime input too: two input-fed steps rebound
            # on every call
            "random_phase",
        ],
    )
    def test_equals_the_step_loop(self, stim, config):
        cfg = simulation_config()
        if config == "random_phase":
            cfg = dataclasses.replace(cfg, random_path_phase=True)
        program, n = _compiled(cfg, stim)
        full = block_rows(n)
        # full, tail and 1-row blocks, and back: the full-block list is
        # kept and reused, a tail's is built for its call
        (ws,) = program._workspaces.values()
        kept = ws.full
        assert kept is not None
        for k, rows in enumerate((full, 7, 1, full, 7)):
            rf, lo = _random_inputs(program, rows, n, seed=k)
            got = program.execute(rf, lo).copy()
            assert got.shape == (rows, n)
            assert np.array_equal(got, _step_loop(program, rf, lo))
            assert ws.full is kept

    def test_inputs_are_not_kept_after_a_call(self, stim):
        cfg = dataclasses.replace(simulation_config(), random_path_phase=True)
        program, n = _compiled(cfg, stim)
        rf, lo = _random_inputs(program, block_rows(n), n, seed=1)
        program.execute(rf, lo)
        (ws,) = program._workspaces.values()
        ops, late, _ = ws.full
        assert len(late) == 2
        assert all(ops[entry[0]] is None for entry in late)

    def test_two_threads_share_one_program(self, stim):
        program, n = _compiled(simulation_config(), stim)
        rows = (block_rows(n), 5)
        barrier = threading.Barrier(2)
        mismatches = []

        def work(t):
            barrier.wait()
            for k in range(20):
                rf, lo = _random_inputs(program, rows[(t + k) % 2], n, seed=100 * t + k)
                got = program.execute(rf, lo).copy()
                if not np.array_equal(got, _step_loop(program, rf, lo)):
                    mismatches.append((t, k))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert mismatches == []
        # one workspace, with its full-block list, per thread
        assert len(program._workspaces) >= 2
        assert all(ws.full is not None for ws in program._workspaces.values())


class TestPickling:
    def test_program_roundtrip_drops_workspaces(self, stim):
        board = SignatureTestBoard(simulation_config())
        board.signature_batch(make_lot(2), stim, rngs=spawn_generators(3, 2))
        plan = next(iter(board._plan_cache.values()))
        program = next(iter(board._programs.values()))
        # populated by the capture, with the op list bound to them
        assert program._workspaces
        program.execute(*_random_inputs(program, block_rows(plan.n), plan.n, seed=2))
        assert all(ws.full is not None for ws in program._workspaces.values())
        clone = pickle.loads(pickle.dumps(program))
        assert clone._workspaces == {}
        rng = np.random.default_rng(13)
        inputs = {"rf": {}, "lo": {}}
        for kind, harmonic in program.input_keys:
            arr = rng.normal(size=(2, plan.n))
            if program._input_dtype[(kind, harmonic)] == "c":
                arr = arr + 1j * rng.normal(size=(2, plan.n))
            inputs[kind][harmonic] = arr
        out = program.execute(inputs["rf"], inputs["lo"])
        out_clone = clone.execute(inputs["rf"], inputs["lo"])
        assert np.array_equal(out, out_clone)
        assert list(clone._workspaces) == [(threading.get_ident(), plan.n)]

    def test_board_roundtrip_recompiles_same_fingerprint(self, stim):
        board = SignatureTestBoard(simulation_config())
        devices = make_lot(2)
        first = board.signature_batch(devices, stim, rngs=spawn_generators(3, 2))
        clone = pickle.loads(pickle.dumps(board))
        # compiled programs stay behind, like plans; the worker-side
        # board recompiles the same tape on its first capture
        assert len(clone._programs) == 0
        again = clone.signature_batch(devices, stim, rngs=spawn_generators(3, 2))
        assert np.array_equal(first, again)
        assert set(clone._programs) == set(board._programs)
        for key, program in board._programs.items():
            assert clone._programs[key].fingerprint == program.fingerprint

    def test_process_executor_identity(self, stim):
        cfg = simulation_config()
        devices = make_lot(4)
        serial = measure_signatures(
            SignatureTestBoard(cfg), stim, devices, np.random.default_rng(6)
        )
        pooled = measure_signatures(
            SignatureTestBoard(cfg), stim, devices, np.random.default_rng(6),
            executor="process:2", chunksize=2,
        )
        assert np.array_equal(serial, pooled)
