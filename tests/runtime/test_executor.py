"""Cross-backend determinism suite for the parallel execution engine.

The executor contract (docs/parallelism.md): serial, thread, and
process backends return *bit-identical* results for the same master
seed, because batch call sites derive one independent RNG stream per
task via ``SeedSequence.spawn`` and results are kept in input order.
This suite locks that contract for the three wired hot paths -- GA
fitness evaluation, the production flow, and Monte-Carlo training-set
capture -- plus the executor primitives themselves.
"""

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.parameters import ParameterSpace, ProcessParameter
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.parallel import (
    ProcessExecutor,
    SeedBlock,
    SerialExecutor,
    ThreadExecutor,
    available_cpus,
    default_chunksize,
    get_executor,
    spawn_generators,
    spawn_seeds,
)
from repro.runtime.calibration import CalibrationSession, measure_signatures
from repro.runtime.production import ProductionTestFlow
from repro.runtime.specs import lna_limits
from repro.testgen.genetic import GAConfig, GeneticAlgorithm
from repro.testgen.pwl import StimulusEncoding

#: force >1 worker so the pooled code paths actually run on 1-CPU boxes
BACKENDS = {
    "serial": lambda: SerialExecutor(),
    "thread": lambda: ThreadExecutor(max_workers=4),
    "process": lambda: ProcessExecutor(max_workers=4),
}


def _square(x):
    return x * x


def _rosenbrock(genes):
    """Batch fitness: one Rosenbrock value per gene row."""
    genes = np.asarray(genes)
    return np.sum(
        100.0 * (genes[:, 1:] - genes[:, :-1] ** 2) ** 2 + (1.0 - genes[:, :-1]) ** 2,
        axis=1,
    )


class TestExecutorPrimitives:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_order_preserved(self, backend):
        with BACKENDS[backend]() as ex:
            assert ex.map_tasks(_square, range(37)) == [i * i for i in range(37)]

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_empty_batch(self, backend):
        with BACKENDS[backend]() as ex:
            assert ex.map_tasks(_square, []) == []

    @pytest.mark.parametrize("chunksize", [None, 1, 5, 100])
    def test_chunksize_never_changes_results(self, chunksize):
        with ProcessExecutor(max_workers=2) as ex:
            out = ex.map_tasks(_square, range(23), chunksize=chunksize)
        assert out == [i * i for i in range(23)]

    def test_default_chunksize_bounds(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(3, 4) == 1
        assert default_chunksize(64, 4) == 4
        assert default_chunksize(1000, 1) == 250

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1

    def test_unpicklable_fn_falls_back_to_serial(self):
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.warns(RuntimeWarning, match="falling back to serial"):
                out = ex.map_tasks(lambda x: x + 1, range(8))
            assert out == list(range(1, 9))
            # the executor stays serial (and usable) for its lifetime
            assert ex.map_tasks(_square, [3]) == [9]

    def test_close_lets_queued_tasks_run_out(self):
        # a pool shut down with cancel_futures swaps its pending-work
        # table; a queued task that then fails to pickle is never
        # retired, and the pool's manager thread hangs interpreter exit
        calls = []

        class Pool:
            def shutdown(self, **kwargs):
                calls.append(kwargs)

        ex = ProcessExecutor(max_workers=2)
        ex._pool = Pool()
        ex.close()
        ex.close()
        assert calls == [{"wait": False}]

    def test_worker_exceptions_propagate(self):
        with pytest.raises(ZeroDivisionError):
            SerialExecutor().map_tasks(lambda x: 1 // x, [1, 0])


class TestGetExecutor:
    def test_none_is_serial(self):
        assert isinstance(get_executor(None), SerialExecutor)

    def test_instance_passthrough(self):
        ex = ThreadExecutor(max_workers=2)
        assert get_executor(ex) is ex

    def test_names_and_worker_suffix(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadExecutor)
        ex = get_executor("process:3")
        assert isinstance(ex, ProcessExecutor)
        assert ex.max_workers == 3
        assert get_executor("process", max_workers=2).max_workers == 2

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            get_executor("cluster")
        with pytest.raises(ValueError):
            get_executor("process:3", max_workers=2)
        with pytest.raises(ValueError):
            get_executor(SerialExecutor(), max_workers=2)
        with pytest.raises(ValueError):
            get_executor("serial:4")
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=0)


class TestSpawnStreams:
    def test_same_seed_same_streams(self):
        a = [g.standard_normal(4) for g in spawn_generators(123, 5)]
        b = [g.standard_normal(4) for g in spawn_generators(123, 5)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_streams_are_independent(self):
        a, b = spawn_generators(123, 2)
        assert not np.array_equal(a.standard_normal(8), b.standard_normal(8))

    def test_generator_source_is_deterministic_and_consumes_one_draw(self):
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        s1 = [s.generate_state(2).tolist() for s in spawn_seeds(r1, 3)]
        s2 = [s.generate_state(2).tolist() for s in spawn_seeds(r2, 3)]
        assert s1 == s2
        # both generators advanced identically (exactly one draw)
        assert r1.integers(0, 2**63) == r2.integers(0, 2**63)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    @pytest.mark.parametrize("seed", [2.7, 2.0, np.float64(3.0), "5", None])
    def test_non_integral_seed_rejected(self, seed):
        # int() would truncate 2.7 and collide with spawn_seeds(2, n)
        with pytest.raises(TypeError):
            spawn_seeds(seed, 3)

    def test_numpy_integer_seed_equals_python_int(self):
        a = spawn_generators(np.int64(11), 3)
        b = spawn_generators(11, 3)
        assert all(x.bit_generator.state == y.bit_generator.state for x, y in zip(a, b))


def _spawned(root: np.random.SeedSequence, n: int):
    """``default_rng`` of each child ``SeedSequence.spawn`` gives (the oracle)."""
    return [np.random.default_rng(child) for child in root.spawn(n)]


def _block_draws(block) -> list:
    """Draws of every generator of a (pickled) seed block."""
    return [g.standard_normal(3).tolist() for g in block.generators()]


class TestSeedDerivation:
    """SeedBlock's vectorized derivation equals SeedSequence.spawn, bit for bit."""

    @pytest.mark.parametrize("entropy", [0, 123, 2**64 + 5, [7, 8, 9, 10, 11], 2**200])
    def test_generators_equal_spawned_children(self, entropy):
        got = spawn_generators(np.random.SeedSequence(entropy), 40)
        want = _spawned(np.random.SeedSequence(entropy), 40)
        for g, w in zip(got, want):
            assert g.bit_generator.state == w.bit_generator.state
            assert np.array_equal(g.random(5), w.random(5))

    def test_seed_sequence_root_counter_advances(self):
        root = np.random.SeedSequence(5, spawn_key=(2, 9), n_children_spawned=7)
        oracle = np.random.SeedSequence(5, spawn_key=(2, 9), n_children_spawned=7)
        first, second = spawn_seeds(root, 4), spawn_seeds(root, 3)
        assert root.n_children_spawned == 14
        want = _spawned(oracle, 4) + _spawned(oracle, 3)
        got = first.generators() + second.generators()
        assert [g.bit_generator.state for g in got] == [w.bit_generator.state for w in want]
        assert [c.spawn_key for c in second] == [(2, 9, 11), (2, 9, 12), (2, 9, 13)]

    def test_spawn_counter_overflow_raises(self):
        # numpy keeps the counter in a uint32 and its spawn never returns past it
        root = np.random.SeedSequence(5, n_children_spawned=2**32 - 3)
        with pytest.raises(OverflowError):
            spawn_seeds(root, 3)
        assert root.n_children_spawned == 2**32 - 3

    def test_child_indices_across_the_2_32_boundary(self):
        # index 2**32 and up is two entropy words; each mixes in as its own step
        root = np.random.SeedSequence([4, 5], spawn_key=(1,))
        indices = range(2**32 - 3, 2**32 + 3)
        block = SeedBlock.derive(root, indices)
        for g, i in zip(block.generators(), indices):
            child = np.random.SeedSequence([4, 5], spawn_key=(1, i))
            assert np.array_equal(
                g.bit_generator.seed_seq.generate_state(4, np.uint64),
                child.generate_state(4, np.uint64),
            )
            assert np.array_equal(g.random(4), np.random.default_rng(child).random(4))

    def test_slices_and_items_are_the_spawned_children(self):
        block = spawn_seeds(31, 10)
        children = np.random.SeedSequence(31).spawn(10)
        assert [c.spawn_key for c in block] == [c.spawn_key for c in children]
        assert block[3].spawn_key == (3,) and block[3].entropy == 31
        tail = block[6:9]
        assert len(tail) == 3 and [c.spawn_key for c in tail] == [(6,), (7,), (8,)]
        want = [np.random.default_rng(c).bit_generator.state for c in children[6:9]]
        assert [g.bit_generator.state for g in tail.generators()] == want

    def test_pickle_round_trip_through_process_executor(self):
        block = spawn_seeds(np.random.default_rng(19), 12)
        chunks = [block[a:a + 4] for a in range(0, 12, 4)]
        with ProcessExecutor(max_workers=2) as ex:
            got = ex.map_tasks(_block_draws, chunks, chunksize=1)
        want = [
            g.standard_normal(3).tolist()
            for g in _spawned(
                np.random.SeedSequence(int(np.random.default_rng(19).integers(0, 2**63))), 12
            )
        ]
        assert [row for chunk in got for row in chunk] == want

    @pytest.mark.skipif(
        not hasattr(np.random.Generator, "spawn"), reason="Generator.spawn needs numpy >= 1.25"
    )
    def test_generator_spawn_from_a_device_generator(self):
        (device,) = spawn_generators(np.random.SeedSequence(8, n_children_spawned=3), 1)
        (child,) = np.random.SeedSequence(8, n_children_spawned=3).spawn(1)
        want = np.random.default_rng(child)
        for _ in range(2):  # the device's own spawn counter advances too
            got_kids, want_kids = device.spawn(2), want.spawn(2)
            for g, w in zip(got_kids, want_kids):
                assert g.bit_generator.state == w.bit_generator.state
        assert np.array_equal(device.random(3), want.random(3))

    def test_block_words_are_read_only(self):
        block = spawn_seeds(1, 2)
        with pytest.raises(ValueError):
            block.words[0, 0] = 0


class TestGACrossBackend:
    def _run(self, executor):
        return GeneticAlgorithm(
            _rosenbrock,
            lower=[-2.0] * 4,
            upper=[2.0] * 4,
            config=GAConfig(population_size=12, generations=4),
            rng=np.random.default_rng(2002),
            executor=executor,
        ).run()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_matches_serial_bit_for_bit(self, backend):
        ref = self._run(SerialExecutor())
        with BACKENDS[backend]() as ex:
            out = self._run(ex)
        assert np.array_equal(ref.best_gene, out.best_gene)
        assert ref.best_fitness == out.best_fitness
        assert ref.history == out.history
        assert ref.evaluations == out.evaluations

    def test_serial_gets_the_generation_pools_get_chunks(self):
        sizes = {"serial": [], "thread": []}

        def recording(name):
            def fitness(genes):
                sizes[name].append(len(genes))  # list.append is atomic
                return _rosenbrock(genes)
            return fitness

        def run(name, executor):
            return GeneticAlgorithm(
                recording(name), [-2.0] * 4, [2.0] * 4,
                GAConfig(population_size=12, generations=2),
                np.random.default_rng(2002), executor,
            ).run()

        ref = run("serial", SerialExecutor())
        with ThreadExecutor(2) as ex:
            out = run("thread", ex)
        # one call per generation with its not-yet-scored genes (elites
        # and unmutated clones reuse their value); pools chunk them
        assert sizes["serial"] == [12, 9, 8]
        assert len(sizes["thread"]) > 3 and sum(sizes["thread"]) == 29
        assert ref.history == out.history
        assert np.array_equal(ref.best_gene, out.best_gene)


@pytest.fixture(scope="module")
def small_flow():
    """A compact calibrated production flow plus a device lot."""
    rng = np.random.default_rng(77)
    space = ParameterSpace(
        [
            ProcessParameter("gain_db", 16.0, 0.08),
            ProcessParameter("nf_db", 2.2, 0.10),
            ProcessParameter("iip3_dbm", 3.0, 0.10),
        ]
    )

    def factory(params):
        return BehavioralAmplifier(
            900e6, params["gain_db"], params["nf_db"], params["iip3_dbm"]
        )

    config = SignaturePathConfig(
        digitizer_noise_vrms=1e-3, digitizer_bits=None, include_device_noise=False
    )
    board = SignatureTestBoard(config)
    stim = StimulusEncoding(8, config.capture_seconds, 0.4).decode(
        np.array([-0.2, -0.1, 0.0, 0.1, 0.2, 0.15, 0.05, -0.15])
    )
    train_devices = [factory(space.to_dict(p)) for p in space.sample(rng, 30)]
    train_specs = np.vstack([d.specs().as_vector() for d in train_devices])
    train_sigs = measure_signatures(board, stim, train_devices, rng)
    calibration = CalibrationSession().fit(train_sigs, train_specs, rng=rng)
    flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
    lot = [factory(space.to_dict(p)) for p in space.sample(rng, 16)]
    return board, stim, flow, lot


class TestProductionCrossBackend:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_records_identical_to_serial(self, small_flow, backend):
        _, _, flow, lot = small_flow
        ref = flow.run(lot, np.random.default_rng(5), executor=SerialExecutor())
        with BACKENDS[backend]() as ex:
            out = flow.run(lot, np.random.default_rng(5), executor=ex)
        assert [r.device_id for r in out.records] == list(range(len(lot)))
        for a, b in zip(ref.records, out.records):
            assert a.device_id == b.device_id
            assert np.array_equal(a.signature, b.signature)
            assert np.array_equal(a.predicted.as_vector(), b.predicted.as_vector())
            assert a.passed == b.passed
            assert a.test_time == b.test_time

    def test_backend_name_spec_accepted(self, small_flow):
        _, _, flow, lot = small_flow
        ref = flow.run(lot, np.random.default_rng(6))
        out = flow.run(lot, np.random.default_rng(6), executor="process:2",
                       chunksize=3)
        assert np.array_equal(ref.predicted_matrix(), out.predicted_matrix())

    def test_same_seed_reproducible(self, small_flow):
        _, _, flow, lot = small_flow
        a = flow.run(lot, np.random.default_rng(9))
        b = flow.run(lot, np.random.default_rng(9))
        assert np.array_equal(a.predicted_matrix(), b.predicted_matrix())


class TestTrainingSetCrossBackend:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_signature_matrix_identical_to_serial(self, small_flow, backend):
        board, stim, _, lot = small_flow
        ref = measure_signatures(board, stim, lot, np.random.default_rng(3))
        with BACKENDS[backend]() as ex:
            out = measure_signatures(
                board, stim, lot, np.random.default_rng(3),
                executor=ex, chunksize=5,
            )
        assert np.array_equal(ref, out)

    def test_empty_device_list(self, small_flow):
        board, stim, _, _ = small_flow
        out = measure_signatures(board, stim, [], np.random.default_rng(0))
        assert out.size == 0
