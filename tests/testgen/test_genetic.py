"""Tests for repro.testgen.genetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.testgen.genetic import GAConfig, GeneticAlgorithm


def sphere(genes):
    """Batch fitness: one sum of squares per gene row."""
    return np.sum(np.asarray(genes) ** 2, axis=1)


class TestGAConfig:
    def test_defaults_match_paper(self):
        assert GAConfig().generations == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=2)
        with pytest.raises(ValueError):
            GAConfig(generations=0)
        with pytest.raises(ValueError):
            GAConfig(tournament_size=1)
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GAConfig(elite_count=24, population_size=24)


class TestConvergence:
    def test_sphere_improves(self):
        rng = np.random.default_rng(0)
        ga = GeneticAlgorithm(
            sphere,
            lower=[-5.0] * 4,
            upper=[5.0] * 4,
            config=GAConfig(population_size=30, generations=20),
            rng=rng,
        )
        result = ga.run()
        assert result.best_fitness < 0.5
        assert result.improvement > 0

    def test_shifted_optimum_found(self):
        rng = np.random.default_rng(1)
        target = np.array([1.5, -2.0, 0.5])
        ga = GeneticAlgorithm(
            lambda genes: np.sum((genes - target) ** 2, axis=1),
            lower=[-5.0] * 3,
            upper=[5.0] * 3,
            config=GAConfig(population_size=40, generations=30),
            rng=rng,
        )
        result = ga.run()
        assert np.allclose(result.best_gene, target, atol=0.5)

    def test_history_best_monotone_with_elitism(self):
        rng = np.random.default_rng(2)
        ga = GeneticAlgorithm(
            sphere,
            lower=[-5.0] * 3,
            upper=[5.0] * 3,
            config=GAConfig(population_size=20, generations=15, elite_count=2),
            rng=rng,
        )
        result = ga.run()
        bests = [b for b, _ in result.history]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_evaluation_count(self):
        rng = np.random.default_rng(3)
        cfg = GAConfig(population_size=10, generations=4)
        ga = GeneticAlgorithm(sphere, [-1.0], [1.0], cfg, rng)
        result = ga.run()
        assert result.evaluations == 10 * 5  # initial + 4 generations


class TestBounds:
    @given(seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_best_gene_always_within_bounds(self, seed):
        rng = np.random.default_rng(seed)
        lower = np.array([-1.0, 0.0, 2.0])
        upper = np.array([1.0, 0.5, 3.0])
        ga = GeneticAlgorithm(
            lambda genes: -np.sum(genes, axis=1),  # pushes genes to the upper bound
            lower,
            upper,
            GAConfig(population_size=12, generations=5),
            rng,
        )
        result = ga.run()
        assert np.all(result.best_gene >= lower - 1e-12)
        assert np.all(result.best_gene <= upper + 1e-12)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            GeneticAlgorithm(sphere, [0.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError):
            GeneticAlgorithm(sphere, [0.0], [1.0, 2.0])


class TestSeeding:
    def test_seed_population_used(self):
        # a seed sitting exactly at the optimum must survive via elitism
        rng = np.random.default_rng(4)
        ga = GeneticAlgorithm(
            sphere,
            [-5.0] * 3,
            [5.0] * 3,
            GAConfig(population_size=10, generations=3, elite_count=1),
            rng,
        )
        seeds = np.zeros((1, 3))
        result = ga.run(initial_population=seeds)
        assert result.best_fitness == pytest.approx(0.0, abs=1e-12)

    def test_seed_shape_validation(self):
        ga = GeneticAlgorithm(sphere, [-1.0] * 3, [1.0] * 3)
        with pytest.raises(ValueError):
            ga.run(initial_population=np.zeros((2, 5)))

    def test_seeds_clipped_into_bounds(self):
        rng = np.random.default_rng(5)
        ga = GeneticAlgorithm(
            sphere,
            [-1.0] * 2,
            [1.0] * 2,
            GAConfig(population_size=6, generations=1),
            rng,
        )
        result = ga.run(initial_population=np.array([[10.0, -10.0]]))
        assert np.all(np.abs(result.best_gene) <= 1.0)

    def test_reproducible_with_same_rng_seed(self):
        def run(seed):
            return GeneticAlgorithm(
                sphere,
                [-2.0] * 3,
                [2.0] * 3,
                GAConfig(population_size=10, generations=5),
                np.random.default_rng(seed),
            ).run()

        a, b = run(42), run(42)
        assert np.array_equal(a.best_gene, b.best_gene)
        assert a.history == b.history


class TestBatchEvaluation:
    def test_one_fitness_call_per_generation_on_serial(self):
        calls = []
        scored = []

        def fitness(genes):
            calls.append(len(genes))
            scored.extend(gene.tobytes() for gene in genes)
            return sphere(genes)

        cfg = GAConfig(population_size=8, generations=3)
        GeneticAlgorithm(fitness, [-1.0] * 2, [1.0] * 2, cfg, np.random.default_rng(6)).run()
        # one call per generation, carrying only the genes not yet scored
        assert calls == [8, 6, 5, 4]
        assert len(scored) == len(set(scored))

    def test_wrong_value_count_rejected(self):
        ga = GeneticAlgorithm(
            lambda genes: sphere(genes)[:-1], [-1.0] * 2, [1.0] * 2,
            GAConfig(population_size=6, generations=1), np.random.default_rng(7),
        )
        with pytest.raises(ValueError, match="one value per gene"):
            ga.run()


class TestScoredGenesReused:
    """Each distinct gene is scored once per run, with the GAResult unchanged."""

    #: GAResult of the run below with every gene of every generation
    #: scored (84 rows); reusing repeated genes' values must not change it
    BEST_GENE = [
        0.007145761827551833, 0.17633727913375452,
        0.7175797945345597, -0.24514496872626726,
    ]
    BEST_FITNESS = 0.6061627151404552
    HISTORY = [
        (0.6943550166708902, 5.453352584043078),
        (0.6943550166708902, 3.1204314754193336),
        (0.6943550166708902, 1.9036587254037292),
        (0.6943550166708902, 1.1516658140596319),
        (0.6943550166708902, 0.7480010865085313),
        (0.6718891893750241, 0.7909898521364841),
        (0.6061627151404552, 0.7623871582478031),
    ]

    @pytest.mark.parametrize("backend", [
        SerialExecutor, lambda: ThreadExecutor(max_workers=3),
        lambda: ProcessExecutor(max_workers=2),
    ], ids=["serial", "thread", "process"])
    def test_same_result_with_fewer_fitness_rows(self, backend):
        with backend() as executor:
            result = GeneticAlgorithm(
                sphere, [-2.0] * 4, [2.0] * 4,
                GAConfig(population_size=12, generations=6),
                np.random.default_rng(2002), executor,
            ).run()
        assert result.best_gene.tolist() == self.BEST_GENE
        assert result.best_fitness == self.BEST_FITNESS
        assert result.history == self.HISTORY
        assert result.evaluations == 84

    def test_rows_scored_once_each(self):
        rows = []

        def fitness(genes):
            rows.extend(gene.tobytes() for gene in genes)
            return sphere(genes)

        GeneticAlgorithm(
            fitness, [-2.0] * 4, [2.0] * 4,
            GAConfig(population_size=12, generations=6), np.random.default_rng(2002),
        ).run()
        assert len(rows) == len(set(rows)) == 56


def _nan_beyond_08(genes):
    """Finite sphere values, NaN wherever the first gene exceeds 0.8."""
    values = sphere(genes)
    values[np.asarray(genes)[:, 0] > 0.8] = np.nan
    return values


class TestNonFiniteFitness:
    def test_nan_never_wins(self):
        # before non-finite ranking, argmin picked the NaN: best_fitness
        # was nan and every history entry (nan, nan)
        ga = GeneticAlgorithm(
            _nan_beyond_08, [0.0, 0.0], [1.0, 1.0], GAConfig(generations=3),
            np.random.default_rng(1),
        )
        result = ga.run(initial_population=np.array([[0.9, 0.0], [0.1, 0.1]]))
        assert np.isfinite(result.best_fitness)
        assert result.best_gene[0] <= 0.8
        assert result.best_fitness == float(sphere(result.best_gene[None, :])[0])
        assert all(np.isfinite(best) and np.isfinite(mean) for best, mean in result.history)

    def test_history_mean_skips_non_finite(self):
        seed = np.array([[0.9, 0.0], [0.1, 0.1], [0.95, 0.5], [0.2, 0.0]])
        ga = GeneticAlgorithm(
            _nan_beyond_08, [0.0, 0.0], [1.0, 1.0],
            GAConfig(population_size=4, generations=1, tournament_size=2, elite_count=1),
            np.random.default_rng(2),
        )
        best, mean = ga.run(initial_population=seed).history[0]
        values = sphere(seed)
        assert best == values[1]
        assert mean == values[[1, 3]].mean()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_all_non_finite_generation_raises(self, bad):
        ga = GeneticAlgorithm(
            lambda genes: np.full(len(genes), bad), [0.0], [1.0],
            GAConfig(population_size=4, generations=1, tournament_size=2),
            np.random.default_rng(3),
        )
        with pytest.raises(ValueError, match="non-finite"):
            ga.run()

    def test_minus_inf_ranks_last(self):
        def fitness(genes):
            values = sphere(genes)
            values[np.asarray(genes)[:, 0] > 0.8] = -np.inf
            return values

        ga = GeneticAlgorithm(
            fitness, [0.0, 0.0], [1.0, 1.0], GAConfig(generations=2),
            np.random.default_rng(4),
        )
        result = ga.run(initial_population=np.array([[0.9, 0.0]]))
        assert np.isfinite(result.best_fitness)
        assert result.best_gene[0] <= 0.8
