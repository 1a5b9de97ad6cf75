"""Real-coded genetic algorithm (the paper's Section 3.1 optimizer).

"The resulting objective function is minimized by optimizing a piecewise
linear baseband test stimulus using a genetic algorithm.  Breakpoints of
the PWL stimulus are encoded as a genetic string, and successive
generations of the genetic optimization yield a waveform with decreasing
values of the objective function."

Implemented from scratch (following Goldberg's classic scheme adapted to
real-valued genes): tournament selection, BLX-alpha blend crossover,
gaussian mutation scaled to the gene bounds, and elitism.  Minimizes the
supplied batch fitness function, called once per generation (once per
chunk on a pooled executor) on the genes that run has not scored yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.executor import Executor, SerialExecutor, _chunk_size

__all__ = ["GAConfig", "GAResult", "GeneticAlgorithm"]


@dataclass(frozen=True)
class GAConfig:
    """Genetic-algorithm hyperparameters.

    The paper ran "five iterations of a genetic algorithm"; five
    generations is therefore the default.
    """

    population_size: int = 24
    generations: int = 5
    tournament_size: int = 3
    crossover_rate: float = 0.9
    blend_alpha: float = 0.3
    mutation_rate: float = 0.15
    mutation_scale: float = 0.10  # fraction of each gene's range
    elite_count: int = 2

    def __post_init__(self):
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not (2 <= self.tournament_size <= self.population_size):
            raise ValueError("tournament_size must be in [2, population_size]")
        if not (0.0 <= self.crossover_rate <= 1.0):
            raise ValueError("crossover_rate must be in [0, 1]")
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.blend_alpha < 0 or self.mutation_scale <= 0:
            raise ValueError("blend_alpha must be >= 0 and mutation_scale > 0")
        if not (0 <= self.elite_count < self.population_size):
            raise ValueError("elite_count must be in [0, population_size)")


@dataclass
class GAResult:
    """Outcome of one GA run."""

    best_gene: np.ndarray
    best_fitness: float
    #: per-generation (best, mean) fitness, generation 0 = initial pop;
    #: best ranks non-finite values as ``+inf``, mean skips them
    history: List[Tuple[float, float]] = field(default_factory=list)
    evaluations: int = 0

    @property
    def improvement(self) -> float:
        """Initial-best minus final-best fitness (>= 0 for a working GA)."""
        if not self.history:
            return 0.0
        return self.history[0][0] - self.history[-1][0]


def _ranked(fitnesses: np.ndarray) -> np.ndarray:
    """Fitnesses as the GA ranks them: non-finite values count as ``+inf``.

    A NaN would otherwise win every ``argmin``; a generation with no
    finite fitness at all has nothing to rank and raises ``ValueError``.
    """
    finite = np.isfinite(fitnesses)
    if not finite.any():
        raise ValueError("every fitness of the generation is non-finite")
    return np.where(finite, fitnesses, np.inf)


class GeneticAlgorithm:
    """Bounded real-parameter GA minimizing a batch fitness.

    Parameters
    ----------
    fitness:
        Batch fitness: maps a ``(k, n_genes)`` array of genes to ``k``
        values to minimize, row for row.  Must be deterministic and
        row-independent (a gene's value may not depend on the other
        rows of its batch) for reproducible runs.  Non-finite values
        rank last.  Each distinct gene is scored once per :meth:`run`:
        elites and unmutated clones reuse their first value.
    lower, upper:
        Per-gene bounds.
    config:
        Hyperparameters.
    rng:
        Random generator controlling all stochastic choices.
    executor:
        Batch backend evaluating each generation's fitnesses
        (:class:`repro.parallel.ProcessExecutor` et al.); ``None`` is
        serial.  A serial backend gets the generation's unscored genes
        as one batch, a pooled one chunks of them (the lots' chunk rule,
        :func:`repro.runtime.executor._chunk_size`).  Because
        ``fitness`` is required to be deterministic and row-independent
        and results are order-preserving, every backend yields the same
        :class:`GAResult` bit for bit.
    """

    def __init__(
        self,
        fitness: Callable[[np.ndarray], np.ndarray],
        lower: Sequence[float],
        upper: Sequence[float],
        config: GAConfig = GAConfig(),
        rng: Optional[np.random.Generator] = None,
        executor: Optional[Executor] = None,
    ):
        self.fitness = fitness
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("lower/upper must be 1-D and equal length")
        if np.any(self.lower >= self.upper):
            raise ValueError("each lower bound must be below its upper bound")
        self.config = config
        self.rng = rng if rng is not None else np.random.default_rng()
        self.executor = executor if executor is not None else SerialExecutor()
        self._range = self.upper - self.lower

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def _random_gene(self) -> np.ndarray:
        return self.rng.uniform(self.lower, self.upper)

    def _tournament(self, fitnesses: np.ndarray) -> int:
        """Index of the tournament winner (lowest fitness)."""
        contenders = self.rng.integers(0, len(fitnesses), size=self.config.tournament_size)
        return int(contenders[np.argmin(fitnesses[contenders])])

    def _crossover(self, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
        """BLX-alpha blend: child sampled from the expanded parent interval."""
        alpha = self.config.blend_alpha
        low = np.minimum(p1, p2)
        high = np.maximum(p1, p2)
        span = high - low
        child = self.rng.uniform(low - alpha * span, high + alpha * span)
        return np.clip(child, self.lower, self.upper)

    def _mutate(self, gene: np.ndarray) -> np.ndarray:
        mask = self.rng.random(len(gene)) < self.config.mutation_rate
        if not np.any(mask):
            return gene
        noise = self.rng.normal(0.0, self.config.mutation_scale, size=len(gene))
        mutated = gene + mask * noise * self._range
        return np.clip(mutated, self.lower, self.upper)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, initial_population: Optional[np.ndarray] = None) -> GAResult:
        """Evolve for ``config.generations`` generations.

        ``initial_population`` (shape (p, n_genes)) seeds the first
        generation; missing rows are filled with uniform random genes.
        """
        cfg = self.config
        n_genes = len(self.lower)
        population = np.empty((cfg.population_size, n_genes))
        provided = 0
        if initial_population is not None:
            seed = np.asarray(initial_population, dtype=float)
            if seed.ndim != 2 or seed.shape[1] != n_genes:
                raise ValueError("initial_population must be (p, n_genes)")
            provided = min(len(seed), cfg.population_size)
            population[:provided] = np.clip(seed[:provided], self.lower, self.upper)
        for i in range(provided, cfg.population_size):
            population[i] = self._random_gene()

        evaluations = 0
        history: List[Tuple[float, float]] = []
        # fitness of every gene scored in this run: elites and unmutated
        # clones recur, and a deterministic, row-independent fitness
        # gives a repeated gene the value it had
        scored: Dict[bytes, float] = {}

        def evaluate(pop: np.ndarray) -> np.ndarray:
            """Ranked fitnesses of ``pop``; appends the generation's history."""
            nonlocal evaluations
            evaluations += len(pop)
            keys = [gene.tobytes() for gene in pop]
            first: Dict[bytes, int] = {}
            for i, key in enumerate(keys):
                if key not in scored:
                    first.setdefault(key, i)
            fresh = list(first.values())
            if fresh:
                genes = pop[fresh]
                size = _chunk_size(len(genes), self.executor, None)
                chunks = [genes[a:a + size] for a in range(0, len(genes), size)]
                values = self.executor.map_tasks(self.fitness, chunks, chunksize=1)
                new = np.concatenate(
                    [np.asarray(v, dtype=float).reshape(-1) for v in values]
                )
                if new.shape != (len(genes),):
                    raise ValueError("fitness must return one value per gene")
                scored.update(zip((keys[i] for i in fresh), new.tolist()))
            fitnesses = np.array([scored[k] for k in keys])
            ranked = _ranked(fitnesses)
            # best ranked value and the mean over the finite fitnesses
            history.append(
                (float(ranked.min()), float(fitnesses[np.isfinite(fitnesses)].mean()))
            )
            return ranked

        fitnesses = evaluate(population)
        for _ in range(cfg.generations):
            order = np.argsort(fitnesses)
            next_pop = [population[i].copy() for i in order[: cfg.elite_count]]
            while len(next_pop) < cfg.population_size:
                i1 = self._tournament(fitnesses)
                if self.rng.random() < cfg.crossover_rate:
                    i2 = self._tournament(fitnesses)
                    child = self._crossover(population[i1], population[i2])
                else:
                    child = population[i1].copy()
                next_pop.append(self._mutate(child))
            population = np.vstack(next_pop)
            fitnesses = evaluate(population)

        best = int(np.argmin(fitnesses))
        return GAResult(
            best_gene=population[best].copy(),
            best_fitness=float(fitnesses[best]),
            history=history,
            evaluations=evaluations,
        )
