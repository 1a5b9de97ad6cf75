"""Pluggable parallel execution backends for batch workloads.

The paper's whole argument is production *throughput*: one fast
signature capture replaces a rack of sequential per-spec RF
measurements.  The reproduction's hot paths -- GA population fitness,
Monte-Carlo training-set capture, and the production flow itself -- are
embarrassingly parallel across devices/genes, so they route their batch
work through one narrow interface:

``map_tasks(fn, items, *, chunksize=None) -> list``

with three interchangeable backends:

* :class:`SerialExecutor` -- plain in-process loop (the default).
* :class:`ThreadExecutor` -- ``concurrent.futures`` thread pool; helps
  when the work releases the GIL (large FFTs, BLAS).
* :class:`ProcessExecutor` -- process pool for true multi-core scaling;
  falls back to serial execution (with a warning) when a pool cannot be
  started (sandboxes, missing semaphores, Windows spawn restrictions)
  or when the task graph cannot be pickled.

Determinism contract
--------------------
All backends preserve input order, and callers never share one RNG
across tasks.  Instead, batch call sites derive one independent child
stream per task with :func:`spawn_seeds` /
:func:`spawn_generators` (built on ``np.random.SeedSequence.spawn``),
so the same master seed produces bit-identical results on every
backend, any worker count, and any chunking.  Tasks must be pure: the
process backend may re-run the batch serially after a pool failure.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, List, Optional, Union

import numpy as np

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "available_cpus",
    "default_chunksize",
    "get_executor",
    "spawn_generators",
    "spawn_seeds",
]


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS / Windows
        return os.cpu_count() or 1


def default_chunksize(n_items: int, n_workers: int) -> int:
    """Batch size that keeps every worker busy without per-task overhead.

    Four chunks per worker: large enough to amortize pickling, small
    enough that an unlucky slow chunk cannot serialize the tail.
    """
    if n_items <= 0 or n_workers <= 0:
        return 1
    return max(1, n_items // (4 * n_workers) or 1)


def _chunk_bounds(n: int, executor, chunksize: Optional[int], align: int = 1):
    """``(start, stop)`` bounds for dispatching ``n`` items in batches.

    Serial backends get the whole lot as one batch (maximum
    vectorization); pooled backends split it so every worker stays busy.
    The rule behind every batched call site: device lots
    (``measure_signatures``, the production flow, the streaming
    service) and GA generations.  Per-device RNG seeding (and
    row-independent fitnesses) make the results independent of the
    split.

    ``align`` rounds the chunk size up to a multiple (multi-site boards
    publish ``chunk_alignment = n_sites``): crosstalk couples positional
    insertion groups, so a boundary mid-insertion would change which
    devices share an insertion and break chunking-invariance.
    """
    workers = getattr(executor, "workers", 1)
    if chunksize is None:
        chunksize = n if workers <= 1 else default_chunksize(n, workers)
    chunksize = max(1, chunksize)
    align = max(1, int(align))
    if align > 1:
        chunksize = ((chunksize + align - 1) // align) * align
    return [(i, min(i + chunksize, n)) for i in range(0, n, chunksize)]


SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]


def spawn_seeds(seed: SeedLike, n: int) -> List[np.random.SeedSequence]:
    """``n`` independent, order-stable child seed sequences.

    The children depend only on the entropy of ``seed`` (for a
    :class:`~numpy.random.Generator`, on its current state, from which
    exactly one 64-bit draw is consumed), *not* on how the tasks are
    later distributed over workers -- the foundation of the
    cross-backend bit-identical guarantee.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2**63)))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(int(seed))
    return list(root.spawn(n))


def spawn_generators(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """``n`` independent generators, one per task (see :func:`spawn_seeds`)."""
    return [np.random.default_rng(child) for child in spawn_seeds(seed, n)]


class Executor:
    """Base class: order-preserving batch map over pure tasks.

    Every executor is a context manager; :meth:`close` releases any
    worker pool (a no-op for poolless backends).
    """

    #: human-readable backend name ("serial", "thread", "process")
    name = "serial"

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        chunksize: Optional[int] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (idempotent); no-op without a pool."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """In-process loop; the reference implementation every backend must match."""

    name = "serial"

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        chunksize: Optional[int] = None,
    ) -> List[Any]:
        return [fn(item) for item in items]


class _PoolExecutor(Executor):
    """Pooled backend base: lazy pool, reused across ``map_tasks`` calls.

    Keeping the pool alive amortizes worker startup over every batch an
    executor instance ever runs -- the GA reuses one pool across all
    generations, a production shift across all lots.  Pools also work
    as context managers (``with ProcessExecutor(4) as ex: ...``) and
    can be shut down explicitly with :meth:`close`.
    """

    #: pool construction / submission failures that trigger serial fallback
    _FALLBACK_ERRORS = (OSError, BrokenProcessPool, pickle.PicklingError,
                        RuntimeError, ValueError, AttributeError, TypeError,
                        ImportError)

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool = None
        self._broken = False

    @property
    def workers(self) -> int:
        """Pool size: ``max_workers`` or the machine's CPU budget."""
        return self.max_workers if self.max_workers is not None else available_cpus()

    def _make_pool(self):
        raise NotImplementedError

    def _pool_map(self, pool, fn, items, chunksize) -> List[Any]:
        raise NotImplementedError

    def map_tasks(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        chunksize: Optional[int] = None,
    ) -> List[Any]:
        items = list(items)
        if len(items) <= 1 or self.workers <= 1 or self._broken:
            return SerialExecutor().map_tasks(fn, items)
        if chunksize is None:
            chunksize = default_chunksize(len(items), self.workers)
        try:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool_map(self._pool, fn, items, chunksize)
        except self._FALLBACK_ERRORS as exc:
            # a broken pool cannot be reused; stop retrying forks and
            # degrade this executor to serial for its remaining lifetime
            self._broken = True
            self.close()
            warnings.warn(
                f"{type(self).__name__} could not run the batch in a worker "
                f"pool ({type(exc).__name__}: {exc}); falling back to serial "
                f"execution. Results are unchanged, only slower.",
                RuntimeWarning,
                stacklevel=2,
            )
            return SerialExecutor().map_tasks(fn, items)

    def close(self) -> None:
        """Shut the worker pool down (idempotent); serial use still works."""
        pool, self._pool = self._pool, None
        if pool is not None:
            # never cancel_futures: a cancelling process pool swaps its
            # pending-work table, and a queued task that then fails to
            # pickle is dropped from the old table only, so the pool's
            # manager thread waits for it forever and hangs interpreter
            # exit.  Queued tasks of a failed batch run out instead.
            pool.shutdown(wait=False)

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend; useful when tasks release the GIL."""

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(max_workers=self.workers)

    def _pool_map(self, pool, fn, items, chunksize) -> List[Any]:
        return list(pool.map(fn, items))


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend with graceful serial fallback.

    Tasks and their results cross a pickle boundary; ``fn`` must be a
    picklable callable (module-level function or ``functools.partial``
    over one).  If the pool cannot start or the batch cannot be
    shipped, the batch silently (minus one warning) degrades to
    :class:`SerialExecutor` -- results are identical either way by the
    determinism contract, only slower.
    """

    name = "process"

    @staticmethod
    def _mp_context():
        # never plain fork: forking a threaded parent (thread pools, BLAS)
        # can copy a held private lock into the child, which then hangs
        # forever and blocks interpreter exit on the atexit join.
        # forkserver forks workers from a clean single-threaded server;
        # spawn is the portable fallback (and the only option on Windows).
        methods = multiprocessing.get_all_start_methods()
        method = "forkserver" if "forkserver" in methods else "spawn"
        return multiprocessing.get_context(method)

    def _make_pool(self):
        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._mp_context()
        )

    def _pool_map(self, pool, fn, items, chunksize) -> List[Any]:
        return list(pool.map(fn, items, chunksize=chunksize))


_BACKENDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def get_executor(
    spec: Union[Executor, str, None] = None,
    max_workers: Optional[int] = None,
) -> Executor:
    """Resolve an executor from a backend name, instance, or ``None``.

    ``None`` means serial.  Strings accept an optional worker count
    suffix: ``"process:4"`` is a 4-worker process pool.  An
    :class:`Executor` instance passes through unchanged (``max_workers``
    must then be omitted).
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        if max_workers is not None:
            raise ValueError("max_workers only applies to string backend specs")
        return spec
    name, _, count = str(spec).partition(":")
    name = name.strip().lower()
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown executor backend {spec!r}; "
            f"expected one of {sorted(_BACKENDS)}"
        )
    if count:
        if max_workers is not None:
            raise ValueError("worker count given both in spec and max_workers")
        max_workers = int(count)
    if name == "serial":
        if max_workers not in (None, 1):
            raise ValueError("serial backend does not take workers")
        return SerialExecutor()
    return _BACKENDS[name](max_workers=max_workers)
