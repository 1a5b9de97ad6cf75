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
:func:`spawn_generators` (``np.random.SeedSequence.spawn``'s children,
derived for the whole batch in one vectorized pass: :class:`SeedBlock`),
so the same master seed produces bit-identical results on every
backend, any worker count, and any chunking.  Tasks must be pure: the
process backend may re-run the batch serially after a pool failure.
"""

from __future__ import annotations

import functools
import multiprocessing
import operator
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
    "SeedBlock",
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

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx);
# the derivation must track SeedSequence bit for bit, which the
# seed-derivation-equivalence relation and TestSeedDerivation check
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
#: ``generate_state(4, np.uint64)``: the 8 uint32 words PCG64 seeds from
_STATE_WORDS = 8


def _int_words(value: int) -> int:
    """uint32 words a SeedSequence splits the non-negative ``value`` into."""
    return max(1, (int(value).bit_length() + 31) // 32)


def _entropy_words(entropy) -> int:
    """Length of ``entropy`` as a SeedSequence coerces it to uint32 words."""
    if isinstance(entropy, (int, np.integer)):
        return _int_words(entropy)
    if isinstance(entropy, np.ndarray) and entropy.dtype == np.uint32:
        return entropy.size
    if isinstance(entropy, str):
        # SeedSequence parses "0x..." and decimal strings as integers
        return _int_words(int(entropy, 16 if entropy.startswith("0x") else 10))
    return sum(_entropy_words(item) for item in entropy)


def _frozen(values, dtype=np.uint32) -> np.ndarray:
    """A read-only array: the cached constants below are shared by every call."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _hash_steps(start: int, mult: int, skip: int, count: int):
    """``(xor, mult)`` uint32 constants of hash steps ``skip .. skip + count - 1``.

    Step ``j`` xors with the running constant ``start * mult**j``,
    advances it by ``mult`` and multiplies by the advanced value:
    SeedSequence's ``hashmix`` (``mult = MULT_A``) and its
    ``generate_state`` loop (``MULT_B``).
    """
    consts = [start * pow(mult, skip, 1 << 32) & _MASK32]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return _frozen(consts[:-1]), _frozen(consts[1:])


@functools.lru_cache(maxsize=64)
def _mix_steps(pool_size: int, words_before: int):
    """Hashmix constants of the entropy word after ``words_before`` words.

    Filling the pool and mixing it costs ``pool_size**2`` hashmixes;
    every entropy word past the pool costs ``pool_size`` more.
    """
    return _hash_steps(_INIT_A, _MULT_A, pool_size * words_before, pool_size)


@functools.lru_cache(maxsize=8)
def _state_steps(pool_size: int):
    """Pool column and ``(xor, mult)`` constants of each ``generate_state`` word."""
    return (_frozen(np.arange(_STATE_WORDS) % pool_size, np.intp),
            *_hash_steps(_INIT_B, _MULT_B, 0, _STATE_WORDS))


def _fold(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> _XSHIFT)


def _child_words(root: np.random.SeedSequence, indices: range) -> np.ndarray:
    """PCG64 seed words of ``root``'s children ``indices``, as ``(n, 4)`` uint64.

    Child ``i`` of a SeedSequence mixes the root's entropy and spawn key
    followed by the words of ``i``.  Everything before ``i`` is the same
    for every child, and its result is the root's public ``pool``; the
    hash constant reached by then depends only on the root's word count.
    So only the last mix steps (``pool_size`` hashmixes per word of
    ``i``) and ``generate_state(4, np.uint64)`` run, as uint32 columns.
    Row ``r`` equals ``SeedSequence(root.entropy, spawn_key=root.spawn_key
    + (indices[r],), pool_size=root.pool_size).generate_state(4,
    np.uint64)`` bit for bit.
    """
    size = root.pool_size
    # the child pads short run entropy to the pool size (its spawn key is
    # never empty), which mixes exactly like the root's running the hash
    # out with zeros
    prefix = max(size, _entropy_words(root.entropy)) + _entropy_words(root.spawn_key)
    index = np.arange(indices.start, indices.stop, indices.step, dtype=np.uint64)[:, None]
    pool = root.pool  # broadcast against the (n, 1) index column
    last = max(indices[0], indices[-1]) if indices else 0
    for word in range(_int_words(last)):
        xor, mult = _mix_steps(size, prefix + word)
        # the cast keeps the low 32 bits: word ``word`` of each index
        column = (index >> np.uint64(32 * word) if word else index).astype(np.uint32)
        mixed = _fold(_MIX_L * pool - _MIX_R * _fold((column ^ xor) * mult))
        # an index has as many words as it needs: only the rows whose
        # index reaches this word mix it in
        pool = mixed if word == 0 else np.where(index >> np.uint64(32 * word) > 0, mixed, pool)
    columns, xor, mult = _state_steps(size)
    state = _fold((pool.take(columns, axis=1) ^ xor) * mult)
    # little-endian word pairs, as generate_state assembles its uint64s
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _DeviceSeed(np.random.bit_generator.ISpawnableSeedSequence):  # repro-lint: disable=determinism-legacy-np-random -- the explicit API's seed interface, no global state
    """One child's precomputed PCG64 seed words, standing in for its SeedSequence.

    ``PCG64`` accepts any ``ISeedSequence`` and asks it only for
    ``generate_state(4, np.uint64)``; other requests and :meth:`spawn`
    (``Generator.spawn``) go to numpy's real child, built on first use.
    """

    _child = None

    def __init__(self, words: np.ndarray, block: "SeedBlock", position: int):
        self._words = words
        self._block = block
        self._position = position

    def seed_sequence(self) -> np.random.SeedSequence:
        """numpy's real child SeedSequence (built once, then advanced by spawn)."""
        if self._child is None:
            self._child = self._block[self._position]
        return self._child

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self._words  # a read-only row of the block
        return self.seed_sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.seed_sequence().spawn(n_children)


class SeedBlock:
    """``n`` order-stable children of one SeedSequence root, as seed words.

    The block holds each child's PCG64 seed words (an ``(n, 4)`` uint64
    array) plus the root's entropy, spawn key and the children's spawn
    indices -- small and picklable, so a process-pool task ships one
    word array rather than one SeedSequence per device.

    * :meth:`generators` -- one ``Generator`` per child, equal draw for
      draw to ``np.random.default_rng(child)``;
    * ``block[i]`` -- numpy's real child ``SeedSequence`` (iteration and
      unpacking yield them too);
    * ``block[a:b]`` -- a sub-block of the same children.
    """

    def __init__(self, words: np.ndarray, entropy, spawn_key: tuple,
                 indices: range, pool_size: int):
        words.flags.writeable = False
        self.words = words
        self.entropy = entropy
        self.spawn_key = tuple(spawn_key)
        self.indices = indices
        self.pool_size = pool_size

    @classmethod
    def derive(cls, root: np.random.SeedSequence, indices: range) -> "SeedBlock":
        """The children ``indices`` of ``root`` (``root`` is not advanced)."""
        return cls(_child_words(root, indices), root.entropy, root.spawn_key,
                   indices, root.pool_size)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, key: Union[int, slice]):
        if isinstance(key, slice):
            return SeedBlock(self.words[key], self.entropy, self.spawn_key,
                             self.indices[key], self.pool_size)
        return np.random.SeedSequence(
            self.entropy,
            spawn_key=self.spawn_key + (self.indices[key],),
            pool_size=self.pool_size,
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def generators(self) -> List[np.random.Generator]:
        """One generator per child, in order: ``Generator(PCG64(words))``."""
        return [
            np.random.Generator(np.random.PCG64(_DeviceSeed(row, self, i)))
            for i, row in enumerate(self.words)
        ]


def spawn_seeds(seed: SeedLike, n: int) -> SeedBlock:
    """``n`` independent, order-stable child seeds, as one :class:`SeedBlock`.

    The children are exactly ``SeedSequence.spawn``'s: of
    ``SeedSequence(seed)`` for an integer, of ``seed`` itself for a
    SeedSequence (whose spawn counter advances by ``n``), and of
    ``SeedSequence(draw)`` for a :class:`~numpy.random.Generator`, from
    which exactly one 64-bit ``draw`` is consumed.  They do *not*
    depend on how the tasks are later distributed over workers -- the
    foundation of the cross-backend bit-identical guarantee.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(seed, np.random.Generator):
        root = np.random.SeedSequence(int(seed.integers(0, 2**63)))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        try:
            root = np.random.SeedSequence(operator.index(seed))
        except TypeError:
            raise TypeError(
                f"seed must be an integer, SeedSequence or Generator, "
                f"not {type(seed).__name__}"
            ) from None
    start = root.n_children_spawned
    if root is seed:
        if start + n > _MASK32:
            # numpy keeps the counter in a uint32; spawning past it loops forever
            raise OverflowError("the SeedSequence's spawn counter would pass 2**32 - 1")
        # advance the caller's spawn counter, as SeedSequence.spawn does
        root.spawn(n)
    return SeedBlock.derive(root, range(start, start + n))


def spawn_generators(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """``n`` independent generators, one per task (see :func:`spawn_seeds`)."""
    return spawn_seeds(seed, n).generators()


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
