"""Runtime guards: make NaN/Inf births and lock-order inversions loud.

Static per-file rules catch mistakes they can see in one module's
source; they cannot catch a ``log10(0)`` fed by data, or two threads
taking the same pair of locks in opposite orders.  The golden corpora
and the bit-identity relations in :mod:`repro.verify` say the signature
is reproducible; these two guards say that nothing silently went
non-finite or nearly deadlocked on the way there.  Both are plain
context managers with no dependency on the rest of ``repro``.

**FP sanitizer.**  The signature pipeline is exactly the kind of code
where a NaN born in one stage (a zero-power bin, a degenerate
covariance) propagates silently through the calibration solve and
surfaces three modules later as a slightly-wrong spec prediction --
the worst possible failure mode for a framework whose whole claim is
that the cheap signature can be *trusted* in place of real
measurements.  :func:`fp_sanitizer` turns NumPy's ``invalid`` and
``divide`` warnings into :class:`FloatingPointError` at the operation
that created the non-finite value.  The test suite runs every test
under it (an autouse fixture in ``tests/conftest.py``); tests
exercising intentional non-finite arithmetic opt out with
``@pytest.mark.allow_nonfinite``.  Library code with a *legitimate*
non-finite (``watts_to_dbm(0.0)`` returning ``-inf`` as a documented
sentinel) scopes its own ``np.errstate`` locally, so it stays quiet
under the sanitizer without the caller giving up coverage.

**Lock-order sanitizer.**  Inside :func:`lock_sanitizer`, every lock
constructed through ``threading.Lock`` / ``threading.RLock`` is
replaced by a wrapper that records, per thread, the stack of
currently-held locks and one global acquisition-order graph: an edge
``a -> b`` whenever ``b`` is acquired while ``a`` is held.  Locks are
named by creation site, so every ``self._lock = threading.Lock()`` in
the library maps to a stable node.  A cycle in the order graph is a
potential deadlock even when the soak got lucky.  With ``fail_fast``
(the default) the acquire that would close a cycle raises
:class:`LockOrderViolation` *before* blocking, so a test fails with the
full cycle named instead of hanging until the CI timeout.  Hold times
are tracked per lock; ``max_hold_seconds`` converts outliers into
violations surfaced by :meth:`LockSanitizerReport.check` -- the shape
of bug where a capture runs under the service lock and every other
thread convoys behind it.  Opt in from the test suite with
``REPRO_SANITIZE_LOCKS=1`` (the ``tests/conftest.py`` fixture) or from
the CLI with ``repro soak --sanitize-locks``.
"""

from __future__ import annotations

import _thread
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

__all__ = [
    "SANITIZER_MARKER",
    "LockOrderViolation",
    "LockSanitizerReport",
    "SanitizedLock",
    "SanitizedRLock",
    "fp_sanitizer",
    "lock_sanitizer",
]

#: pytest marker name used to opt a test out of the sanitizer.
SANITIZER_MARKER = "allow_nonfinite"


@contextmanager
def fp_sanitizer() -> Iterator[None]:
    """Raise :class:`FloatingPointError` where NaN/Inf are created.

    ``invalid`` (0/0, inf-inf, sqrt/log of a negative) and ``divide``
    (x/0, log of 0) raise; ``overflow`` and ``underflow`` keep NumPy's
    defaults -- overflow to inf in intermediate magnitudes is ordinary
    in envelope simulation and is not, by itself, a propagating bug.
    """
    with np.errstate(invalid="raise", divide="raise"):
        yield


class LockOrderViolation(RuntimeError):
    """Two locks were taken in both orders (or held past the budget)."""

    def __init__(self, message: str, cycle: Tuple[str, ...] = ()):
        super().__init__(message)
        #: lock names along the offending cycle, in acquisition order
        self.cycle = tuple(cycle)


def _caller_site() -> str:
    """``dir/file.py:line`` of the nearest frame outside this machinery."""
    frame = sys._getframe(1)
    here = __file__
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename != here and not filename.endswith("threading.py"):
            parts = filename.replace(os.sep, "/").split("/")
            return "/".join(parts[-2:]) + f":{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class _Sanitizer:
    """Shared state behind one :func:`lock_sanitizer` window."""

    def __init__(self, fail_fast: bool, max_hold_seconds: Optional[float]):
        self.fail_fast = fail_fast
        self.max_hold_seconds = max_hold_seconds
        self.n_locks = 0
        #: (held name, acquired name) -> site string of the first witness
        self.edges: Dict[Tuple[str, str], str] = {}
        self.adjacency: Dict[str, Set[str]] = {}
        self.worst_holds: Dict[str, float] = {}
        self.violations: List[str] = []
        self._reported: Set[frozenset] = set()
        # the graph's own mutex is a raw _thread lock: it must never be
        # sanitized, and it is never held while taking a user lock
        self._meta = _thread.allocate_lock()
        self._tls = threading.local()

    # -- per-thread held stack -----------------------------------------

    def _held(self) -> List[Tuple["SanitizedLock", float]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    # -- graph maintenance ---------------------------------------------

    def _path(self, start: str, goal: str) -> Optional[List[str]]:
        """Shortest ``start -> ... -> goal`` path in the order graph."""
        if start == goal:
            return [start]
        parents: Dict[str, str] = {}
        frontier = [start]
        seen = {start}
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                for succ in sorted(self.adjacency.get(node, ())):
                    if succ in seen:
                        continue
                    parents[succ] = node
                    if succ == goal:
                        path = [goal]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        return path[::-1]
                    seen.add(succ)
                    nxt.append(succ)
            frontier = nxt
        return None

    def before_acquire(self, lock: "SanitizedLock", blocking: bool) -> None:
        """Record order edges; in fail-fast mode refuse to close a cycle.

        Runs *before* the underlying acquire can block, so a would-be
        deadlock surfaces as an exception in the acquiring thread while
        it still holds its locks (the ``with`` statements unwind and
        release them).
        """
        held = self._held()
        if not held:
            return
        failure: Optional[LockOrderViolation] = None
        with self._meta:
            for other, _ in held:
                if other is lock or other.name == lock.name:
                    continue
                # existing path acquired -> ... -> held means the new
                # held -> acquired edge closes a cycle
                back = self._path(lock.name, other.name)
                edge = (other.name, lock.name)
                if edge not in self.edges:
                    self.edges[edge] = _caller_site()
                    self.adjacency.setdefault(other.name, set()).add(lock.name)
                if back is None:
                    continue
                cycle = tuple(back) + (back[0],)
                key = frozenset(back)
                if key in self._reported:
                    continue
                self._reported.add(key)
                legs = " -> ".join(cycle)
                message = (
                    f"lock order cycle: `{other.name}` is held while "
                    f"acquiring `{lock.name}`, but the reverse order "
                    f"{legs} was already observed; two threads "
                    f"interleaving these paths deadlock"
                )
                self.violations.append(message)
                if self.fail_fast and blocking and failure is None:
                    failure = LockOrderViolation(message, cycle)
        if failure is not None:
            raise failure

    def after_acquire(self, lock: "SanitizedLock") -> None:
        self._held().append((lock, time.perf_counter()))

    def on_release(self, lock: "SanitizedLock") -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i][0] is lock:
                _, t_acquired = held.pop(i)
                hold = time.perf_counter() - t_acquired
                with self._meta:
                    if hold > self.worst_holds.get(lock.name, 0.0):
                        self.worst_holds[lock.name] = hold
                    if (
                        self.max_hold_seconds is not None
                        and hold > self.max_hold_seconds
                    ):
                        self.violations.append(
                            f"lock `{lock.name}` held for {hold:.3f}s "
                            f"(budget {self.max_hold_seconds:.3f}s); long "
                            f"holds convoy every other thread"
                        )
                return


class SanitizedLock:
    """Drop-in ``threading.Lock`` that reports to a :class:`_Sanitizer`."""

    def __init__(self, sanitizer: _Sanitizer, name: str):
        self._san = sanitizer
        self.name = name
        self._inner = _thread.allocate_lock()
        with sanitizer._meta:
            sanitizer.n_locks += 1

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._san.before_acquire(self, blocking)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._san.after_acquire(self)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._san.on_release(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def _at_fork_reinit(self) -> None:
        # logging and multiprocessing reinitialize their locks in the
        # child after a fork; mirror _thread.LockType's protocol
        self._inner = _thread.allocate_lock()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self._inner.locked() else "unlocked"
        return f"<{type(self).__name__} {self.name} {state}>"


class SanitizedRLock(SanitizedLock):
    """Drop-in ``threading.RLock`` (reentrant; Condition-compatible)."""

    def __init__(self, sanitizer: _Sanitizer, name: str):
        super().__init__(sanitizer, name)
        self._owner: Optional[int] = None
        self._count = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._owner == me:
            self._count += 1
            return True
        self._san.before_acquire(self, blocking)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._owner = me
            self._count = 1
            self._san.after_acquire(self)
        return ok

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError("cannot release un-acquired lock")
        self._count -= 1
        if self._count == 0:
            self._owner = None
            self._inner.release()
            self._san.on_release(self)

    def _at_fork_reinit(self) -> None:
        super()._at_fork_reinit()
        self._owner = None
        self._count = 0

    # _thread.RLock protocol: multiprocessing's resource tracker asks
    # for the current recursion depth before forking its daemon
    def _recursion_count(self) -> int:
        return self._count if self._owner == threading.get_ident() else 0

    # threading.Condition protocol: release/restore the *full* recursion
    # depth around a wait
    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def _release_save(self):
        state = (self._count, self._owner)
        self._count = 0
        self._owner = None
        self._inner.release()
        self._san.on_release(self)
        return state

    def _acquire_restore(self, state) -> None:
        self._san.before_acquire(self, True)
        self._inner.acquire()
        self._count, self._owner = state
        self._san.after_acquire(self)


class LockSanitizerReport:
    """Live view of one sanitizer window; JSON-able once it closes."""

    def __init__(self, sanitizer: _Sanitizer):
        self._san = sanitizer

    @property
    def n_locks(self) -> int:
        return self._san.n_locks

    @property
    def edges(self) -> List[Tuple[str, str]]:
        with self._san._meta:
            return sorted(self._san.edges)

    @property
    def violations(self) -> List[str]:
        with self._san._meta:
            return list(self._san.violations)

    def worst_holds(self, n: int = 5) -> List[Tuple[str, float]]:
        """The ``n`` longest observed single holds, worst first."""
        with self._san._meta:
            ranked = sorted(
                self._san.worst_holds.items(), key=lambda kv: -kv[1]
            )
        return ranked[:n]

    def check(self) -> None:
        """Raise :class:`LockOrderViolation` if anything was recorded."""
        violations = self.violations
        if violations:
            raise LockOrderViolation(
                "; ".join(violations) if len(violations) > 1 else violations[0]
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "locks_instrumented": self.n_locks,
            "order_edges": [list(edge) for edge in self.edges],
            "violations": self.violations,
            "worst_holds_seconds": {
                name: round(seconds, 6)
                for name, seconds in self.worst_holds(n=10)
            },
        }


@contextmanager
def lock_sanitizer(
    fail_fast: bool = True, max_hold_seconds: Optional[float] = None
) -> Iterator[LockSanitizerReport]:
    """Instrument every lock constructed inside the ``with`` block.

    Patches ``threading.Lock`` and ``threading.RLock`` so objects built
    in the window (services, queues, boards) get sanitized locks; locks
    created before or after are untouched.  Yields the live
    :class:`LockSanitizerReport`; call :meth:`~LockSanitizerReport.check`
    after the workload to fail on recorded violations when not using
    ``fail_fast``.
    """
    sanitizer = _Sanitizer(fail_fast, max_hold_seconds)
    report = LockSanitizerReport(sanitizer)
    orig_lock, orig_rlock = threading.Lock, threading.RLock

    def make_lock() -> SanitizedLock:
        return SanitizedLock(sanitizer, _caller_site())

    def make_rlock() -> SanitizedRLock:
        return SanitizedRLock(sanitizer, _caller_site())

    threading.Lock = make_lock  # type: ignore[assignment]
    threading.RLock = make_rlock  # type: ignore[assignment]
    try:
        yield report
    finally:
        threading.Lock = orig_lock  # type: ignore[assignment]
        threading.RLock = orig_rlock  # type: ignore[assignment]
