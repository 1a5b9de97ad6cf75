"""Outside-in span tracer for the end-to-end benchmark.

The tracer measures the system's layers without touching ``src/``: it
replaces public functions and methods with timing wrappers at run time
and puts the original objects back afterwards.  Each wrapped call
records one span -- name, start, end, parent span and the request
(experiment or lot) it belongs to.

Per-thread state (the open-span stack, the span list, the current
request id) lives in a :class:`threading.local`, so a span never sees
another thread's stack and the hot path takes no lock.  The only shared
structures are the registry of per-thread span lists, appended to once
per thread under a lock and read after the workload's threads have
ended, and the latest request id set on any thread, which a thread's
first span inherits (so the streaming service's dispatcher, started
during an operation, tags its spans with that operation).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "LayerStats",
    "Span",
    "TARGETS",
    "Target",
    "Tracer",
    "layer_stats",
]


@dataclass(frozen=True)
class Target:
    """One public function or method to time, named by its layer.

    ``path`` is ``"module:attr"`` where ``attr`` may be dotted
    (``"Class.method"``); ``size`` optionally counts the work of one call
    (e.g. the rows of a batched capture) from its positional arguments.
    """

    name: str
    path: str
    size: Optional[Callable[[tuple], int]] = None


def _rows(args: tuple) -> int:
    # signature_batch(self, devices, ...): one row per device
    return len(args[1]) if len(args) > 1 else 0


#: the layer boundaries the benchmark times, outermost layers first
TARGETS: Tuple[Target, ...] = (
    Target("testgen.optimize", "repro.testgen.optimizer:SignatureStimulusOptimizer.optimize"),
    Target("testgen.objective", "repro.testgen.optimizer:SignatureStimulusOptimizer.objective"),
    Target(
        "testgen.signature_matrix",
        "repro.testgen.optimizer:SignatureStimulusOptimizer.signature_matrix",
    ),
    Target(
        "testgen.overdrive_ratio",
        "repro.testgen.optimizer:SignatureStimulusOptimizer.overdrive_ratio",
    ),
    Target(
        "testgen.performance_matrix",
        "repro.testgen.optimizer:SignatureStimulusOptimizer.performance_matrix",
    ),
    Target("circuits.LNA900.__init__", "repro.circuits.lna:LNA900.__init__"),
    Target("circuits.LNA900.specs", "repro.circuits.lna:LNA900.specs"),
    Target(
        "circuits.BehavioralAmplifier.specs",
        "repro.circuits.behavioral:BehavioralAmplifier.specs",
    ),
    Target(
        "loadboard.signature_batch",
        "repro.loadboard.signature_path:SignatureTestBoard.signature_batch",
        size=_rows,
    ),
    Target("loadboard.capture", "repro.loadboard.signature_path:SignatureTestBoard.capture"),
    Target(
        "loadboard.capture_plan",
        "repro.loadboard.signature_path:SignatureTestBoard.capture_plan",
    ),
    # patched where CalibrationSession.fit looks it up, not where it is defined
    Target("regression.select_best_model", "repro.runtime.calibration:select_best_model"),
    Target("regression.PCA.fit", "repro.regression.pca:PCA.fit"),
    Target("regression.Pipeline.fit", "repro.regression.pipeline:Pipeline.fit"),
    Target("regression.Pipeline.predict", "repro.regression.pipeline:Pipeline.predict"),
    Target(
        "runtime.calibration.measure_signatures",
        "repro.runtime.calibration:measure_signatures",
    ),
    Target(
        "runtime.calibration.measure_signatures",
        "repro.experiments.lna_simulation:measure_signatures",
    ),
    Target("runtime.calibration.fit", "repro.runtime.calibration:CalibrationSession.fit"),
    Target("runtime.calibration.predict", "repro.runtime.calibration:CalibrationModel.predict"),
    Target(
        "runtime.calibration.predict_matrix",
        "repro.runtime.calibration:CalibrationModel.predict_matrix",
    ),
    Target("runtime.specs.check", "repro.runtime.specs:SpecificationLimits.check"),
    Target("runtime.production.run", "repro.runtime.production:ProductionTestFlow.run"),
    # the submit span's duration is the time a cell is blocked on backpressure
    Target("runtime.service.submit", "repro.runtime.service:StreamingTestService.submit"),
    Target("runtime.executor.map_tasks", "repro.runtime.executor:SerialExecutor.map_tasks"),
)


@dataclass(frozen=True)
class Span:
    """One finished span; ``parent`` is another span's ``span_id``."""

    span_id: str
    name: str
    start: float
    end: float
    parent: Optional[str]
    request: Optional[int]
    thread: str
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class LayerStats:
    """Aggregate of every span with one name."""

    calls: int
    total_s: float
    self_s: float
    size: int


def _resolve(path: str):
    """``(owner, attribute name)`` for a ``"module:attr.attr"`` path."""
    module_name, _, dotted = path.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = dotted.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Patches :class:`Target` call sites and records their spans.

    Parameters
    ----------
    clock:
        Monotonic time source in seconds (tests inject a fake one).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._registry_lock = threading.Lock()
        self._thread_spans: List[Tuple[int, str, list]] = []
        #: the latest request id set on any thread (guarded by the registry lock)
        self._latest_request: Optional[int] = None
        #: (owner, attribute, original object, whether owner defined it)
        self._patches: List[Tuple[object, str, object, bool]] = []
        #: targets that no longer exist, as ``"<name> (<path>): <reason>"``
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._registry_lock:
                local.request = self._latest_request
                self._thread_spans.append(
                    (len(self._thread_spans), threading.current_thread().name, local.spans)
                )
        return local

    def set_request(self, request: Optional[int]) -> None:
        """Tag the calling thread's next spans with ``request``.

        A thread that records its first span later starts with the
        latest request set on any thread.
        """
        self._thread_state().request = request
        with self._registry_lock:
            self._latest_request = request

    def begin(self, name: str, size: int = 0) -> int:
        """Open a span on the calling thread; returns its index."""
        local = self._thread_state()
        parent = local.stack[-1] if local.stack else None
        index = len(local.spans)
        local.spans.append([name, self.clock(), None, parent, local.request, size])
        local.stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the calling thread's innermost span (``index``)."""
        local = self._local
        local.spans[index][2] = self.clock()
        local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a ``with`` block."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn: Callable, size: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, size(args) if size is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        defined = attr in vars(owner)
        original = vars(owner)[attr] if defined else getattr(owner, attr)
        if not inspect.isfunction(original):
            raise TypeError(f"{attr} is a {type(original).__name__}, not a function")
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original, defined))

    def patch(self, targets: Sequence[Target] = TARGETS) -> None:
        """Wrap every target; missing ones are recorded, not raised."""
        for target in targets:
            try:
                owner, attr = _resolve(target.path)
                self._replace(
                    owner,
                    attr,
                    lambda fn, t=target: self.wrap(t.name, fn, t.size),
                )
            except (ImportError, AttributeError, TypeError) as exc:
                self.missing.append(f"{target.name} ({target.path}): {exc}")

    def unpatch(self) -> None:
        """Put every original object back, newest patch first.

        Raises ``RuntimeError`` if an attribute does not end up as the
        identical original object (or as inherited, when the owner did
        not define it).
        """
        while self._patches:
            owner, attr, original, defined = self._patches.pop()
            if defined:
                setattr(owner, attr, original)
                restored = vars(owner).get(attr) is original
            else:
                delattr(owner, attr)
                restored = attr not in vars(owner) and getattr(owner, attr) is original
            if not restored:
                raise RuntimeError(f"unpatching {owner!r}.{attr} did not restore it")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Every finished span of every thread.

        Call after the threads that recorded spans have ended (or are
        idle): a thread's span list is read without its cooperation.
        """
        with self._registry_lock:
            threads = list(self._thread_spans)
        out = []
        for thread_index, thread_name, records in threads:
            for index, (name, start, end, parent, request, size) in enumerate(records):
                if end is None:
                    continue
                out.append(
                    Span(
                        span_id=f"{thread_index}:{index}",
                        name=name,
                        start=start,
                        end=end,
                        parent=None if parent is None else f"{thread_index}:{parent}",
                        request=request,
                        thread=thread_name,
                        size=size,
                    )
                )
        return out


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def layer_stats(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    """Calls, total time, self time and size summed per span name.

    Self time is a span's duration minus the part of it its child spans
    cover.  Total time counts only the outermost span of a name, so a
    function that re-enters itself is not counted twice.
    """
    by_id = {span.span_id: span for span in spans}
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))

    def nested_in_same_name(span: Span) -> bool:
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        return False

    acc: Dict[str, List[float]] = {}
    for span in spans:
        row = acc.setdefault(span.name, [0, 0.0, 0.0, 0])
        row[0] += 1
        if not nested_in_same_name(span):
            row[1] += span.duration
        row[2] += span.duration - _covered(
            children.get(span.span_id, []), span.start, span.end
        )
        row[3] += span.size
    return {
        name: LayerStats(calls=int(c), total_s=t, self_s=s, size=int(z))
        for name, (c, t, s, z) in acc.items()
    }
