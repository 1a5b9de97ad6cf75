"""Lockset and lock-order project rules over the call graph.

One memoized :func:`analyze_concurrency` pass computes everything the
four ``conc-*`` rules report, so ``--select conc-lock-escape`` does not
re-run the fixpoints three more times.  The pass:

1. **discovers thread roots** -- ``threading.Thread(target=...)`` spawn
   sites, ``threading.Thread`` subclasses' ``run`` methods, and executor
   ``submit``/``map_tasks`` dispatch targets -- and computes, per
   function, the set of *contexts* (spawned roots + the main thread)
   that can reach it through the resolved call graph;
2. **propagates locksets** interprocedurally: ``held_in(f)`` is the
   intersection over all call sites of the caller's locks plus the
   locks held around the site (Eraser's meet), and ``held_any(f)`` the
   union (for the deadlock may-analysis).  A function nobody in the
   library calls is an API entry point and starts lock-free;
3. **checks shared state**: an attribute accessed from two or more
   contexts with at least one post-``__init__`` write must have a
   non-empty common lockset (``conc-unlocked-shared-write``), and when
   its writes *are* consistently guarded, every cross-thread read must
   hold the same lock (``conc-lock-escape``).  A class may opt out with
   a ``lint-concurrency: single-writer`` docstring tag when an external
   happens-before (``Thread.join``, a build-then-publish structure, a
   single-writer ring) makes the lock-free sharing intentional; the
   scoped form ``single-writer attr1 attr2`` exempts only the named
   attributes so the rest of the class stays checked;
4. **orders locks**: every acquisition while other locks are held adds
   held -> acquired edges; a cycle is a potential deadlock
   (``conc-lock-order-cycle``), and a ``Queue.put/get``, ``join``,
   ``wait``, ``result`` or executor dispatch made while any lock is
   held is the classic streaming-service stall shape
   (``conc-blocking-under-lock``).

The analysis is deliberately FP-averse like the rest of the package:
receivers resolve only through ``self``, constructor-typed attributes
and locals, or module globals; everything else stays unnamed and is
never flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.concurrency.extract import (
    FunctionConcurrency,
    HeldCall,
    ModuleConcurrency,
    SharedAccess,
)
from repro.analysis.engine import Finding
from repro.analysis.project import (
    CallSummary,
    ClassSummary,
    ModuleSummary,
    ProjectIndex,
    ProjectRule,
)

__all__ = [
    "RULE_UNLOCKED_SHARED_WRITE",
    "RULE_LOCK_ESCAPE",
    "RULE_LOCK_ORDER_CYCLE",
    "RULE_BLOCKING_UNDER_LOCK",
    "MAIN_CONTEXT",
    "ConcurrencyResult",
    "analyze_concurrency",
    "UnlockedSharedWriteRule",
    "LockEscapeRule",
    "LockOrderCycleRule",
    "BlockingUnderLockRule",
    "CONCURRENCY_RULES",
]

RULE_UNLOCKED_SHARED_WRITE = "conc-unlocked-shared-write"
RULE_LOCK_ESCAPE = "conc-lock-escape"
RULE_LOCK_ORDER_CYCLE = "conc-lock-order-cycle"
RULE_BLOCKING_UNDER_LOCK = "conc-blocking-under-lock"

#: context tag for code reached from no spawned thread root
MAIN_CONTEXT = "<main>"

#: methods that run before (or outside) any sharing: their accesses are
#: initialization, not races
_INIT_PHASE = frozenset({"__init__", "__new__", "__getstate__", "__setstate__"})

#: method names shared with dict/list/set/str/Queue/ndarray: a call
#: ``x.get(...)`` on an untyped receiver must NOT resolve to the
#: project's sole ``get`` method -- the receiver is almost always a
#: builtin.  Typed receivers (``self._registry.get``) still resolve.
_AMBIENT_ATTRS = frozenset(
    {
        "add",
        "append",
        "astype",
        "clear",
        "copy",
        "count",
        "discard",
        "extend",
        "flush",
        "format",
        "get",
        "index",
        "insert",
        "items",
        "join",
        "keys",
        "max",
        "mean",
        "min",
        "pop",
        "popitem",
        "put",
        "quantile",
        "read",
        "remove",
        "reshape",
        "setdefault",
        "sort",
        "split",
        "std",
        "strip",
        "sum",
        "update",
        "values",
        "write",
    }
)

#: method names that block the calling thread
_BLOCKING_ATTRS = frozenset(
    {"put", "get", "join", "wait", "result", "submit", "map_tasks"}
)

#: receiver-name tokens that mark a queue/thread/executor-ish object
_BLOCKING_RECV_TOKENS = frozenset(
    {
        "queue",
        "inbox",
        "outbox",
        "jobs",
        "thread",
        "threads",
        "dispatcher",
        "drain",
        "worker",
        "workers",
        "pool",
        "executor",
        "future",
        "futures",
        "event",
        "barrier",
        "cond",
        "condition",
    }
)


@dataclass
class ConcurrencyResult:
    """Everything one whole-project concurrency pass produced."""

    findings: List[Finding] = field(default_factory=list)
    #: thread-root qualname -> "thread" / "dispatch"
    entries: Dict[str, str] = field(default_factory=dict)


@dataclass
class _Func:
    """One library function with its module and concurrency facts."""

    qual: str
    summary: ModuleSummary
    facts: FunctionConcurrency
    cls_qual: Optional[str] = None
    cls: Optional[ClassSummary] = None


@dataclass
class _StateAccess:
    """One shared-state access, resolved and lockset-annotated."""

    func: _Func
    attr_line: int
    attr_col: int
    kind: str
    lockset: FrozenSet[str]
    contexts: FrozenSet[str]


def _short(qual: str) -> str:
    """Last two components of a qualified name, for messages."""
    parts = qual.rsplit(".", 2)
    return ".".join(parts[-2:]) if len(parts) > 1 else qual


def _name_tokens(name: str) -> Set[str]:
    return {t for t in name.lower().split("_") if t}


class _Analyzer:
    """Builds the concurrency model and evaluates all four rules."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.funcs: Dict[str, _Func] = {}
        #: caller -> [(callee, canonical locks held at the site)]
        self.edges: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
        self.incoming: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
        self.entries: Dict[str, str] = {}
        self.contexts: Dict[str, FrozenSet[str]] = {}
        self.held_in: Dict[str, FrozenSet[str]] = {}
        self.held_any: Dict[str, FrozenSet[str]] = {}
        self.findings: List[Finding] = []
        self._thread_class_memo: Dict[str, bool] = {}

    # -- model construction ------------------------------------------------

    def run(self) -> ConcurrencyResult:
        self._collect_functions()
        self._discover_entries()
        self._build_edges()
        self._compute_contexts()
        self._propagate_locksets()
        self._check_shared_state()
        self._check_lock_order()
        self._check_blocking_under_lock()
        self.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return ConcurrencyResult(findings=self.findings, entries=dict(self.entries))

    def _collect_functions(self) -> None:
        for summary in self.index.summaries:
            if summary.is_test or not summary.concurrency:
                continue
            prefix = summary.module or summary.path
            conc = ModuleConcurrency.from_dict(summary.concurrency)
            by_class = {c.name: c for c in summary.classes}
            for facts in conc.functions:
                qual = f"{prefix}.{facts.qualname}"
                head = facts.qualname.split(".")[0]
                cls = by_class.get(head)
                self.funcs[qual] = _Func(
                    qual=qual,
                    summary=summary,
                    facts=facts,
                    cls_qual=f"{prefix}.{head}" if cls is not None else None,
                    cls=cls,
                )

    def _is_thread_class(self, summary: ModuleSummary, cls: ClassSummary) -> bool:
        key = f"{summary.module or summary.path}.{cls.name}"
        memo = self._thread_class_memo.get(key)
        if memo is not None:
            return memo
        self._thread_class_memo[key] = False  # break base-class cycles
        result = False
        for base in cls.bases:
            resolved = self.index.resolve_constructor(summary, base)
            if resolved is not None:
                base_summary, base_cls = self.index.classes[resolved]
                if self._is_thread_class(base_summary, base_cls):
                    result = True
                    break
            elif base.split(".")[-1] == "Thread":
                result = True
                break
        self._thread_class_memo[key] = result
        return result

    def _resolve_target(self, fn: _Func, target: str) -> Optional[str]:
        """Qualified function a spawn/dispatch target text names."""
        resolved = self.index.resolve_callee(
            fn.summary, CallSummary(target, target.split(".")[-1], 0, 0)
        )
        if resolved in self.index.functions:
            return resolved
        if "." not in target:
            nested = f"{fn.qual}.<locals>.{target}"
            if nested in self.index.functions:
                return nested
        return None

    def _discover_entries(self) -> None:
        from repro.analysis.parallel import _dispatch_roots

        for fn in self.funcs.values():
            for spawn in fn.facts.spawns:
                target = self._resolve_target(fn, spawn.target)
                if target is not None:
                    self.entries.setdefault(target, spawn.kind)
        # map_tasks tasks that hide behind a partial or a local variable:
        # parallel.py already resolves those argument shapes.
        for summary, _site, root in _dispatch_roots(self.index):
            if not summary.is_test and root in self.funcs:
                self.entries.setdefault(root, "dispatch")
        for summary in self.index.summaries:
            if summary.is_test:
                continue
            prefix = summary.module or summary.path
            for cls in summary.classes:
                if "run" in cls.methods and self._is_thread_class(summary, cls):
                    self.entries.setdefault(f"{prefix}.{cls.name}.run", "thread")

    def _canon_lock(self, fn: _Func, text: str) -> str:
        """Project-wide identity of a lock expression, best effort."""
        parts = text.split(".")
        module = fn.summary.module or fn.summary.path
        if parts[0] == "self" and fn.cls_qual is not None:
            if len(parts) == 2:
                return f"{fn.cls_qual}.{parts[1]}"
            if len(parts) == 3 and fn.cls is not None:
                ctor = fn.cls.attr_types.get(parts[1])
                target = (
                    self.index.resolve_constructor(fn.summary, ctor)
                    if ctor is not None
                    else None
                )
                if target is not None:
                    return f"{target}.{parts[2]}"
            return f"{fn.cls_qual}.{'.'.join(parts[1:])}"
        if parts[0] in fn.summary.module_level_names:
            return f"{module}.{text}"
        # parameter/local locks only match within their own function
        return f"{fn.qual}:{text}"

    def _canon_held(self, fn: _Func, held: Tuple[str, ...]) -> FrozenSet[str]:
        return frozenset(self._canon_lock(fn, h) for h in held)

    def _receiver_class(
        self, fn: _Func, access: SharedAccess
    ) -> Tuple[Optional[str], Optional[ClassSummary]]:
        """(owner qualname, owner class) of an access's receiver."""
        if access.is_global:
            return fn.summary.module or fn.summary.path, None
        if access.recv == "self":
            return fn.cls_qual, fn.cls
        if access.recv.startswith("self.") and fn.cls is not None:
            attr = access.recv.split(".", 1)[1]
            ctor = fn.cls.attr_types.get(attr)
            if ctor is not None and ctor.split(".")[-1] == "local":
                return None, None  # threading.local: per-thread by design
            target = (
                self.index.resolve_constructor(fn.summary, ctor)
                if ctor is not None
                else None
            )
            if target is not None:
                return target, self.index.classes[target][1]
            if fn.cls_qual is not None:
                return f"{fn.cls_qual}.{attr}", None
            return None, None
        if access.recv_type is not None:
            target = self.index.resolve_constructor(fn.summary, access.recv_type)
            if target is not None:
                return target, self.index.classes[target][1]
        return None, None

    def _resolve_call(self, fn: _Func, call: HeldCall) -> Optional[str]:
        if call.recv_type is not None:
            target = self.index.resolve_constructor(fn.summary, call.recv_type)
            if target is not None:
                cls = self.index.classes[target][1]
                if call.attr in cls.methods:
                    return f"{target}.{call.attr}"
                return None
        resolved = self.index.resolve_callee(
            fn.summary,
            CallSummary(call.callee, call.attr, call.line, call.col),
            unique_attr=call.attr not in _AMBIENT_ATTRS,
        )
        if resolved in self.index.functions:
            return resolved
        if resolved in self.index.classes:
            init = f"{resolved}.__init__"
            if init in self.index.functions:
                return init
        if "." not in call.callee:
            nested = f"{fn.qual}.<locals>.{call.callee}"
            if nested in self.index.functions:
                return nested
        return None

    def _build_edges(self) -> None:
        for fn in self.funcs.values():
            out: List[Tuple[str, FrozenSet[str]]] = []
            for call in fn.facts.calls:
                target = self._resolve_call(fn, call)
                if target is not None and target in self.funcs:
                    out.append((target, self._canon_held(fn, call.held)))
            # a property/method read through a typed receiver is an edge
            for access in fn.facts.accesses:
                if access.kind != "read":
                    continue
                owner, owner_cls = self._receiver_class(fn, access)
                if (
                    owner is not None
                    and owner_cls is not None
                    and access.attr in owner_cls.methods
                ):
                    target = f"{owner}.{access.attr}"
                    if target in self.funcs:
                        out.append((target, self._canon_held(fn, access.held)))
            self.edges[fn.qual] = out
            for target, held in out:
                self.incoming.setdefault(target, []).append((fn.qual, held))

    def _reach(self, roots: List[str]) -> Set[str]:
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.funcs]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(
                t for t, _ in self.edges.get(current, ()) if t not in seen
            )
        return seen

    def _compute_contexts(self) -> None:
        tagged: Dict[str, Set[str]] = {q: set() for q in self.funcs}
        for entry in self.entries:
            for reached in self._reach([entry]):
                tagged[reached].add(entry)
        main_roots = [
            q
            for q in self.funcs
            if q not in self.entries and not self.incoming.get(q)
        ]
        for reached in self._reach(main_roots):
            tagged[reached].add(MAIN_CONTEXT)
        for qual, tags in tagged.items():
            # a function nothing reaches is itself a public entry point
            self.contexts[qual] = frozenset(tags or {MAIN_CONTEXT})

    def _propagate_locksets(self) -> None:
        top = None
        held_in: Dict[str, Optional[FrozenSet[str]]] = {}
        for qual in self.funcs:
            rootlike = qual in self.entries or not self.incoming.get(qual)
            held_in[qual] = frozenset() if rootlike else top
        for _ in range(len(self.funcs) + 2):
            changed = False
            for qual in self.funcs:
                if qual in self.entries or not self.incoming.get(qual):
                    continue
                metas = [
                    held_in[caller] | site_held
                    for caller, site_held in self.incoming[qual]
                    if caller in held_in and held_in[caller] is not top
                ]
                new: Optional[FrozenSet[str]] = top
                if metas:
                    common = metas[0]
                    for m in metas[1:]:
                        common &= m
                    new = common
                if new != held_in[qual]:
                    held_in[qual] = new
                    changed = True
            if not changed:
                break
        self.held_in = {
            q: (v if v is not None else frozenset()) for q, v in held_in.items()
        }

        held_any: Dict[str, FrozenSet[str]] = {
            qual: frozenset() for qual in self.funcs
        }
        for _ in range(len(self.funcs) + 2):
            changed = False
            for qual in self.funcs:
                if qual in self.entries:
                    continue
                merged = held_any[qual]
                for caller, site_held in self.incoming.get(qual, ()):
                    if caller in held_any:
                        merged = merged | held_any[caller] | site_held
                if merged != held_any[qual]:
                    held_any[qual] = merged
                    changed = True
            if not changed:
                break
        self.held_any = held_any

    # -- rule 1 + 2: lockset discipline ------------------------------------

    def _context_phrase(self, contexts: FrozenSet[str]) -> str:
        names = []
        for ctx in sorted(contexts):
            if ctx == MAIN_CONTEXT:
                names.append("the main thread")
            elif self.entries.get(ctx) == "dispatch":
                names.append(f"executor tasks via `{_short(ctx)}`")
            else:
                names.append(f"thread `{_short(ctx)}`")
        return " and ".join(names)

    def _check_shared_state(self) -> None:
        states: Dict[Tuple[str, str], List[_StateAccess]] = {}
        exempt_owner: Set[str] = set()
        exempt_attr: Set[Tuple[str, str]] = set()
        for fn in self.funcs.values():
            leaf = fn.qual.rsplit(".", 1)[-1]
            if leaf in _INIT_PHASE:
                continue
            base = self.held_in.get(fn.qual, frozenset())
            for access in fn.facts.accesses:
                owner, owner_cls = self._receiver_class(fn, access)
                if owner is None:
                    continue
                # a module-level global has no attr of its own: key the
                # state on the variable name so two globals in one
                # module stay distinct states
                attr = access.attr or (access.recv if access.is_global else "")
                if owner_cls is not None:
                    if owner_cls.single_writer:
                        if owner_cls.single_writer_attrs:
                            for name in owner_cls.single_writer_attrs:
                                exempt_attr.add((owner, name))
                        else:
                            exempt_owner.add(owner)
                    if access.attr in owner_cls.methods:
                        continue  # handled as a call edge
                states.setdefault((owner, attr), []).append(
                    _StateAccess(
                        func=fn,
                        attr_line=access.line,
                        attr_col=access.col,
                        kind=access.kind,
                        lockset=base | self._canon_held(fn, access.held),
                        contexts=self.contexts.get(
                            fn.qual, frozenset({MAIN_CONTEXT})
                        ),
                    )
                )

        for (owner, attr), accesses in sorted(states.items()):
            if owner in exempt_owner or (owner, attr) in exempt_attr:
                continue
            contexts: Set[str] = set()
            for access in accesses:
                contexts.update(access.contexts)
            writes = [a for a in accesses if a.kind == "write"]
            if len(contexts) < 2 or not writes:
                continue
            common_all = frozenset.intersection(*(a.lockset for a in accesses))
            if common_all:
                continue
            display = _short(f"{owner}.{attr}") if attr else _short(owner)
            write_common = frozenset.intersection(*(a.lockset for a in writes))
            if write_common:
                guard = _short(sorted(write_common)[0])
                for access in accesses:
                    if access.kind == "write" or access.lockset & write_common:
                        continue
                    self.findings.append(
                        Finding(
                            path=access.func.summary.path,
                            line=access.attr_line,
                            col=access.attr_col,
                            rule=RULE_LOCK_ESCAPE,
                            message=(
                                f"`{display}` is guarded by `{guard}` at every "
                                f"write but read here with no lock held; it is "
                                f"shared between {self._context_phrase(contexts)}"
                            ),
                        )
                    )
                continue
            anchors = [w for w in writes if not w.lockset] or writes
            seen_sites: Set[Tuple[str, int]] = set()
            for write in anchors:
                site = (write.func.summary.path, write.attr_line)
                if site in seen_sites:
                    continue
                seen_sites.add(site)
                self.findings.append(
                    Finding(
                        path=write.func.summary.path,
                        line=write.attr_line,
                        col=write.attr_col,
                        rule=RULE_UNLOCKED_SHARED_WRITE,
                        message=(
                            f"`{display}` is written here but shared between "
                            f"{self._context_phrase(contexts)} with no common "
                            f"lock; guard every access with one lock or tag "
                            f"the owning class `lint-concurrency: single-writer`"
                        ),
                    )
                )

    # -- rule 3: lock-order cycles -----------------------------------------

    def _check_lock_order(self) -> None:
        #: (held, acquired) -> first site (path, line, col, func qual)
        order: Dict[Tuple[str, str], Tuple[str, int, int, str]] = {}
        for fn in self.funcs.values():
            base = self.held_any.get(fn.qual, frozenset())
            for acq in fn.facts.acquires:
                lock = self._canon_lock(fn, acq.lock)
                pre = base | self._canon_held(fn, acq.held)
                for held in pre:
                    if held == lock:
                        continue
                    order.setdefault(
                        (held, lock),
                        (fn.summary.path, acq.line, acq.col, fn.qual),
                    )
        adjacency: Dict[str, Set[str]] = {}
        for held, lock in order:
            adjacency.setdefault(held, set()).add(lock)

        reported: Set[FrozenSet[str]] = set()
        for start in sorted(adjacency):
            cycle = self._find_cycle(adjacency, start)
            if cycle is None or frozenset(cycle) in reported:
                continue
            reported.add(frozenset(cycle))
            pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
            path, line, col, _ = order[pairs[-1]]
            chain = " -> ".join(_short(lock) for lock in [*cycle, cycle[0]])
            legs = "; ".join(
                f"`{_short(b)}` acquired at {order[(a, b)][0]}:{order[(a, b)][1]}"
                f" while holding `{_short(a)}`"
                for a, b in pairs
            )
            self.findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=col,
                    rule=RULE_LOCK_ORDER_CYCLE,
                    message=(
                        f"potential deadlock: lock acquisition order forms a "
                        f"cycle {chain} ({legs}); pick one global order"
                    ),
                )
            )

    @staticmethod
    def _find_cycle(
        adjacency: Dict[str, Set[str]], start: str
    ) -> Optional[List[str]]:
        """Shortest held-order path from ``start`` back to itself."""
        parents: Dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            current = queue.pop(0)
            for nxt in sorted(adjacency.get(current, ())):
                if nxt == start:
                    path = [current]
                    while current != start:
                        current = parents[current]
                        path.append(current)
                    return list(reversed(path))
                if nxt not in seen:
                    seen.add(nxt)
                    parents[nxt] = current
                    queue.append(nxt)
        return None

    # -- rule 4: blocking calls under a lock --------------------------------

    def _blocking_receiver(self, call: HeldCall) -> bool:
        if call.attr in ("submit", "map_tasks"):
            return True
        parts = call.callee.split(".")
        if len(parts) < 2:
            return False
        if _name_tokens(parts[-2]) & _BLOCKING_RECV_TOKENS:
            return True
        if call.recv_type is not None:
            leaf = call.recv_type.split(".")[-1]
            if "Queue" in leaf or "Thread" in leaf or "Executor" in leaf:
                return True
        return False

    def _check_blocking_under_lock(self) -> None:
        for fn in self.funcs.values():
            base = self.held_in.get(fn.qual, frozenset())
            for call in fn.facts.calls:
                if call.attr not in _BLOCKING_ATTRS:
                    continue
                held = base | self._canon_held(fn, call.held)
                if not held or not self._blocking_receiver(call):
                    continue
                # joining/waiting on the lock's own class is still a stall
                lock = _short(sorted(held)[0])
                self.findings.append(
                    Finding(
                        path=fn.summary.path,
                        line=call.line,
                        col=call.col,
                        rule=RULE_BLOCKING_UNDER_LOCK,
                        message=(
                            f"blocking call `{call.callee}` made while holding "
                            f"`{lock}`; a stalled queue or worker wedges every "
                            f"thread contending for the lock -- move the "
                            f"blocking call outside the critical section"
                        ),
                    )
                )


def analyze_concurrency(index: ProjectIndex) -> ConcurrencyResult:
    """Whole-project concurrency analysis, memoized per index."""
    cached = getattr(index, "_concurrency_result", None)
    if cached is None:
        cached = _Analyzer(index).run()
        index._concurrency_result = cached  # type: ignore[attr-defined]
    return cached


class _ConcurrencyRule(ProjectRule):
    """Replays the memoized concurrency pass, filtered to one rule."""

    library_only = True

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for finding in analyze_concurrency(index).findings:
            if finding.rule == self.name:
                yield finding


class UnlockedSharedWriteRule(_ConcurrencyRule):
    name = RULE_UNLOCKED_SHARED_WRITE
    description = (
        "an attribute written from one thread context and accessed from "
        "another has an empty common lockset (Eraser-style race)"
    )


class LockEscapeRule(_ConcurrencyRule):
    name = RULE_LOCK_ESCAPE
    description = (
        "an attribute consistently guarded at its writes is also read "
        "with no lock held on a multi-thread-reachable path"
    )


class LockOrderCycleRule(_ConcurrencyRule):
    name = RULE_LOCK_ORDER_CYCLE
    description = (
        "the held-while-acquiring graph over all call paths contains a "
        "cycle: two threads can deadlock by acquiring in opposite order"
    )


class BlockingUnderLockRule(_ConcurrencyRule):
    name = RULE_BLOCKING_UNDER_LOCK
    description = (
        "a blocking queue/thread/executor call (put/get/join/wait/"
        "result/submit) is made while a lock is held"
    )


CONCURRENCY_RULES = (
    UnlockedSharedWriteRule(),
    LockEscapeRule(),
    LockOrderCycleRule(),
    BlockingUnderLockRule(),
)
