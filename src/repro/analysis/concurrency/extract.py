"""AST -> concurrency IR: locks held, state touched, threads spawned.

The lockset/lock-order rules replay from the lint cache without
re-parsing unchanged files, so everything they need is compressed
into JSON-serializable per-function facts at parse time:

* every ``with <lock>:`` region and bare ``.acquire()`` call, with the
  lock expression as written and the locks already held at that point
  (:class:`LockAcquire` -- the raw material for the held-while-acquiring
  order graph);
* every attribute read/write whose receiver the rules can name --
  ``self.attr``, ``self.obj.attr``, a local variable assigned from a
  constructor, or a module-level global -- with the locks held around
  the access (:class:`SharedAccess` -- the raw material for Eraser-style
  lockset intersection);
* every call site with its held-lock set and, when the receiver is a
  constructor-typed local, the constructor expression
  (:class:`HeldCall` -- call-graph edges that carry locks across
  functions, plus the ``Queue.put``-under-lock hazard sites);
* every ``threading.Thread(target=...)`` spawn and executor
  ``submit``/``map_tasks`` dispatch (:class:`ThreadSpawn` -- the thread
  roots the reachability pass starts from).

Lock expressions stay textual here ("self._lock", "_REGISTRY_LOCK");
:mod:`repro.analysis.concurrency.rules` canonicalizes them against the
project index (owning class, module) where cross-module identity is
known.  An expression counts as a lock when its final name component
contains a ``lock``/``rlock``/``mutex`` token -- the same
convention-over-inference bargain the unit-domain rules strike.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "FunctionConcurrency",
    "HeldCall",
    "LockAcquire",
    "ModuleConcurrency",
    "SharedAccess",
    "ThreadSpawn",
    "extract_concurrency",
    "looks_like_lock",
]

#: final-component name tokens that mark a lock object
_LOCK_TOKENS = frozenset({"lock", "rlock", "mutex"})

#: method names that mutate their receiver in place
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "insert",
        "discard",
    }
)

#: executor-style dispatch attributes whose first argument runs on
#: another thread (mirrors the parallel-safety rules)
_DISPATCH_ATTRS = frozenset({"submit", "map_tasks"})


def looks_like_lock(text: str) -> bool:
    """Does a dotted expression name a lock, by naming convention?"""
    leaf = text.split(".")[-1]
    tokens = set(t for t in leaf.lower().split("_") if t)
    return bool(tokens & _LOCK_TOKENS)


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class LockAcquire:
    """One lock acquisition site with the locks already held there."""

    lock: str
    line: int
    col: int
    held: Tuple[str, ...] = ()
    #: True for ``with lock:`` regions, False for bare ``.acquire()``
    scoped: bool = True

    def to_dict(self) -> Dict[str, object]:
        return {
            "lock": self.lock,
            "line": self.line,
            "col": self.col,
            "held": list(self.held),
            "scoped": self.scoped,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LockAcquire":
        return cls(
            lock=data["lock"],  # type: ignore[arg-type]
            line=data["line"],  # type: ignore[arg-type]
            col=data["col"],  # type: ignore[arg-type]
            held=tuple(data.get("held", ())),  # type: ignore[arg-type]
            scoped=bool(data.get("scoped", True)),
        )


@dataclass
class SharedAccess:
    """One attribute/global access the lockset analysis can attribute."""

    #: receiver as written: "self", "self.obj", a local name, or a
    #: module-level global (with ``attr == ""`` for plain globals)
    recv: str
    attr: str
    line: int
    col: int
    #: "read" or "write"
    kind: str
    held: Tuple[str, ...] = ()
    #: constructor expression that typed a local receiver, when known
    recv_type: Optional[str] = None
    #: True when recv is a module-level name (global state)
    is_global: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "recv": self.recv,
            "attr": self.attr,
            "line": self.line,
            "col": self.col,
            "kind": self.kind,
            "held": list(self.held),
            "recv_type": self.recv_type,
            "is_global": self.is_global,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SharedAccess":
        return cls(
            recv=data["recv"],  # type: ignore[arg-type]
            attr=data["attr"],  # type: ignore[arg-type]
            line=data["line"],  # type: ignore[arg-type]
            col=data["col"],  # type: ignore[arg-type]
            kind=data["kind"],  # type: ignore[arg-type]
            held=tuple(data.get("held", ())),  # type: ignore[arg-type]
            recv_type=data.get("recv_type"),  # type: ignore[arg-type]
            is_global=bool(data.get("is_global", False)),
        )


@dataclass
class HeldCall:
    """One call site annotated with the locks held around it."""

    callee: str
    attr: str
    line: int
    col: int
    held: Tuple[str, ...] = ()
    recv_type: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "callee": self.callee,
            "attr": self.attr,
            "line": self.line,
            "col": self.col,
            "held": list(self.held),
            "recv_type": self.recv_type,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "HeldCall":
        return cls(
            callee=data["callee"],  # type: ignore[arg-type]
            attr=data["attr"],  # type: ignore[arg-type]
            line=data["line"],  # type: ignore[arg-type]
            col=data["col"],  # type: ignore[arg-type]
            held=tuple(data.get("held", ())),  # type: ignore[arg-type]
            recv_type=data.get("recv_type"),  # type: ignore[arg-type]
        )


@dataclass
class ThreadSpawn:
    """One thread-root site: a Thread(target=...) or executor dispatch."""

    target: str
    line: int
    col: int
    #: "thread" for Thread(target=...), "dispatch" for submit/map_tasks
    kind: str = "thread"

    def to_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "line": self.line,
            "col": self.col,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ThreadSpawn":
        return cls(
            target=data["target"],  # type: ignore[arg-type]
            line=data["line"],  # type: ignore[arg-type]
            col=data["col"],  # type: ignore[arg-type]
            kind=data.get("kind", "thread"),  # type: ignore[arg-type]
        )


@dataclass
class FunctionConcurrency:
    """Concurrency facts for one function (qualname matches the summary)."""

    qualname: str
    acquires: List[LockAcquire] = field(default_factory=list)
    accesses: List[SharedAccess] = field(default_factory=list)
    calls: List[HeldCall] = field(default_factory=list)
    spawns: List[ThreadSpawn] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "acquires": [a.to_dict() for a in self.acquires],
            "accesses": [a.to_dict() for a in self.accesses],
            "calls": [c.to_dict() for c in self.calls],
            "spawns": [s.to_dict() for s in self.spawns],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FunctionConcurrency":
        return cls(
            qualname=data["qualname"],  # type: ignore[arg-type]
            acquires=[LockAcquire.from_dict(a) for a in data.get("acquires", [])],
            accesses=[SharedAccess.from_dict(a) for a in data.get("accesses", [])],
            calls=[HeldCall.from_dict(c) for c in data.get("calls", [])],
            spawns=[ThreadSpawn.from_dict(s) for s in data.get("spawns", [])],
        )


@dataclass
class ModuleConcurrency:
    """All concurrency facts of one module, keyed like its summary."""

    functions: List[FunctionConcurrency] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"functions": [f.to_dict() for f in self.functions]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModuleConcurrency":
        return cls(
            functions=[
                FunctionConcurrency.from_dict(f) for f in data.get("functions", [])
            ]
        )


class _LocalNames(ast.NodeVisitor):
    """Names a function binds locally (params added by the caller)."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.names.add(node.id)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.names.add(node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.names.add(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _function_params(func: ast.AST) -> List[str]:
    args = func.args
    return [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]


class _FunctionWalker:
    """One pass over a function body tracking the held-lock stack."""

    def __init__(self, qualname: str, module_level_names: Set[str]) -> None:
        self.out = FunctionConcurrency(qualname=qualname)
        self.module_level_names = module_level_names
        self.local_names: Set[str] = set()
        self.local_types: Dict[str, str] = {}
        self.global_decls: Set[str] = set()
        self.held: List[str] = []

    def run(self, func: ast.AST) -> FunctionConcurrency:
        collector = _LocalNames()
        for stmt in func.body:
            collector.visit(stmt)
        self.local_names = set(_function_params(func)) | collector.names
        for stmt in func.body:
            self._visit_stmt(stmt)
        return self.out

    # -- statements --------------------------------------------------------

    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are walked as their own functions
        if isinstance(stmt, ast.Global):
            self.global_decls.update(stmt.names)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._visit_with(stmt)
            return
        if isinstance(stmt, ast.Assign):
            self._visit_expr(stmt.value)
            for target in stmt.targets:
                self._visit_target(target)
            self._note_types(stmt.targets, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_expr(stmt.value)
                self._note_types([stmt.target], stmt.value)
            self._visit_target(stmt.target)
            return
        if isinstance(stmt, ast.AugAssign):
            self._visit_expr(stmt.value)
            self._visit_target(stmt.target, also_read=True)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._visit_expr(stmt.iter)
            self._visit_target(stmt.target)
            for s in [*stmt.body, *stmt.orelse]:
                self._visit_stmt(s)
            return
        # generic compound/simple statement: child statements recurse with
        # the same held stack, child expressions get the expression scan
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._visit_stmt(child)
            elif isinstance(child, ast.expr):
                self._visit_expr(child)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        self._visit_stmt(sub)
                    elif isinstance(sub, ast.expr):
                        self._visit_expr(sub)

    def _visit_with(self, stmt: ast.stmt) -> None:
        pushed = 0
        for item in stmt.items:
            text = _dotted(item.context_expr)
            if text is not None and looks_like_lock(text):
                self.out.acquires.append(
                    LockAcquire(
                        lock=text,
                        line=item.context_expr.lineno,
                        col=item.context_expr.col_offset + 1,
                        held=tuple(self.held),
                        scoped=True,
                    )
                )
                self.held.append(text)
                pushed += 1
            else:
                self._visit_expr(item.context_expr)
            if item.optional_vars is not None:
                self._visit_target(item.optional_vars)
        for s in stmt.body:
            self._visit_stmt(s)
        for _ in range(pushed):
            self.held.pop()

    # -- assignment targets ------------------------------------------------

    def _visit_target(self, target: ast.expr, also_read: bool = False) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._visit_target(element, also_read=also_read)
            return
        if isinstance(target, ast.Starred):
            self._visit_target(target.value, also_read=also_read)
            return
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self._record_global(target.id, target, "write")
            return
        if isinstance(target, ast.Subscript):
            self._visit_expr(target.slice)
            base = target.value
            text = _dotted(base)
            if text is not None:
                self._record_chain(text, target, "write")
                if also_read:
                    self._record_chain(text, target, "read")
            else:
                self._visit_expr(base)
            return
        if isinstance(target, ast.Attribute):
            text = _dotted(target)
            if text is not None:
                self._record_chain(text, target, "write")
                if also_read:
                    self._record_chain(text, target, "read")
            else:
                self._visit_expr(target.value)

    def _note_types(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        """Track ``name = Constructor(...)`` so receiver types resolve."""
        if not isinstance(value, ast.Call):
            return
        ctor = _dotted(value.func)
        if ctor is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.local_types[target.id] = ctor

    # -- expressions -------------------------------------------------------

    def _visit_expr(self, node: Optional[ast.expr]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Lambda):
            return  # deferred body; executes under unknown locks
        if isinstance(node, ast.Call):
            self._visit_call(node)
            return
        if isinstance(node, ast.Attribute):
            text = _dotted(node)
            if text is not None:
                self._record_chain(text, node, "read")
            else:
                self._visit_expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child)
            elif isinstance(child, ast.comprehension):
                self._visit_expr(child.iter)
                for cond in child.ifs:
                    self._visit_expr(cond)

    def _visit_call(self, node: ast.Call) -> None:
        callee = _dotted(node.func)
        if callee is not None:
            parts = callee.split(".")
            attr = parts[-1]
            recv_type = (
                self.local_types.get(parts[0]) if len(parts) > 1 else None
            )
            self.out.calls.append(
                HeldCall(
                    callee=callee,
                    attr=attr,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    held=tuple(self.held),
                    recv_type=recv_type,
                )
            )
            # bare .acquire() on a lock: an order edge without a scope
            if attr == "acquire" and len(parts) > 1:
                recv = ".".join(parts[:-1])
                if looks_like_lock(recv):
                    self.out.acquires.append(
                        LockAcquire(
                            lock=recv,
                            line=node.lineno,
                            col=node.col_offset + 1,
                            held=tuple(self.held),
                            scoped=False,
                        )
                    )
            # mutator method: a write to the receiver
            if attr in _MUTATORS and len(parts) > 1:
                recv = ".".join(parts[:-1])
                self._record_chain(recv, node, "write", synthetic_leaf=True)
            # thread spawn: Thread(target=...)
            if attr == "Thread":
                for kw in node.keywords:
                    if kw.arg == "target":
                        target = _dotted(kw.value)
                        if target is not None:
                            self.out.spawns.append(
                                ThreadSpawn(
                                    target=target,
                                    line=node.lineno,
                                    col=node.col_offset + 1,
                                    kind="thread",
                                )
                            )
            # executor dispatch: submit(fn, ...) / map_tasks(fn, ...)
            if attr in _DISPATCH_ATTRS and node.args:
                target = _dotted(node.args[0])
                if target is not None:
                    self.out.spawns.append(
                        ThreadSpawn(
                            target=target,
                            line=node.lineno,
                            col=node.col_offset + 1,
                            kind="dispatch",
                        )
                    )
            # the receiver chain of a method call is itself a read
            if isinstance(node.func, ast.Attribute):
                recv_text = _dotted(node.func.value)
                if recv_text is not None:
                    self._record_chain(recv_text, node, "read", synthetic_leaf=True)
                else:
                    self._visit_expr(node.func.value)
        else:
            self._visit_expr(node.func)
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                self._visit_expr(arg.value)
            else:
                self._visit_expr(arg)
        for kw in node.keywords:
            self._visit_expr(kw.value)

    # -- access recording --------------------------------------------------

    def _record_chain(
        self,
        text: str,
        node: ast.AST,
        kind: str,
        synthetic_leaf: bool = False,
    ) -> None:
        """Record an access for a dotted chain when the receiver is namable.

        ``synthetic_leaf`` marks chains already stripped to their
        receiver (mutator calls, method-call receivers) where the final
        component *is* the attribute of interest.
        """
        del synthetic_leaf  # the chain shape alone decides the split
        parts = text.split(".")
        root = parts[0]
        if root == "self":
            if len(parts) == 2:
                self._append_access(parts[0], parts[1], node, kind)
            elif len(parts) == 3:
                self._append_access(f"{parts[0]}.{parts[1]}", parts[2], node, kind)
            return
        if root in self.local_names:
            if len(parts) == 2 and root in self.local_types:
                self._append_access(
                    root, parts[1], node, kind, recv_type=self.local_types[root]
                )
            return
        if root in self.module_level_names:
            if kind == "write" or len(parts) == 1:
                if kind == "write":
                    self._record_global(root, node, "write")
            return

    def _record_global(self, name: str, node: ast.AST, kind: str) -> None:
        if name in self.module_level_names or name in self.global_decls:
            self.out.accesses.append(
                SharedAccess(
                    recv=name,
                    attr="",
                    line=node.lineno,
                    col=node.col_offset + 1,
                    kind=kind,
                    held=tuple(self.held),
                    is_global=True,
                )
            )

    def _append_access(
        self,
        recv: str,
        attr: str,
        node: ast.AST,
        kind: str,
        recv_type: Optional[str] = None,
    ) -> None:
        if looks_like_lock(attr):
            return  # the lock object itself is not shared *state*
        self.out.accesses.append(
            SharedAccess(
                recv=recv,
                attr=attr,
                line=node.lineno,
                col=node.col_offset + 1,
                kind=kind,
                held=tuple(self.held),
                recv_type=recv_type,
            )
        )


def _walk_functions(
    body: Sequence[ast.stmt],
    prefix: str,
    module_level_names: Set[str],
    out: List[FunctionConcurrency],
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{stmt.name}"
            walker = _FunctionWalker(qualname, module_level_names)
            out.append(walker.run(stmt))
            _walk_functions(
                stmt.body, f"{qualname}.<locals>.", module_level_names, out
            )
        elif isinstance(stmt, ast.ClassDef) and not prefix:
            _walk_functions(
                stmt.body, f"{stmt.name}.", module_level_names, out
            )


def extract_concurrency(tree: ast.Module) -> ModuleConcurrency:
    """Extract the module's concurrency facts (cache-serializable)."""
    module_level_names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    module_level_names.add(target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_level_names.add(stmt.name)

    functions: List[FunctionConcurrency] = []
    _walk_functions(tree.body, "", module_level_names, functions)
    return ModuleConcurrency(functions=functions)
