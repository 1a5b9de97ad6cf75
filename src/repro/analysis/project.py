"""Project-level analysis substrate: module summaries, symbols, call graph.

The per-file rules in :mod:`repro.analysis.units` & co. judge one AST at
a time; the dangerous bugs in a batched, executor-dispatched codebase
are *cross-module* -- a linear value flowing into a dB-expecting callee
two files away, a closure-captured RNG shipped through ``map_tasks``, a
per-device helper handed a ``(batch, n)`` matrix.  This module builds
the substrate those interprocedural rules run on:

* :func:`summarize_module` compresses one parsed file into a
  JSON-serializable :class:`ModuleSummary`: its imports, module-level
  names, classes, and one :class:`FunctionSummary` per function
  (parameters with inferred unit domains, locally-inferred return
  domain, every call site with per-argument domain/shape/kind
  information, global mutations, RNG captures).  Summaries are what the
  lint cache stores -- re-linting after a one-file edit re-parses one
  file and replays everything else from cache.
* :class:`ProjectIndex` resolves the summaries against each other:
  imports become fully-qualified names, call sites become edges in a
  call graph, and :meth:`ProjectIndex.reachable_from` answers "which
  functions can an executor-dispatched task reach?".

Inference is deliberately lightweight and *sound-ish*, not complete: a
name is classified only when the repo's naming conventions
(``*_db``/``*_dbm``/``*_hz``/``*_watts``, ``devices`` vs ``device``), a
``repro.dsp.units`` converter call, an explicit docstring tag
(``lint-domains: x=db, return=linear``), or a string annotation
(``x: "db"``) pins it down; everything else stays ``None`` and is never
flagged.  Attribute calls (``board.signature_batch``) resolve only when
the method name is unique across the project, so ambiguous names like
``predict`` never produce edges.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import ModuleSource, Rule

__all__ = [
    "DOMAIN_GROUPS",
    "ArgSummary",
    "CallSummary",
    "ClassSummary",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectIndex",
    "ProjectRule",
    "domain_group",
    "domain_of_name",
    "shape_of_name",
    "summarize_module",
]

SUMMARY_SCHEMA_VERSION = 3

# ---------------------------------------------------------------------------
# unit-domain vocabulary
# ---------------------------------------------------------------------------

#: name token -> unit domain
_TOKEN_DOMAINS: Dict[str, str] = {
    "db": "db",
    "dbc": "db",
    "dbv": "db",
    "dbm": "dbm",
    "hz": "hz",
    "khz": "hz",
    "mhz": "hz",
    "ghz": "hz",
    "watts": "watts",
    "milliwatts": "watts",
    "vpeak": "linear",
    "vrms": "linear",
    "vpp": "linear",
    "volts": "linear",
    "volt": "linear",
    "amplitude": "linear",
    "amplitudes": "linear",
    "ratio": "linear",
    "factor": "linear",
}

#: domain -> compatibility group; mixing across groups is flagged
DOMAIN_GROUPS: Dict[str, str] = {
    "db": "log",
    "dbm": "log",
    "linear": "lin",
    "watts": "lin",
    "hz": "freq",
}

#: repro.dsp.units converters: qualified name -> (param domain, return domain)
CONVERTER_SIGNATURES: Dict[str, Tuple[str, str]] = {
    "repro.dsp.units.db": ("linear", "db"),
    "repro.dsp.units.db20": ("linear", "db"),
    "repro.dsp.units.undb": ("db", "linear"),
    "repro.dsp.units.undb20": ("db", "linear"),
    "repro.dsp.units.watts_to_dbm": ("watts", "dbm"),
    "repro.dsp.units.dbm_to_watts": ("dbm", "watts"),
}

#: bare converter names (accepted wherever the import resolves or as attrs)
_CONVERTER_BY_NAME: Dict[str, Tuple[str, str]] = {
    qual.rsplit(".", 1)[1]: sig for qual, sig in CONVERTER_SIGNATURES.items()
}

#: docstring tag: ``lint-domains: x=db, y=hz, return=linear``
_DOMAIN_TAG_RE = re.compile(r"^\s*lint-domains:\s*(.+)$", re.MULTILINE)

#: class docstring tag: ``lint-concurrency: single-writer`` declares an
#: intentionally lock-free structure (one writer thread, readers
#: synchronized externally); the concurrency rules skip its attributes
_CONCURRENCY_TAG_RE = re.compile(r"^\s*lint-concurrency:\s*(.+)$", re.MULTILINE)

# ---------------------------------------------------------------------------
# batch-shape vocabulary
# ---------------------------------------------------------------------------

#: name tokens marking a batch-shaped (2-D / list-of-items) value
_BATCH_TOKENS = frozenset(
    {
        "devices",
        "signatures",
        "batch",
        "matrix",
        "matrices",
        "mat",
        "rows",
        "blocks",
        "chunks",
        "lot",
        "lots",
        "population",
        "genes",
        "points",
        "sigs",
        "records",
        "waveforms",
        "stimuli",
        "tasks",
        "items",
    }
)

#: name tokens marking a single-item value
_ITEM_TOKENS = frozenset(
    {
        "device",
        "signature",
        "row",
        "gene",
        "record",
        "waveform",
        "stimulus",
        "point",
        "sig",
        "item",
        "task",
        "dut",
    }
)

#: names that look like (or are conventionally) np.random.Generator objects
_RNG_NAME_RE = re.compile(r"(^|_)rng$|^rng(_|$)|(^|_)generator$")


def _tokens_of(name: str) -> Tuple[str, ...]:
    return tuple(t for t in name.lower().split("_") if t)


def domain_of_name(name: str) -> Optional[str]:
    """Unit domain implied by an identifier, or ``None`` when neutral.

    ``<src>_to_<dst>`` converter-style names classify by destination.
    A batch/plural token never changes the domain (``gains_db`` is still
    dB), and the first matching token wins scanning right to left (the
    most specific suffix names the unit: ``noise_power_watts``).
    """
    tokens = _tokens_of(name)
    if "to" in tokens:
        last_to = len(tokens) - 1 - tokens[::-1].index("to")
        tokens = tokens[last_to + 1:]
    for token in reversed(tokens):
        if token in _TOKEN_DOMAINS:
            return _TOKEN_DOMAINS[token]
    return None


def domain_group(domain: Optional[str]) -> Optional[str]:
    """Compatibility group of a domain (``log`` / ``lin`` / ``freq``)."""
    if domain is None:
        return None
    return DOMAIN_GROUPS.get(domain)


def shape_of_name(name: str) -> Optional[str]:
    """``"batch"`` / ``"item"`` classification of an identifier, if any."""
    tokens = set(_tokens_of(name))
    if tokens & _BATCH_TOKENS:
        return "batch"
    if tokens & _ITEM_TOKENS:
        return "item"
    return None


def _looks_like_rng_name(name: str) -> bool:
    return bool(_RNG_NAME_RE.search(name.lower()))


# ---------------------------------------------------------------------------
# summary dataclasses (all JSON-serializable via to_dict/from_dict)
# ---------------------------------------------------------------------------


@dataclass
class ArgSummary:
    """One argument at one call site, as locally inferred."""

    text: str = ""
    #: unit domain of the value, when locally known
    domain: Optional[str] = None
    #: qualified/raw callee whose return domain decides this arg's domain
    domain_call: Optional[str] = None
    #: "batch" / "item" shape class, when locally known
    shape: Optional[str] = None
    #: "name" / "lambda" / "localfunc" / "partial" / "other"
    kind: str = "other"
    #: resolved-as-written target of a functools.partial first argument
    partial_target: Optional[str] = None
    #: a Generator (by name or construction) is captured by / shipped in
    #: this argument
    captures_rng: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "text": self.text,
            "domain": self.domain,
            "domain_call": self.domain_call,
            "shape": self.shape,
            "kind": self.kind,
            "partial_target": self.partial_target,
            "captures_rng": self.captures_rng,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArgSummary":
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class CallSummary:
    """One call site inside a function body."""

    callee: str  # dotted name as written ("board.signature_batch")
    attr: str  # final name component ("signature_batch")
    line: int
    col: int
    args: List[ArgSummary] = field(default_factory=list)
    kwargs: Dict[str, ArgSummary] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "callee": self.callee,
            "attr": self.attr,
            "line": self.line,
            "col": self.col,
            "args": [a.to_dict() for a in self.args],
            "kwargs": {k: v.to_dict() for k, v in self.kwargs.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CallSummary":
        return cls(
            callee=data["callee"],  # type: ignore[arg-type]
            attr=data["attr"],  # type: ignore[arg-type]
            line=data["line"],  # type: ignore[arg-type]
            col=data["col"],  # type: ignore[arg-type]
            args=[ArgSummary.from_dict(a) for a in data.get("args", [])],
            kwargs={
                k: ArgSummary.from_dict(v)
                for k, v in data.get("kwargs", {}).items()  # type: ignore[union-attr]
            },
        )


@dataclass
class FunctionSummary:
    """Everything the project rules need to know about one function."""

    qualname: str  # "Class.method", "func", "outer.<locals>.inner"
    name: str
    line: int
    col: int
    params: List[str] = field(default_factory=list)
    #: param name -> unit domain (name heuristic, docstring tag,
    #: annotation tag, or converter-arg usage inference)
    param_domains: Dict[str, str] = field(default_factory=dict)
    #: locally inferred return domain
    return_domain: Optional[str] = None
    #: callees (as written) whose return domain determines this
    #: function's, when return_domain is None
    return_calls: List[str] = field(default_factory=list)
    calls: List[CallSummary] = field(default_factory=list)
    #: module-global mutations: (global name, line, col, how)
    global_writes: List[Tuple[str, int, int, str]] = field(default_factory=list)
    #: reads of module-level RNG names: (name, line, col)
    rng_global_reads: List[Tuple[str, int, int]] = field(default_factory=list)
    is_method: bool = False
    is_nested: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "line": self.line,
            "col": self.col,
            "params": list(self.params),
            "param_domains": dict(self.param_domains),
            "return_domain": self.return_domain,
            "return_calls": list(self.return_calls),
            "calls": [c.to_dict() for c in self.calls],
            "global_writes": [list(w) for w in self.global_writes],
            "rng_global_reads": [list(r) for r in self.rng_global_reads],
            "is_method": self.is_method,
            "is_nested": self.is_nested,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FunctionSummary":
        return cls(
            qualname=data["qualname"],  # type: ignore[arg-type]
            name=data["name"],  # type: ignore[arg-type]
            line=data["line"],  # type: ignore[arg-type]
            col=data["col"],  # type: ignore[arg-type]
            params=list(data.get("params", [])),  # type: ignore[arg-type]
            param_domains=dict(data.get("param_domains", {})),  # type: ignore[arg-type]
            return_domain=data.get("return_domain"),  # type: ignore[arg-type]
            return_calls=list(data.get("return_calls", [])),  # type: ignore[arg-type]
            calls=[CallSummary.from_dict(c) for c in data.get("calls", [])],
            global_writes=[tuple(w) for w in data.get("global_writes", [])],
            rng_global_reads=[tuple(r) for r in data.get("rng_global_reads", [])],
            is_method=bool(data.get("is_method", False)),
            is_nested=bool(data.get("is_nested", False)),
        )


@dataclass
class ClassSummary:
    """A class and the constructor surface callers see."""

    name: str
    line: int
    #: __init__ params (without self) or dataclass field names, in order
    init_params: List[str] = field(default_factory=list)
    param_domains: Dict[str, str] = field(default_factory=dict)
    methods: List[str] = field(default_factory=list)
    #: base classes as written ("threading.Thread", "Base")
    bases: List[str] = field(default_factory=list)
    #: instance attribute -> constructor expression as written, from
    #: ``self.attr = Ctor(...)`` assignments in the class's methods
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: class opted out of lockset checking via the
    #: ``lint-concurrency: single-writer`` docstring tag
    single_writer: bool = False
    #: attributes the tag names (``single-writer a b``); empty means the
    #: whole class is exempt when :attr:`single_writer` is set
    single_writer_attrs: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "line": self.line,
            "init_params": list(self.init_params),
            "param_domains": dict(self.param_domains),
            "methods": list(self.methods),
            "bases": list(self.bases),
            "attr_types": dict(self.attr_types),
            "single_writer": self.single_writer,
            "single_writer_attrs": list(self.single_writer_attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ClassSummary":
        return cls(
            name=data["name"],  # type: ignore[arg-type]
            line=data["line"],  # type: ignore[arg-type]
            init_params=list(data.get("init_params", [])),  # type: ignore[arg-type]
            param_domains=dict(data.get("param_domains", {})),  # type: ignore[arg-type]
            methods=list(data.get("methods", [])),  # type: ignore[arg-type]
            bases=list(data.get("bases", [])),  # type: ignore[arg-type]
            attr_types=dict(data.get("attr_types", {})),  # type: ignore[arg-type]
            single_writer=bool(data.get("single_writer", False)),
            single_writer_attrs=list(data.get("single_writer_attrs", [])),  # type: ignore[arg-type]
        )


@dataclass
class ModuleSummary:
    """The cacheable cross-module view of one file."""

    path: str
    #: dotted module name ("repro.dsp.units") or None outside the package
    module: Optional[str]
    is_test: bool
    #: local binding -> fully dotted target ("np" -> "numpy",
    #: "undb" -> "repro.dsp.units.undb")
    imports: Dict[str, str] = field(default_factory=dict)
    module_level_names: List[str] = field(default_factory=list)
    #: module-level names bound to RNG constructor calls
    module_rng_names: List[str] = field(default_factory=list)
    functions: List[FunctionSummary] = field(default_factory=list)
    classes: List[ClassSummary] = field(default_factory=list)
    #: line -> suppressed rule names (copied so cached project findings
    #: can be filtered without re-reading the file)
    suppressions: Dict[int, List[str]] = field(default_factory=dict)
    #: concurrency IR for the lockset/lock-order pass (a
    #: ``ModuleConcurrency.to_dict()`` payload, kept as a plain dict so
    #: it round-trips the cache as-is)
    concurrency: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SUMMARY_SCHEMA_VERSION,
            "path": self.path,
            "module": self.module,
            "is_test": self.is_test,
            "imports": dict(self.imports),
            "module_level_names": list(self.module_level_names),
            "module_rng_names": list(self.module_rng_names),
            "functions": [f.to_dict() for f in self.functions],
            "classes": [c.to_dict() for c in self.classes],
            "suppressions": {
                str(line): sorted(names) for line, names in self.suppressions.items()
            },
            "concurrency": self.concurrency,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ModuleSummary":
        return cls(
            path=data["path"],  # type: ignore[arg-type]
            module=data.get("module"),  # type: ignore[arg-type]
            is_test=bool(data.get("is_test", False)),
            imports=dict(data.get("imports", {})),  # type: ignore[arg-type]
            module_level_names=list(data.get("module_level_names", [])),  # type: ignore[arg-type]
            module_rng_names=list(data.get("module_rng_names", [])),  # type: ignore[arg-type]
            functions=[
                FunctionSummary.from_dict(f) for f in data.get("functions", [])
            ],
            classes=[ClassSummary.from_dict(c) for c in data.get("classes", [])],
            suppressions={
                int(line): set(names)
                for line, names in data.get("suppressions", {}).items()  # type: ignore[union-attr]
            },
            concurrency=data.get("concurrency"),  # type: ignore[arg-type]
        )

    def is_suppressed(self, line: int, rule: str) -> bool:
        names = self.suppressions.get(line)
        if not names:
            return False
        return "*" in names or rule in names


# ---------------------------------------------------------------------------
# extraction helpers
# ---------------------------------------------------------------------------


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _module_name_for_path(path: str) -> Optional[str]:
    """Dotted module name for a file under the ``repro`` package root."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if "repro" not in parts:
        return None
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    rel = parts[anchor:]
    if not rel[-1].endswith(".py"):
        return None
    rel[-1] = rel[-1][:-3]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def _docstring_domain_tags(doc: Optional[str]) -> Dict[str, str]:
    """Parse ``lint-domains: x=db, return=linear`` tags from a docstring."""
    tags: Dict[str, str] = {}
    if not doc:
        return tags
    for match in _DOMAIN_TAG_RE.finditer(doc):
        for part in match.group(1).split(","):
            name, _, domain = part.partition("=")
            name, domain = name.strip(), domain.strip()
            if name and domain in DOMAIN_GROUPS:
                tags[name] = domain
    return tags


def _annotation_domain(annotation: Optional[ast.expr]) -> Optional[str]:
    """A string-literal annotation naming a domain (``x: "db"``)."""
    if (
        isinstance(annotation, ast.Constant)
        and isinstance(annotation.value, str)
        and annotation.value in DOMAIN_GROUPS
    ):
        return annotation.value
    return None


def _is_rng_constructor(call: ast.Call) -> bool:
    name = _dotted_name(call.func)
    if name is None:
        return False
    leaf = name.split(".")[-1]
    return leaf in ("default_rng", "RandomState", "Generator", "spawn_generators")


_MUTATOR_METHODS = frozenset(
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


class _LocalNames(ast.NodeVisitor):
    """Collect names a function binds locally (params, assigns, loops)."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.names.add(node.id)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.names.add(node.name)  # nested def binds its name locally

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.names.add(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # lambda params are not enclosing-scope locals


def _function_args(func: ast.AST) -> List[ast.arg]:
    args = func.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]


class _Env:
    """Per-function flow-insensitive value facts: domain / shape / rng."""

    def __init__(self) -> None:
        self.domain: Dict[str, str] = {}
        self.shape: Dict[str, str] = {}
        self.rng: Set[str] = set()
        #: names bound to `slice(...)` values; indexing with one keeps
        #: the base's batch shape (``xs[val]`` where ``val = slice(...)``)
        self.slices: Set[str] = set()
        #: names whose domain is the (unresolved) return domain of a call
        #: (``value = helper(x)``); resolved later against the index
        self.symbolic: Dict[str, str] = {}

    def domain_of(self, name: str) -> Optional[str]:
        return self.domain.get(name, domain_of_name(name))

    def shape_of(self, name: str) -> Optional[str]:
        return self.shape.get(name, shape_of_name(name))

    def is_rng(self, name: str) -> bool:
        return name in self.rng or _looks_like_rng_name(name)


def _infer_domain(node: ast.expr, env: _Env) -> Tuple[Optional[str], Optional[str]]:
    """(domain, symbolic-callee) of an expression under ``env``.

    The symbolic callee is returned when the domain is exactly the
    return domain of a project function the index resolves later.
    """
    if isinstance(node, ast.Name):
        domain = env.domain_of(node.id)
        if domain is not None:
            return domain, None
        return None, env.symbolic.get(node.id)
    if isinstance(node, ast.Attribute):
        return domain_of_name(node.attr), None
    if isinstance(node, ast.Subscript):
        return _infer_domain(node.value, env)
    if isinstance(node, ast.UnaryOp):
        return _infer_domain(node.operand, env)
    if isinstance(node, ast.Call):
        callee = _dotted_name(node.func)
        if callee is not None:
            leaf = callee.split(".")[-1]
            if leaf in _CONVERTER_BY_NAME:
                return _CONVERTER_BY_NAME[leaf][1], None
            named = domain_of_name(leaf)
            if named is not None:
                return named, None
            return None, callee
        return None, None
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
    ):
        left, _ = _infer_domain(node.left, env)
        right, _ = _infer_domain(node.right, env)
        known = [d for d in (left, right) if d is not None]
        if len(known) == 1:
            return known[0], None
        if len(known) == 2 and known[0] == known[1]:
            return known[0], None
        return None, None
    return None, None


def _infer_shape(node: ast.expr, env: _Env) -> Optional[str]:
    """Best-effort batch/item shape class of an expression."""
    if isinstance(node, ast.Name):
        return env.shape_of(node.id)
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.List, ast.Tuple)):
        return "batch"
    if isinstance(node, ast.Subscript):
        base = _infer_shape(node.value, env)
        if isinstance(node.slice, ast.Slice):
            return base
        if isinstance(node.slice, ast.Name) and node.slice.id in env.slices:
            return base
        if base == "batch":
            return "item"
        return None
    if isinstance(node, ast.Attribute):
        return shape_of_name(node.attr)
    if isinstance(node, ast.Call):
        callee = _dotted_name(node.func)
        if callee is None:
            return None
        leaf = callee.split(".")[-1]
        if leaf.endswith(("_batch", "_matrix")) or leaf in (
            "vstack",
            "column_stack",
            "atleast_2d",
        ):
            return "batch"
        return None
    return None


def _is_rng_expr(node: ast.expr, env: _Env) -> bool:
    if isinstance(node, ast.Name):
        return env.is_rng(node.id)
    if isinstance(node, ast.Call):
        return _is_rng_constructor(node)
    if isinstance(node, ast.Attribute):
        return _looks_like_rng_name(node.attr)
    return False


def _free_rng_capture(func: ast.AST, env: _Env) -> bool:
    """Does a lambda / nested def read an enclosing-scope RNG name?"""
    collector = _LocalNames()
    if isinstance(func, ast.Lambda):
        own = {a.arg for a in _function_args(func)}
        body: Iterable[ast.AST] = [func.body]
    else:
        own = {a.arg for a in _function_args(func)}
        body = func.body
    for stmt in body:
        collector.visit(stmt)
    own |= collector.names
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id not in own
                and env.is_rng(node.id)
            ):
                return True
    return False


def _arg_summary(
    node: ast.expr, env: _Env, local_defs: Dict[str, ast.AST]
) -> ArgSummary:
    text = ""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        pass
    if len(text) > 60:
        text = text[:57] + "..."
    domain, domain_call = _infer_domain(node, env)
    shape = _infer_shape(node, env)
    kind = "other"
    partial_target: Optional[str] = None
    captures_rng = False
    if isinstance(node, ast.Lambda):
        kind = "lambda"
        captures_rng = _free_rng_capture(node, env)
    elif isinstance(node, ast.Name):
        if node.id in local_defs:
            kind = "localfunc"
            captures_rng = _free_rng_capture(local_defs[node.id], env)
        else:
            kind = "name"
            captures_rng = env.is_rng(node.id)
    elif isinstance(node, ast.Call):
        callee = _dotted_name(node.func)
        if callee is not None and callee.split(".")[-1] == "partial":
            kind = "partial"
            if node.args:
                partial_target = _dotted_name(node.args[0])
                if partial_target in local_defs:
                    kind = "partial-local"
            captures_rng = any(
                _is_rng_expr(a, env)
                for a in [*node.args[1:], *[kw.value for kw in node.keywords]]
            )
    elif isinstance(node, ast.Attribute):
        kind = "name"
        captures_rng = _looks_like_rng_name(node.attr)
    return ArgSummary(
        text=text,
        domain=domain,
        domain_call=domain_call,
        shape=shape,
        kind=kind,
        partial_target=partial_target,
        captures_rng=captures_rng,
    )


def _summarize_function(
    func: ast.AST,
    qualname: str,
    module_level_names: Set[str],
    module_rng_names: Set[str],
    is_method: bool,
    is_nested: bool,
    out: List[FunctionSummary],
) -> FunctionSummary:
    """Summarize one function; nested defs recurse and append to ``out``."""
    params = [a.arg for a in _function_args(func)]
    doc_tags = _docstring_domain_tags(ast.get_docstring(func, clean=False))

    param_domains: Dict[str, str] = {}
    for arg in _function_args(func):
        domain = (
            doc_tags.get(arg.arg)
            or _annotation_domain(arg.annotation)
            or domain_of_name(arg.arg)
        )
        if domain is not None:
            param_domains[arg.arg] = domain

    env = _Env()
    for name, domain in param_domains.items():
        env.domain[name] = domain
    for name in params:
        shape = shape_of_name(name)
        if shape is not None:
            env.shape[name] = shape
        if _looks_like_rng_name(name):
            env.rng.add(name)

    local_defs: Dict[str, ast.AST] = {}
    body = list(func.body)

    # ---- pass 1: scope facts (locals, assignments, converter-arg usage)
    locals_collector = _LocalNames()
    for stmt in body:
        locals_collector.visit(stmt)
    local_names = set(params) | locals_collector.names

    def _note_assign(target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        domain, domain_call = _infer_domain(value, env)
        if domain is not None:
            env.domain[target.id] = domain
        elif domain_call is not None:
            env.symbolic[target.id] = domain_call
        shape = _infer_shape(value, env)
        if shape is not None:
            env.shape[target.id] = shape
        if _is_rng_expr(value, env):
            env.rng.add(target.id)
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "slice"
        ):
            env.slices.add(target.id)

    def _walk_no_nested(node: ast.AST) -> Iterable[ast.AST]:
        """Walk a statement without descending into nested function defs."""
        stack = [node]
        while stack:
            current = stack.pop()
            yield current
            for child in ast.iter_child_nodes(current):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                stack.append(child)

    for stmt in body:
        for node in _walk_no_nested(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local_defs[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    _note_assign(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                _note_assign(node.target, node.value)

    # converter-arg inference: undb(x) pins x to the converter's domain
    for stmt in body:
        for node in _walk_no_nested(stmt):
            if not isinstance(node, ast.Call) or len(node.args) != 1:
                continue
            callee = _dotted_name(node.func)
            if callee is None:
                continue
            sig = _CONVERTER_BY_NAME.get(callee.split(".")[-1])
            arg = node.args[0]
            if (
                sig is not None
                and isinstance(arg, ast.Name)
                and arg.id in params
                and arg.id not in param_domains
            ):
                param_domains[arg.id] = sig[0]
                env.domain[arg.id] = sig[0]

    # ---- pass 2: calls, returns, global writes
    calls: List[CallSummary] = []
    return_domains: Set[Optional[str]] = set()
    return_calls: List[str] = []
    global_names: Set[str] = set()
    global_writes: List[Tuple[str, int, int, str]] = []
    rng_global_reads: List[Tuple[str, int, int]] = []

    def _root_name(node: ast.expr) -> Optional[str]:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return None

    for stmt in body:
        for node in _walk_no_nested(stmt):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
            elif isinstance(node, ast.Call):
                callee = _dotted_name(node.func)
                if callee is None:
                    continue
                attr = callee.split(".")[-1]
                calls.append(
                    CallSummary(
                        callee=callee,
                        attr=attr,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        args=[
                            _arg_summary(a, env, local_defs)
                            for a in node.args
                            if not isinstance(a, ast.Starred)
                        ],
                        kwargs={
                            kw.arg: _arg_summary(kw.value, env, local_defs)
                            for kw in node.keywords
                            if kw.arg is not None
                        },
                    )
                )
                # mutator-method call on a module-level object
                if attr in _MUTATOR_METHODS and isinstance(
                    node.func, ast.Attribute
                ):
                    root = _root_name(node.func.value)
                    if (
                        root is not None
                        and root in module_level_names
                        and root not in local_names
                    ):
                        global_writes.append(
                            (root, node.lineno, node.col_offset + 1, f".{attr}()")
                        )
            elif isinstance(node, ast.Return) and node.value is not None:
                domain, domain_call = _infer_domain(node.value, env)
                return_domains.add(domain)
                if domain is None and domain_call is not None:
                    return_calls.append(domain_call)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in global_names:
                        global_writes.append(
                            (target.id, node.lineno, node.col_offset + 1, "global")
                        )
                    elif isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = _root_name(target)
                        if (
                            root is not None
                            and root in module_level_names
                            and root not in local_names
                        ):
                            how = (
                                "subscript"
                                if isinstance(target, ast.Subscript)
                                else "attribute"
                            )
                            global_writes.append(
                                (root, node.lineno, node.col_offset + 1, how)
                            )
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in module_rng_names and node.id not in local_names:
                    rng_global_reads.append(
                        (node.id, node.lineno, node.col_offset + 1)
                    )

    known_returns = {d for d in return_domains if d is not None}
    return_domain = known_returns.pop() if len(known_returns) == 1 else None
    if None in return_domains and return_domain is not None and return_calls:
        # mixed symbolic/known returns: leave resolution to the fixpoint
        return_domain = None

    summary = FunctionSummary(
        qualname=qualname,
        name=func.name,
        line=func.lineno,
        col=func.col_offset + 1,
        params=params,
        param_domains=param_domains,
        return_domain=return_domain,
        return_calls=sorted(set(return_calls)),
        calls=calls,
        global_writes=global_writes,
        rng_global_reads=rng_global_reads,
        is_method=is_method,
        is_nested=is_nested,
    )
    out.append(summary)

    for name, nested in local_defs.items():
        _summarize_function(
            nested,
            f"{qualname}.<locals>.{name}",
            module_level_names,
            module_rng_names,
            is_method=False,
            is_nested=True,
            out=out,
        )
    return summary


def _class_attr_types(node: ast.ClassDef) -> Dict[str, str]:
    """``self.attr = Ctor(...)`` constructor expressions, ``__init__`` first."""
    attr_types: Dict[str, str] = {}
    methods = [
        item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    methods.sort(key=lambda m: m.name != "__init__")
    for method in methods:
        for sub in ast.walk(method):
            if not isinstance(sub, ast.Assign) or not isinstance(
                sub.value, ast.Call
            ):
                continue
            ctor = _dotted_name(sub.value.func)
            if ctor is None:
                continue
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr_types.setdefault(target.attr, ctor)
    return attr_types


def _single_writer_attrs(doc: Optional[str]) -> Optional[List[str]]:
    """Parse a class docstring's ``lint-concurrency: single-writer`` tag.

    Returns ``None`` when untagged, ``[]`` for a bare tag (the whole
    class is exempt from lockset checking) and the attribute names for
    the scoped form ``lint-concurrency: single-writer attr1 attr2``.
    """
    if not doc:
        return None
    for match in _CONCURRENCY_TAG_RE.finditer(doc):
        for part in match.group(1).split(","):
            words = part.split()
            if words and words[0] == "single-writer":
                return words[1:]
    return None


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = _dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


def summarize_module(module: ModuleSource) -> ModuleSummary:
    """Compress one parsed file into its cacheable cross-module summary."""
    tree = module.tree
    module_name = _module_name_for_path(module.path)

    imports: Dict[str, str] = {}
    module_level_names: List[str] = []
    module_rng_names: List[str] = []

    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level and module_name is not None:
                parts = module_name.split(".")
                # level 1 = current package (strip the module leaf)
                parent = parts[: len(parts) - stmt.level]
                base = ".".join(parent + ([base] if base else []))
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    module_level_names.append(target.id)
                    value = stmt.value
                    if value is not None and any(
                        isinstance(n, ast.Call) and _is_rng_constructor(n)
                        for n in ast.walk(value)
                    ):
                        module_rng_names.append(target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_level_names.append(stmt.name)

    functions: List[FunctionSummary] = []
    classes: List[ClassSummary] = []
    level_names = set(module_level_names)
    rng_names = set(module_rng_names)

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _summarize_function(
                stmt, stmt.name, level_names, rng_names, False, False, functions
            )
        elif isinstance(stmt, ast.ClassDef):
            methods: List[str] = []
            init_params: List[str] = []
            param_domains: Dict[str, str] = {}
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    summary = _summarize_function(
                        item,
                        f"{stmt.name}.{item.name}",
                        level_names,
                        rng_names,
                        True,
                        False,
                        functions,
                    )
                    if item.name == "__init__":
                        init_params = summary.params[1:]
                        param_domains = {
                            k: v
                            for k, v in summary.param_domains.items()
                            if k in init_params
                        }
            if not init_params and _is_dataclass_decorated(stmt):
                for item in stmt.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(
                        item.target, ast.Name
                    ):
                        init_params.append(item.target.id)
                        domain = _annotation_domain(
                            item.annotation
                        ) or domain_of_name(item.target.id)
                        if domain is not None:
                            param_domains[item.target.id] = domain
            sw_attrs = _single_writer_attrs(
                ast.get_docstring(stmt, clean=False)
            )
            classes.append(
                ClassSummary(
                    name=stmt.name,
                    line=stmt.lineno,
                    init_params=init_params,
                    param_domains=param_domains,
                    methods=methods,
                    bases=[
                        base
                        for base in map(_dotted_name, stmt.bases)
                        if base is not None
                    ],
                    attr_types=_class_attr_types(stmt),
                    single_writer=sw_attrs is not None,
                    single_writer_attrs=sw_attrs or [],
                )
            )

    # imported late: the concurrency package's rules import this module
    from repro.analysis.concurrency.extract import extract_concurrency

    return ModuleSummary(
        path=module.path,
        module=module_name,
        is_test=module.is_test,
        imports=imports,
        module_level_names=module_level_names,
        module_rng_names=module_rng_names,
        functions=functions,
        classes=classes,
        suppressions={k: set(v) for k, v in module.suppressions.items()},
        concurrency=extract_concurrency(tree).to_dict(),
    )


# ---------------------------------------------------------------------------
# the project index
# ---------------------------------------------------------------------------


class ProjectRule(Rule):
    """A rule that runs over the whole :class:`ProjectIndex` at once.

    Project rules implement :meth:`check_project`; the per-file
    :meth:`check` is a no-op so the single-file walkers skip them
    silently.  Findings are filtered against each target module's
    suppressions and (for ``library_only`` rules) its test flag by the
    driver.
    """

    def check(self, module: ModuleSource):  # pragma: no cover - by design
        return iter(())

    def check_project(self, index: "ProjectIndex"):
        raise NotImplementedError


class ProjectIndex:
    """Summaries resolved against each other: symbols, edges, reachability."""

    def __init__(self, summaries: Sequence[ModuleSummary]):
        self.summaries: List[ModuleSummary] = list(summaries)
        self.by_path: Dict[str, ModuleSummary] = {s.path: s for s in self.summaries}
        #: fully qualified function name -> (module summary, function summary)
        self.functions: Dict[str, Tuple[ModuleSummary, FunctionSummary]] = {}
        #: fully qualified class name -> (module summary, class summary)
        self.classes: Dict[str, Tuple[ModuleSummary, ClassSummary]] = {}
        #: bare function/method name -> [qualified names]
        self._by_name: Dict[str, List[str]] = {}
        for summary in self.summaries:
            prefix = summary.module or summary.path
            for func in summary.functions:
                qual = f"{prefix}.{func.qualname}"
                self.functions[qual] = (summary, func)
                self._by_name.setdefault(func.name, []).append(qual)
            for cls in summary.classes:
                self.classes[f"{prefix}.{cls.name}"] = (summary, cls)
        self._return_domains: Optional[Dict[str, str]] = None

    @classmethod
    def from_sources(
        cls, sources: Dict[str, str], is_test: bool = False
    ) -> "ProjectIndex":
        """Build an index straight from ``{path: source}`` (for tests)."""
        summaries = []
        for path, source in sources.items():
            module = ModuleSource.from_source(source, path, is_test=is_test)
            summaries.append(summarize_module(module))
        return cls(summaries)

    # -- name resolution ---------------------------------------------------

    def resolve_callee(
        self,
        summary: ModuleSummary,
        call: CallSummary,
        *,
        unique_attr: bool = True,
    ) -> Optional[str]:
        """Fully qualified target of a call site, or None when ambiguous.

        ``unique_attr=False`` disables the last-resort unique-method-name
        fallback; pass it when a wrong guess is costlier than a missed
        edge (e.g. ``x.get(...)`` resolving to the project's sole ``get``
        method even though the receiver is a plain dict).
        """
        parts = call.callee.split(".")
        head = parts[0]
        prefix = summary.module or summary.path

        # import-resolved dotted path ("units.undb", "undb", "np.log10")
        if head in summary.imports:
            target = ".".join([summary.imports[head], *parts[1:]])
            if target in self.functions or target in self.classes:
                return target
            # "from repro.runtime import executor; executor.map_tasks" style
            if target in CONVERTER_SIGNATURES:
                return target
            if not unique_attr:
                return None
            return self._unique_by_attr(call.attr, summary)

        # bare local name: module-level function / class in this module
        if len(parts) == 1:
            local = f"{prefix}.{head}"
            if local in self.functions or local in self.classes:
                return local
            return None

        # self.obj.method: resolve through the constructor that typed
        # ``self.obj`` in this module's classes ("self._throughput.record")
        if head == "self" and len(parts) == 3:
            for cls_summary in summary.classes:
                ctor = cls_summary.attr_types.get(parts[1])
                if ctor is None:
                    continue
                target = self.resolve_constructor(summary, ctor)
                if target is not None:
                    _, target_cls = self.classes[target]
                    if call.attr in target_cls.methods:
                        return f"{target}.{call.attr}"

        # self.method: prefer a method of a class in this module
        if head == "self":
            for cls_summary in summary.classes:
                if call.attr in cls_summary.methods:
                    return f"{prefix}.{cls_summary.name}.{call.attr}"
            if not unique_attr:
                return None
            return self._unique_by_attr(call.attr, summary)

        # obj.method on an unresolvable receiver: unique-name match only
        if not unique_attr:
            return None
        return self._unique_by_attr(call.attr, summary)

    def resolve_constructor(
        self, summary: ModuleSummary, ctor: str
    ) -> Optional[str]:
        """Qualified project class named by a constructor expression."""
        parts = ctor.split(".")
        head = parts[0]
        prefix = summary.module or summary.path
        if head in summary.imports:
            target = ".".join([summary.imports[head], *parts[1:]])
        elif len(parts) == 1:
            target = f"{prefix}.{ctor}"
        else:
            target = ctor
        return target if target in self.classes else None

    def _unique_by_attr(
        self, attr: str, summary: ModuleSummary
    ) -> Optional[str]:
        candidates = self._by_name.get(attr, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def converter_signature(
        self, summary: ModuleSummary, call: CallSummary
    ) -> Optional[Tuple[str, str]]:
        """(param domain, return domain) when the call is a units converter."""
        resolved = self.resolve_callee(summary, call)
        if resolved in CONVERTER_SIGNATURES:
            return CONVERTER_SIGNATURES[resolved]
        return None

    # -- interprocedural return domains ------------------------------------

    def return_domains(self) -> Dict[str, str]:
        """Fixpoint of every function's return domain across call edges."""
        if self._return_domains is not None:
            return self._return_domains
        domains: Dict[str, str] = {}
        for qual, (_, func) in self.functions.items():
            if func.return_domain is not None:
                domains[qual] = func.return_domain
        for _ in range(10):
            changed = False
            for qual, (summary, func) in self.functions.items():
                if qual in domains or not func.return_calls:
                    continue
                resolved_domains: Set[str] = set()
                for callee in func.return_calls:
                    target = self.resolve_callee(
                        summary, CallSummary(callee, callee.split(".")[-1], 0, 0)
                    )
                    if target in CONVERTER_SIGNATURES:
                        resolved_domains.add(CONVERTER_SIGNATURES[target][1])
                    elif target in domains:
                        resolved_domains.add(domains[target])
                    else:
                        resolved_domains.add("?")
                if len(resolved_domains) == 1 and "?" not in resolved_domains:
                    domains[qual] = resolved_domains.pop()
                    changed = True
            if not changed:
                break
        self._return_domains = domains
        return domains

    def arg_domain(
        self, summary: ModuleSummary, arg: ArgSummary
    ) -> Optional[str]:
        """Argument domain, resolving symbolic callee refs if needed."""
        if arg.domain is not None:
            return arg.domain
        if arg.domain_call is not None:
            call = CallSummary(
                arg.domain_call, arg.domain_call.split(".")[-1], 0, 0
            )
            target = self.resolve_callee(summary, call)
            if target in CONVERTER_SIGNATURES:
                return CONVERTER_SIGNATURES[target][1]
            if target is not None:
                return self.return_domains().get(target)
        return None

    # -- call graph --------------------------------------------------------

    def call_edges(self) -> Dict[str, Set[str]]:
        """Resolved call graph: qualified caller -> set of qualified callees."""
        edges: Dict[str, Set[str]] = {}
        for qual, (summary, func) in self.functions.items():
            targets: Set[str] = set()
            for call in func.calls:
                resolved = self.resolve_callee(summary, call)
                if resolved is not None and resolved in self.functions:
                    targets.add(resolved)
                elif resolved is not None and resolved in self.classes:
                    init = f"{resolved}.__init__"
                    if init in self.functions:
                        targets.add(init)
            edges[qual] = targets
        return edges

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Qualified functions reachable from ``roots`` via resolved edges."""
        edges = self.call_edges()
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(edges.get(current, ()) - seen)
        return seen
