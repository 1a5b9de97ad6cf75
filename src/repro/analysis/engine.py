"""Core of the signature-lint engine: rules, findings, walkers, suppression.

The engine is a thin AST pipeline: a :class:`ModuleSource` bundles one
parsed file (source text, AST, per-line suppressions, test-file flag),
each :class:`Rule` inspects it and yields :class:`Finding` objects, and
the walkers (:func:`analyze_source`, :func:`analyze_file`,
:func:`analyze_paths`) apply a rule set across files or directory trees,
filter suppressed findings, and return them sorted by location.

Suppression syntax (anywhere in a comment on the offending line)::

    x = gain_db + vout_vrms  # repro-lint: disable=units-mixed-domain -- why
    y = risky()              # repro-lint: disable=rule-a,rule-b -- why
    z = noisy()              # repro-lint: disable -- why

A bare ``disable`` (no ``=``) silences every rule on that line.  For a
statement spanning several lines the marker goes on the line where the
finding is reported (the first line of the offending node).  The
``-- <justification>`` tail is required in library code: a suppression
without one is itself flagged by ``lint-unjustified-suppression``, the
sibling of the ``lint-unknown-suppression`` typo check.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

__all__ = [
    "Finding",
    "Rule",
    "ModuleSource",
    "UnknownSuppressionRule",
    "UnjustifiedSuppressionRule",
    "iter_suppression_comments",
    "parse_suppressions",
    "analyze_source",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
]

#: Marker introducing a suppression comment.
SUPPRESS_MARKER = "repro-lint:"

#: Directory names never descended into by :func:`iter_python_files`.
SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", ".eggs"}
)

#: Rule name used for findings produced by unparseable files.
PARSE_ERROR_RULE = "parse-error"

#: Rule name used for disable comments that name a nonexistent rule.
UNKNOWN_SUPPRESSION_RULE = "lint-unknown-suppression"

#: Rule name used for disable comments lacking a `` -- why`` justification.
UNJUSTIFIED_SUPPRESSION_RULE = "lint-unjustified-suppression"

@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: rule: message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by the CLI's ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class Rule:
    """Base class for lint rules.

    Subclasses set ``name`` (the kebab-case identifier used in
    suppression comments and CLI filters), ``description`` (one line for
    ``--list-rules``), and optionally ``library_only`` (skip test files),
    then implement :meth:`check`.
    """

    name: str = ""
    description: str = ""
    #: Rules with ``library_only = True`` are not applied to test files
    #: (``tests/`` trees, ``test_*.py``, ``conftest.py``): tests may use
    #: bare asserts, inline conversions to cross-check the library, etc.
    library_only: bool = False

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: "ModuleSource", node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``node`` in ``module``."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.name,
            message=message,
        )


@dataclass
class ModuleSource:
    """A parsed module plus the metadata rules need to judge it."""

    path: str
    source: str
    tree: ast.Module
    is_test: bool
    suppressions: Dict[int, Set[str]]

    @classmethod
    def from_source(
        cls, source: str, path: str, is_test: Optional[bool] = None
    ) -> "ModuleSource":
        """Parse ``source``; raises :class:`SyntaxError` on bad input."""
        tree = ast.parse(source, filename=path)
        if is_test is None:
            is_test = _looks_like_test_file(path)
        return cls(
            path=path,
            source=source,
            tree=tree,
            is_test=is_test,
            suppressions=parse_suppressions(source),
        )

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        return "*" in rules or finding.rule in rules


def _looks_like_test_file(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    if any(p in ("tests", "test") for p in parts[:-1]):
        return True
    base = parts[-1]
    return base.startswith("test_") or base == "conftest.py"


def iter_suppression_comments(source: str):
    """Yield ``(line, rule names, justification)`` per disable comment.

    The special name ``"*"`` means all rules.  Comments are located with
    :mod:`tokenize` so marker text inside string literals is ignored.
    The justification is whatever follows a `` -- `` separator, stripped
    (empty string when the comment has none).
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenizeError:
        return
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        text = tok.string.lstrip("#").strip()
        if not text.startswith(SUPPRESS_MARKER):
            continue
        directive = text[len(SUPPRESS_MARKER):].strip()
        directive, _, justification = directive.partition("--")
        directive = directive.strip()
        if directive == "disable":
            names = {"*"}
        elif directive.startswith("disable="):
            names = {
                n.strip() for n in directive[len("disable="):].split(",") if n.strip()
            }
            if "all" in names:
                names = {"*"}
        else:
            continue
        yield tok.start[0], names, justification.strip()


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule names disabled on that line."""
    suppressions: Dict[int, Set[str]] = {}
    for line, names, _ in iter_suppression_comments(source):
        suppressions.setdefault(line, set()).update(names)
    return suppressions


class UnknownSuppressionRule(Rule):
    """Flags ``disable=`` comments naming a rule that does not exist.

    A typo in a suppression comment (``disable=units-mixed-domian``)
    silences nothing and hides the author's intent; worse, a rule rename
    leaves stale suppressions behind.  This engine-level rule is
    constructed with the full registry of known rule names (every
    default rule plus the engine pseudo-rules) and reports any
    suppression naming anything else.
    """

    name = UNKNOWN_SUPPRESSION_RULE
    description = (
        "a `# repro-lint: disable=...` comment names a rule that does "
        "not exist (typo or stale suppression)"
    )

    def __init__(self, known_rules: Iterable[str]):
        self.known_rules: Set[str] = set(known_rules) | {
            "*",
            PARSE_ERROR_RULE,
            UNKNOWN_SUPPRESSION_RULE,
        }

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        for line in sorted(module.suppressions):
            for rule_name in sorted(module.suppressions[line] - self.known_rules):
                yield Finding(
                    path=module.path,
                    line=line,
                    col=1,
                    rule=self.name,
                    message=(
                        f"suppression names unknown rule `{rule_name}`; "
                        "see --list-rules for valid names"
                    ),
                )


class UnjustifiedSuppressionRule(Rule):
    """Flags library-code ``disable`` comments with no `` -- why`` tail.

    A suppression is a claim that the rule is wrong *here*; the claim
    needs a recorded reason or the next reader has to re-derive it (or
    worse, trusts it blindly).  Test files are exempt -- their
    suppressions document themselves by the test they sit in.
    """

    name = UNJUSTIFIED_SUPPRESSION_RULE
    description = (
        "a `# repro-lint: disable=...` comment in library code carries "
        "no ` -- <justification>` explaining why the rule is wrong here"
    )
    library_only = True

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        for line, names, justification in iter_suppression_comments(
            module.source
        ):
            if justification:
                continue
            listed = "all rules" if "*" in names else ", ".join(sorted(names))
            yield Finding(
                path=module.path,
                line=line,
                col=1,
                rule=self.name,
                message=(
                    f"suppression of {listed} has no justification; append "
                    "` -- <reason>` to the disable comment"
                ),
            )


def analyze_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
    is_test: Optional[bool] = None,
) -> List[Finding]:
    """Run ``rules`` over one module's source text."""
    try:
        module = ModuleSource.from_source(source, path, is_test=is_test)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule=PARSE_ERROR_RULE,
                message=f"could not parse: {exc.msg}",
            )
        ]
    findings: List[Finding] = []
    for rule in rules:
        if rule.library_only and module.is_test:
            continue
        for finding in rule.check(module):
            if not module.is_suppressed(finding):
                findings.append(finding)
    return sorted(findings)


def analyze_file(path: str, rules: Sequence[Rule]) -> List[Finding]:
    """Run ``rules`` over one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return analyze_source(source, path, rules)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Yield every ``.py`` file under ``paths`` (files or directories).

    Directories are walked depth-first in sorted order; ``__pycache__``,
    VCS metadata, and build/cache directories are skipped.  A path that
    does not exist raises :class:`FileNotFoundError`.
    """
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            raise FileNotFoundError(path)


def analyze_paths(paths: Iterable[str], rules: Sequence[Rule]) -> List[Finding]:
    """Run ``rules`` over every python file under ``paths``, sorted."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        findings.extend(analyze_file(file_path, rules))
    return sorted(findings)
