"""Command-line front end for signature-lint.

Usage::

    python -m repro.analysis [paths ...]
    python -m repro.analysis src --format json
    python -m repro.analysis src --format github   # CI annotations
    python -m repro.analysis src --select units-inline-db-conversion
    python -m repro.analysis --list-rules
    python -m repro lint src          # the same parser via the main CLI

Exit codes: ``0`` clean, ``1`` findings reported, ``2`` usage or I/O
error (unknown rule name, missing path).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.engine import Rule, analyze_paths

__all__ = [
    "build_parser",
    "run_lint",
    "main",
]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _default_rules() -> List[Rule]:
    from repro.analysis import default_rules

    return list(default_rules())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "signature-lint: domain-aware static analysis for the repro "
            "library (unit-domain, determinism, API-surface, numerics "
            "and verify-relation rules, one file at a time)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "output format (default: text; github emits workflow-command "
            "annotations for CI)"
        ),
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the available rules and exit",
    )
    return parser


def _filter_rules(
    rules: Sequence[Rule], select: Optional[str], ignore: Optional[str]
) -> List[Rule]:
    known = {rule.name for rule in rules}
    chosen = list(rules)
    for option, names_csv in (("--select", select), ("--ignore", ignore)):
        if names_csv is None:
            continue
        names = {n.strip() for n in names_csv.split(",") if n.strip()}
        unknown = names - known
        if unknown:
            raise ValueError(
                f"{option}: unknown rule(s) {', '.join(sorted(unknown))}; "
                "see --list-rules"
            )
        if option == "--select":
            chosen = [r for r in chosen if r.name in names]
        else:
            chosen = [r for r in chosen if r.name not in names]
    return chosen


def _github_escape(text: str) -> str:
    """Escape message data for a GitHub workflow command."""
    return (
        text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def run_lint(
    paths: Sequence[str],
    fmt: str = "text",
    select: Optional[str] = None,
    ignore: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> int:
    """Analyze ``paths`` and print a report; returns the exit code."""
    all_rules = list(rules) if rules is not None else _default_rules()
    try:
        chosen = _filter_rules(all_rules, select, ignore)
        findings = analyze_paths(paths, chosen)
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro.analysis: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if fmt == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "count": len(findings),
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
            )
        )
    elif fmt == "github":
        for finding in findings:
            print(
                f"::error file={finding.path},line={finding.line},"
                f"col={finding.col},title={finding.rule}::"
                f"{_github_escape(finding.message)}"
            )
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"signature-lint: {len(findings)} {noun}")
    else:
        for finding in findings:
            print(finding.format())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"signature-lint: {len(findings)} {noun}")
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in _default_rules():
            print(f"{rule.name}: {rule.description}")
        return EXIT_CLEAN
    return run_lint(
        args.paths,
        fmt=args.format,
        select=args.select,
        ignore=args.ignore,
    )
