"""Command-line front end for signature-lint.

Usage::

    python -m repro.analysis [paths ...]
    python -m repro.analysis src --format json
    python -m repro.analysis src --format github   # CI annotations
    python -m repro.analysis src --format sarif    # code-scanning upload
    python -m repro.analysis src --cache-dir .lint-cache
    python -m repro.analysis src --stats           # findings-per-rule table
    python -m repro.analysis src --select units-inline-db-conversion
    python -m repro.analysis src --severity-threshold error
    python -m repro.analysis --list-rules
    python -m repro lint src          # same engine via the main CLI

Exit codes: ``0`` clean (or no finding at/above the severity
threshold), ``1`` findings reported, ``2`` usage or I/O error (unknown
rule name, missing path).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.driver import ProjectReport, analyze_project
from repro.analysis.engine import SEVERITY_LEVELS, Rule, severity_of

__all__ = [
    "build_parser",
    "format_sarif",
    "format_stats",
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
            "library (unit-domain, determinism, API-surface, numerics, "
            "cross-module dataflow, parallel-safety, and batch-contract "
            "rules)"
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
        choices=("text", "json", "github", "sarif"),
        default="text",
        help=(
            "output format (default: text; github emits workflow-command "
            "annotations for CI, sarif emits a SARIF 2.1.0 log for the "
            "code-scanning tab)"
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
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "incremental-result cache directory; unchanged files are "
            "served from it and only edited files re-analyzed"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir and re-analyze every file",
    )
    parser.add_argument(
        "--severity-threshold",
        choices=tuple(SEVERITY_LEVELS),
        default="note",
        metavar="LEVEL",
        help=(
            "lowest severity (note|warning|error) that fails the run "
            "with exit code 1; lower-severity findings are still "
            "printed (default: note, i.e. any finding fails)"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="append a findings-per-rule markdown table to the report",
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


def format_sarif(report: ProjectReport, rules: Sequence[Rule]) -> dict:
    """SARIF 2.1.0 log for GitHub's Security / Code-scanning tab."""
    by_name = {rule.name: rule for rule in rules}
    rule_ids = sorted({f.rule for f in report.findings} | set(by_name))
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "signature-lint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/static_analysis"
                        ),
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {
                                    "text": getattr(
                                        by_name.get(rule_id),
                                        "description",
                                        rule_id,
                                    )
                                    or rule_id
                                },
                                "defaultConfiguration": {
                                    "level": severity_of(rule_id, rules)
                                },
                            }
                            for rule_id in rule_ids
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": finding.rule,
                        "level": severity_of(finding.rule, rules),
                        "message": {"text": finding.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": finding.path.replace("\\", "/")
                                    },
                                    "region": {
                                        "startLine": max(finding.line, 1),
                                        "startColumn": max(finding.col, 1),
                                    },
                                }
                            }
                        ],
                    }
                    for finding in report.findings
                ],
            }
        ],
    }


def format_stats(report: ProjectReport) -> str:
    """Findings-per-rule markdown table (``make lint-stats`` / job summary)."""
    lines = ["| rule | findings |", "| --- | ---: |"]
    counts = report.rule_counts()
    for rule_name, count in counts.items():
        lines.append(f"| `{rule_name}` | {count} |")
    lines.append(f"| **total** | **{len(report.findings)}** |")
    lines.append("")
    lines.append(
        f"{report.files} files ({report.analyzed} analyzed, "
        f"{report.cached} from cache)"
    )
    return "\n".join(lines)


def run_lint(
    paths: Sequence[str],
    fmt: str = "text",
    select: Optional[str] = None,
    ignore: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
    cache_dir: Optional[str] = None,
    stats: bool = False,
    severity_threshold: str = "note",
) -> int:
    """Analyze ``paths`` and print a report; returns the exit code."""
    all_rules = list(rules) if rules is not None else _default_rules()
    try:
        chosen = _filter_rules(all_rules, select, ignore)
        if severity_threshold not in SEVERITY_LEVELS:
            raise ValueError(
                f"--severity-threshold: unknown level "
                f"`{severity_threshold}`; expected one of "
                f"{', '.join(SEVERITY_LEVELS)}"
            )
        report = analyze_project(paths, rules=chosen, cache_dir=cache_dir)
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro.analysis: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    findings = report.findings
    if fmt == "sarif":
        print(json.dumps(format_sarif(report, chosen), indent=2))
    elif fmt == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "count": len(findings),
                    "files": report.files,
                    "analyzed": report.analyzed,
                    "cached": report.cached,
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
    if stats:
        print()
        print(format_stats(report))
    threshold = SEVERITY_LEVELS[severity_threshold]
    failing = [
        f
        for f in findings
        if SEVERITY_LEVELS.get(severity_of(f.rule, chosen), 1) >= threshold
    ]
    return EXIT_FINDINGS if failing else EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in _default_rules():
            print(f"{rule.name} [{rule.severity}]: {rule.description}")
        return EXIT_CLEAN
    return run_lint(
        args.paths,
        fmt=args.format,
        select=args.select,
        ignore=args.ignore,
        cache_dir=None if args.no_cache else args.cache_dir,
        stats=args.stats,
        severity_threshold=args.severity_threshold,
    )
