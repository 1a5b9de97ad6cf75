"""Project-level lint driver: cache-aware per-file pass + cross-module rules.

:func:`analyze_project` is what ``python -m repro.analysis`` (and
``make lint``) actually runs.  It splits the rule set in two:

* **file rules** (plain :class:`Rule`) run per file, exactly as
  :func:`repro.analysis.engine.analyze_source` would, and their findings
  are cached alongside the file's :class:`ModuleSummary`;
* **project rules** (:class:`~repro.analysis.project.ProjectRule`)
  replay every run over the full set of summaries -- cached or fresh --
  through a :class:`~repro.analysis.project.ProjectIndex`, so a
  one-file edit still re-judges every call edge that touches it while
  re-parsing only the edited file.

Project-rule findings are filtered through the *owning file's*
suppressions and test-file status, mirroring the per-file engine's
semantics; a ``# repro-lint: disable=units-domain-flow`` on the call
line works the same whether the rule is local or interprocedural.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.cache import LintCache, rules_signature
from repro.analysis.engine import (
    Finding,
    ModuleSource,
    PARSE_ERROR_RULE,
    Rule,
    iter_python_files,
)
from repro.analysis.project import (
    ModuleSummary,
    ProjectIndex,
    ProjectRule,
    summarize_module,
)

__all__ = ["ProjectReport", "analyze_project"]


@dataclass
class ProjectReport:
    """Everything one lint run produced, plus cache accounting."""

    findings: List[Finding] = field(default_factory=list)
    #: files parsed and analyzed this run (cache misses)
    analyzed: int = 0
    #: files served entirely from the cache
    cached: int = 0
    #: True when the cross-module findings were replayed from the cache
    #: instead of re-running symbol resolution and the project rules
    project_from_cache: bool = False

    @property
    def files(self) -> int:
        return self.analyzed + self.cached

    def rule_counts(self) -> Dict[str, int]:
        """Findings per rule name, sorted descending then alphabetical."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def _analyze_one(
    path: str, file_rules: Sequence[Rule]
) -> Tuple[List[Finding], Optional[Dict[str, object]]]:
    """Fresh per-file analysis: (local findings, summary dict or None)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        module = ModuleSource.from_source(source, path)
    except SyntaxError as exc:
        finding = Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule=PARSE_ERROR_RULE,
            message=f"could not parse: {exc.msg}",
        )
        return [finding], None
    findings: List[Finding] = []
    for rule in file_rules:
        if rule.library_only and module.is_test:
            continue
        for finding in rule.check(module):
            if not module.is_suppressed(finding):
                findings.append(finding)
    return sorted(findings), summarize_module(module).to_dict()


def _project_findings(
    summaries: Sequence[ModuleSummary], project_rules: Sequence[ProjectRule]
) -> List[Finding]:
    """Cross-module findings, filtered by the owning file's suppressions."""
    if not project_rules or not summaries:
        return []
    index = ProjectIndex(summaries)
    findings: Set[Finding] = set()
    for rule in project_rules:
        for finding in rule.check_project(index):
            owner = index.by_path.get(finding.path)
            if owner is not None:
                if rule.library_only and owner.is_test:
                    continue
                if owner.is_suppressed(finding.line, finding.rule):
                    continue
            findings.add(finding)
    return sorted(findings)


def analyze_project(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    cache_dir: Optional[str] = None,
) -> ProjectReport:
    """Run the full rule set over ``paths`` with optional incremental cache.

    ``rules`` defaults to :func:`repro.analysis.default_rules`.  With
    ``cache_dir`` set, unchanged files (same ``mtime_ns`` and size,
    same rule set, same analyzer sources) are served from the manifest
    and only edited files are re-parsed; project rules always re-run
    over the complete summary set, so interprocedural findings never go
    stale.
    """
    if rules is None:
        from repro.analysis import default_rules

        rules = default_rules()
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    cache = (
        LintCache(cache_dir, rules_signature(rules))
        if cache_dir is not None
        else None
    )

    report = ProjectReport()
    summaries: List[ModuleSummary] = []
    file_stats: List[Tuple[str, int, int]] = []
    for path in iter_python_files(paths):
        cached_entry = cache.lookup(path) if cache is not None else None
        if cached_entry is not None:
            local_findings, summary_dict = cached_entry
            report.cached += 1
        else:
            local_findings, summary_dict = _analyze_one(path, file_rules)
            report.analyzed += 1
            if cache is not None:
                cache.store(path, local_findings, summary_dict)
        report.findings.extend(local_findings)
        if summary_dict is not None:
            summaries.append(ModuleSummary.from_dict(summary_dict))
        if cache is not None:
            try:
                stat = os.stat(path)
                file_stats.append(
                    (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
                )
            except OSError:
                pass

    # cross-module pass: replayed from the manifest when nothing changed,
    # so a fully-warm run never re-runs symbol resolution or the
    # project rules
    project_findings: Optional[List[Finding]] = None
    project_key: Optional[str] = None
    if cache is not None:
        project_key = LintCache.project_key(file_stats)
        project_findings = cache.lookup_project(project_key)
        report.project_from_cache = project_findings is not None
    if project_findings is None:
        project_findings = _project_findings(summaries, project_rules)
        if cache is not None and project_key is not None:
            cache.store_project(project_key, project_findings)

    report.findings.extend(project_findings)
    report.findings.sort()
    if cache is not None:
        cache.save()
    return report
