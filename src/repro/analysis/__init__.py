"""signature-lint: domain-aware static analysis for the repro library.

The paper's framework substitutes one cheap signature for a battery of
per-spec RF measurements; that substitution is only sound if the
numerics behind the calibration map are trustworthy.  This package is
the machine-checked half of that trust: an AST lint engine
(:mod:`repro.analysis.engine`) plus rule sets tuned to this codebase's
failure modes --

* :mod:`repro.analysis.units` -- dB vs. linear domain mixing, inline
  ``10*log10`` conversions outside :mod:`repro.dsp.units`;
* :mod:`repro.analysis.determinism` -- unseeded / legacy / module-level
  RNG use that would make Monte-Carlo calibration irreproducible;
* :mod:`repro.analysis.api` -- ``__all__`` discipline and star imports;
* :mod:`repro.analysis.numerics` -- in-place ndarray-parameter mutation,
  float ``==``, ``assert`` in library code;
* :mod:`repro.analysis.verifyrules` -- ``verify-relation-seeded``:
  ``@relation`` metamorphic relations must take an explicit ``rng``/seed
  parameter and never draw from global RNG state.

On top of the per-file rules sit *project-level* rules that resolve
imports and call edges across the whole repository
(:mod:`repro.analysis.project`):

* :mod:`repro.analysis.dataflow` -- ``units-domain-flow``: a value in
  one unit domain (log / linear / frequency) flowing across a call edge
  into a parameter that expects another;
* :mod:`repro.analysis.parallel` -- ``par-unpicklable-task``,
  ``par-captured-rng``, ``par-global-mutation`` for callables reachable
  from ``map_tasks`` dispatch sites;
* :mod:`repro.analysis.contracts` -- ``batch-shape-mismatch`` for
  ``*_batch`` / ``*_matrix`` sibling APIs fed the wrong-shaped value;
* :mod:`repro.analysis.concurrency` -- lockset/lock-order analysis over
  thread roots discovered in the call graph
  (``conc-unlocked-shared-write``, ``conc-lock-escape``,
  ``conc-lock-order-cycle``, ``conc-blocking-under-lock``) plus the
  opt-in runtime lock-order sanitizer used by the test suite and
  ``repro soak --sanitize-locks``.

Run it with ``python -m repro.analysis [paths]`` (or ``python -m repro
lint``); suppress a finding in place with a ``# repro-lint:
disable=<rule>`` comment (``lint-unknown-suppression`` flags typos in
those comments).  :func:`analyze_project` adds an mtime-keyed result
cache so warm re-runs only re-parse edited files.
``tests/analysis/test_self_clean.py`` keeps the repository itself
lint-clean.
"""

from __future__ import annotations

from typing import List

from repro.analysis.driver import ProjectReport, analyze_project
from repro.analysis.engine import (
    Finding,
    ModuleSource,
    Rule,
    UnjustifiedSuppressionRule,
    UnknownSuppressionRule,
    analyze_file,
    analyze_paths,
    analyze_source,
    iter_python_files,
    parse_suppressions,
)

__all__ = [
    "Finding",
    "ModuleSource",
    "ProjectReport",
    "Rule",
    "UnjustifiedSuppressionRule",
    "UnknownSuppressionRule",
    "analyze_file",
    "analyze_paths",
    "analyze_project",
    "analyze_source",
    "iter_python_files",
    "parse_suppressions",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """Fresh instances of every built-in rule, in reporting order."""
    from repro.analysis.api import API_RULES
    from repro.analysis.concurrency.rules import CONCURRENCY_RULES
    from repro.analysis.contracts import CONTRACT_RULES
    from repro.analysis.dataflow import DATAFLOW_RULES
    from repro.analysis.determinism import DETERMINISM_RULES
    from repro.analysis.numerics import NUMERICS_RULES
    from repro.analysis.parallel import PARALLEL_RULES
    from repro.analysis.units import UNITS_RULES
    from repro.analysis.verifyrules import VERIFY_RULES

    rules: List[Rule] = [
        *UNITS_RULES,
        *DETERMINISM_RULES,
        *API_RULES,
        *NUMERICS_RULES,
        *DATAFLOW_RULES,
        *PARALLEL_RULES,
        *CONTRACT_RULES,
        *VERIFY_RULES,
        *CONCURRENCY_RULES,
    ]
    rules.append(UnknownSuppressionRule(rule.name for rule in rules))
    rules.append(UnjustifiedSuppressionRule())
    return rules
