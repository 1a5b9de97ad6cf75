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

Run it with ``python -m repro.analysis [paths]`` (or ``python -m repro
lint``); suppress a finding in place with a ``# repro-lint:
disable=<rule>`` comment (``lint-unknown-suppression`` flags typos in
those comments).  Every rule judges one file at a time; the runtime
guards that catch what a per-file rule cannot see (NaN/Inf births,
lock-order inversions) live in :mod:`repro.verify.guards`.
``tests/analysis/test_self_clean.py`` keeps the repository itself
lint-clean.
"""

from __future__ import annotations

from typing import List

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
    "Rule",
    "UnjustifiedSuppressionRule",
    "UnknownSuppressionRule",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "parse_suppressions",
    "default_rules",
]


def default_rules() -> List[Rule]:
    """Fresh instances of every built-in rule, in reporting order."""
    from repro.analysis.api import API_RULES
    from repro.analysis.determinism import DETERMINISM_RULES
    from repro.analysis.numerics import NUMERICS_RULES
    from repro.analysis.units import UNITS_RULES
    from repro.analysis.verifyrules import VERIFY_RULES

    rules: List[Rule] = [
        *UNITS_RULES,
        *DETERMINISM_RULES,
        *API_RULES,
        *NUMERICS_RULES,
        *VERIFY_RULES,
    ]
    rules.append(UnknownSuppressionRule(rule.name for rule in rules))
    rules.append(UnjustifiedSuppressionRule())
    return rules
