"""Tier-1 gate: the repository's own library code must lint clean.

Any future change that reintroduces an inline dB conversion, an
unseeded RNG, an undeclared public name, a bare library assert or an
unseeded verify relation fails here with the exact file:line:rule it
violated.  The gate runs :func:`repro.analysis.analyze_paths` with
:func:`repro.analysis.default_rules`, i.e. exactly what ``make lint``
runs.
"""

import os

import repro
from repro.analysis import analyze_paths, default_rules


def _src_root() -> str:
    # resolve the installed package location so the gate works from any cwd
    return os.path.dirname(os.path.abspath(repro.__file__))


def _repo_dirs():
    # tests/ and benchmarks/ live next to this file's parent, not in the
    # installed package; only lint them when running from a checkout
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    return [
        d
        for d in (os.path.join(repo_root, "tests"), os.path.join(repo_root, "benchmarks"))
        if os.path.isdir(d)
    ]


class TestRepositoryIsLintClean:
    def test_library_tree_has_no_findings(self):
        findings = analyze_paths([_src_root()], default_rules())
        text = "\n".join(f.format() for f in findings)
        assert findings == [], f"signature-lint findings:\n{text}"

    def test_tests_and_benchmarks_have_no_findings(self):
        # same sweep CI's `make lint` runs over the non-library trees
        findings = analyze_paths(_repo_dirs(), default_rules())
        text = "\n".join(f.format() for f in findings)
        assert findings == [], f"signature-lint findings:\n{text}"

    def test_default_rule_names_are_unique(self):
        names = [rule.name for rule in default_rules()]
        assert len(names) == len(set(names))
        assert all(names), "every rule must have a name"
