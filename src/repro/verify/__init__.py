"""repro.verify: metamorphic & property-based verification harness.

The paper's framework rests on a handful of structural invariants -- the
FFT-magnitude signature is phase-robust (Eq. 5), spec predictions track
the signature through calibration (Eqs. 6-10), and the reproduction adds
its own: three execution paths (serial, executor-parallel, batched
:class:`~repro.loadboard.signature_path.CapturePlan`) that must agree
bit-for-bit.  Example-based tests spot-check those invariants at a few
hand-picked configurations; this package checks them over *randomly
sampled* configuration spaces, every run, with automatic shrinking of
any failure to a minimal counterexample:

* :mod:`repro.verify.harness` -- the ``@relation`` registry, the
  deterministic ``SeedSequence``-driven config sampler, the
  counterexample shrinker, and JSON campaign reports;
* :mod:`repro.verify.relations` -- the relation library encoding the
  paper's invariants as executable checks;
* :mod:`repro.verify.golden` -- a committed golden-signature corpus
  (``tests/golden/*.json``) with drift detection and a guarded
  ``--update-golden`` flow.
* :mod:`repro.verify.guards` -- the runtime FP sanitizer and lock-order
  sanitizer used by the test suite and ``repro soak --sanitize-locks``.

Run it with ``python -m repro verify`` (or ``make verify``); the exit
code is non-zero on any violated relation or golden drift.
"""

from __future__ import annotations

from repro.verify.golden import (
    GoldenUpdateRefused,
    check_all_corpora,
    check_corpus,
    corpus_names,
    update_golden,
)
from repro.verify.harness import (
    CampaignReport,
    CaseFailure,
    Registry,
    Relation,
    RelationReport,
    RelationViolation,
    booleans,
    check,
    check_allclose,
    check_array_equal,
    choice,
    floats,
    integers,
    log_floats,
    relation,
    run_campaign,
    run_relation,
)

__all__ = [
    "CampaignReport",
    "CaseFailure",
    "GoldenUpdateRefused",
    "Registry",
    "Relation",
    "RelationReport",
    "RelationViolation",
    "booleans",
    "check",
    "check_all_corpora",
    "check_allclose",
    "check_array_equal",
    "check_corpus",
    "choice",
    "corpus_names",
    "floats",
    "integers",
    "log_floats",
    "relation",
    "run_campaign",
    "run_relation",
    "update_golden",
]
