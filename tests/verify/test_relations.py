"""The built-in relation library: registration and a passing smoke campaign."""

import numpy as np

import repro.verify.relations  # noqa: F401 - populate the default registry
from repro.verify.harness import DEFAULT_REGISTRY, run_campaign

EXPECTED = {
    "signature-lo2-phase-invariance",
    "capture-batch-equivalence",
    "executor-equivalence",
    "envelope-gain-linearity",
    "attenuation-monotonicity",
    "db-linear-roundtrip",
    "noise-determinism",
    "spec-permutation-stability",
    "streaming-offline-equivalence",
    "lot-columns-equivalence",
    "calibration-sharing-equivalence",
}


def test_relation_library_registered():
    assert EXPECTED <= set(DEFAULT_REGISTRY.names())
    assert len(DEFAULT_REGISTRY) >= 6  # the acceptance floor


def test_every_relation_declares_its_contract():
    for rel in DEFAULT_REGISTRY.get(sorted(EXPECTED)):
        assert rel.params, f"{rel.name} samples no configuration space"
        assert rel.equation or rel.description, f"{rel.name} is undocumented"


def test_smoke_campaign_passes():
    campaign = run_campaign(names=sorted(EXPECTED), n_cases=3, master_seed=99)
    failing = [r.name for r in campaign.relations if not r.ok]
    assert campaign.ok, f"relations violated: {failing}"


def test_describing_gain_relation_reaches_the_inverting_fold_back():
    """The sampled cases hold rows like ``(-1, -10, -1)``: the stratum is real."""
    from repro.verify.harness import DEFAULT_MASTER_SEED, _case_sequences, _draw_case
    from repro.verify.relations import _describing_gain_rows

    name = "describing-gain-batch-equivalence"
    (rel,) = DEFAULT_REGISTRY.get([name])
    with_rows = 0
    for index in range(20):
        sample_seq, exec_seq = _case_sequences(name, DEFAULT_MASTER_SEED, index)
        case = _draw_case(rel.params, sample_seq)
        # the relation draws its rows first, from this very generator
        a1, a2, a3 = _describing_gain_rows(case, np.random.default_rng(exec_seq)).T
        inverting = (a1 < 0) & (a2 < 0) & (a3 < 0) & (a2**2 > 3 * a1 * a3)
        with_rows += bool(inverting.any())
    # every case with an intact row has a stratum row
    assert with_rows >= 18
