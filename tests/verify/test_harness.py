"""Tests for the harness itself: params, registry, determinism, shrinking."""

import json

import numpy as np
import pytest

from repro.verify.harness import (
    MAX_RECORDED_FAILURES,
    CampaignReport,
    Registry,
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
    stratum,
)


class TestChecks:
    def test_check_passes_and_raises(self):
        check(True, "fine")
        with pytest.raises(RelationViolation, match="broken"):
            check(False, "broken")

    def test_check_allclose_reports_worst_deviation(self):
        check_allclose(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(RelationViolation, match="max deviation"):
            check_allclose(np.array([1.0, 2.5]), np.array([1.0, 2.0]))

    def test_check_allclose_shape_mismatch(self):
        with pytest.raises(RelationViolation, match="shape mismatch"):
            check_allclose(np.zeros(3), np.zeros(4))

    def test_check_array_equal_requires_bit_identity(self):
        check_array_equal(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(RelationViolation, match="bit-identical"):
            check_array_equal(np.array([1.0]), np.array([1.0 + 1e-15]))


class TestParams:
    def test_floats_sample_within_bounds(self):
        p = floats(-2.0, 3.0)
        rng = np.random.default_rng(0)
        draws = [p.sample(rng) for _ in range(100)]
        assert all(-2.0 <= d <= 3.0 for d in draws)

    def test_floats_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            floats(1.0, 1.0)

    def test_log_floats_requires_positive_bounds(self):
        with pytest.raises(ValueError):
            log_floats(0.0, 1.0)
        p = log_floats(1e-3, 1e3)
        rng = np.random.default_rng(1)
        assert all(1e-3 <= p.sample(rng) <= 1e3 for _ in range(50))

    def test_integers_inclusive_bounds(self):
        p = integers(2, 4)
        rng = np.random.default_rng(2)
        draws = {p.sample(rng) for _ in range(200)}
        assert draws == {2, 3, 4}

    def test_choice_and_booleans(self):
        p = choice("a", "b")
        rng = np.random.default_rng(3)
        assert {p.sample(rng) for _ in range(50)} == {"a", "b"}
        assert {booleans().sample(rng) for _ in range(50)} == {False, True}
        with pytest.raises(ValueError):
            choice()

    def test_float_shrink_goes_to_origin_first(self):
        p = floats(0.0, 10.0, origin=1.0)
        candidates = list(p.shrink_candidates(8.0))
        assert candidates[0] == 1.0
        assert candidates[1] == pytest.approx(4.5)

    def test_int_shrink_steps_toward_origin(self):
        p = integers(0, 10, origin=0)
        candidates = list(p.shrink_candidates(7))
        assert candidates[0] == 0
        assert 6 in candidates

    def test_choice_shrink_yields_only_simpler_options(self):
        p = choice("simple", "medium", "fancy")
        assert list(p.shrink_candidates("fancy")) == ["simple", "medium"]
        assert list(p.shrink_candidates("simple")) == []


class TestRegistry:
    def test_register_and_filter(self):
        reg = Registry()

        @relation(name="a", params={"x": floats(0, 1)}, registry=reg)
        def _rel_a(case, rng):
            """First relation."""

        @relation(name="b", params={"x": floats(0, 1)}, registry=reg)
        def _rel_b(case, rng):
            """Second relation."""

        assert reg.names() == ["a", "b"]
        assert len(reg) == 2 and "a" in reg
        assert [r.name for r in reg.get(["b"])] == ["b"]
        assert reg.get(["a"])[0].description == "First relation."

    def test_duplicate_name_rejected(self):
        reg = Registry()

        @relation(name="dup", params={}, registry=reg)
        def _rel_one(case, rng):
            pass

        with pytest.raises(ValueError, match="already registered"):

            @relation(name="dup", params={}, registry=reg)
            def _rel_two(case, rng):
                pass

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown relation"):
            Registry().get(["nope"])


class TestDeterminism:
    def test_cases_replay_bit_identically(self):
        seen = []
        reg = Registry()

        @relation(name="probe", params={"x": floats(0.0, 1.0)}, registry=reg)
        def _rel_probe(case, rng):
            seen.append((case["x"], float(rng.normal())))

        run_relation(reg.get(["probe"])[0], n_cases=5, master_seed=7)
        first, seen[:] = list(seen), []
        run_relation(reg.get(["probe"])[0], n_cases=5, master_seed=7)
        assert seen == first

    def test_master_seed_changes_cases(self):
        seen = []
        reg = Registry()

        @relation(name="probe", params={"x": floats(0.0, 1.0)}, registry=reg)
        def _rel_probe(case, rng):
            seen.append(case["x"])

        run_relation(reg.get(["probe"])[0], n_cases=5, master_seed=1)
        first, seen[:] = list(seen), []
        run_relation(reg.get(["probe"])[0], n_cases=5, master_seed=2)
        assert seen != first

    def test_cases_keyed_on_name_not_registry_order(self):
        # the same relation draws the same cases whether or not other
        # relations are registered before it
        def make(reg, seen):
            @relation(name="stable", params={"x": floats(0.0, 1.0)}, registry=reg)
            def _rel_stable(case, rng):
                seen.append(case["x"])

        alone, crowded = Registry(), Registry()
        seen_alone, seen_crowded = [], []
        make(alone, seen_alone)

        @relation(name="aaa-first", params={}, registry=crowded)
        def _rel_first(case, rng):
            pass

        make(crowded, seen_crowded)
        run_campaign(registry=alone, n_cases=4, master_seed=3, shrink=False)
        run_campaign(registry=crowded, n_cases=4, master_seed=3, shrink=False)
        assert seen_alone == seen_crowded


class TestShrinker:
    def test_int_threshold_shrinks_to_boundary(self):
        reg = Registry()

        @relation(name="big-n", params={"n": integers(0, 50)}, registry=reg)
        def _rel_big_n(case, rng):
            check(case["n"] < 17, f"fails for n={case['n']}")

        report = run_relation(reg.get(["big-n"])[0], n_cases=30, master_seed=0)
        assert report.n_failures > 0
        failure = report.failures[0]
        assert failure.shrunk_config == {"n": 17}
        assert failure.shrink_evaluations > 0
        assert "n=17" in failure.shrunk_message

    def test_shrunk_case_still_fails(self):
        reg = Registry()

        @relation(
            name="multi",
            params={"a": floats(0.0, 1.0), "b": integers(0, 9)},
            registry=reg,
        )
        def _rel_multi(case, rng):
            check(not (case["a"] > 0.5 and case["b"] >= 3), "joint failure")

        report = run_relation(reg.get(["multi"])[0], n_cases=40, master_seed=0)
        assert report.n_failures > 0
        shrunk = report.failures[0].shrunk_config
        # the shrunk config must itself violate the relation
        assert shrunk["a"] > 0.5 and shrunk["b"] >= 3
        assert shrunk["b"] == 3  # int fully minimized to the boundary
        orig = report.failures[0].config
        assert shrunk["a"] <= orig["a"]

    def test_shrink_disabled(self):
        reg = Registry()

        @relation(name="always", params={"x": floats(0, 1)}, registry=reg)
        def _rel_always(case, rng):
            check(False, "always fails")

        report = run_relation(
            reg.get(["always"])[0], n_cases=3, master_seed=0, shrink=False
        )
        assert report.failures[0].shrunk_config is None


class TestReports:
    def _failing_registry(self):
        reg = Registry()

        @relation(
            name="flaky",
            params={"x": floats(0.0, 1.0)},
            equation="Eq. 0",
            registry=reg,
        )
        def _rel_flaky(case, rng):
            check(case["x"] < 0.5, "x too big")

        return reg

    def test_failure_counting_and_recording_cap(self):
        reg = self._failing_registry()
        report = run_relation(
            reg.get(["flaky"])[0], n_cases=60, master_seed=0, shrink=False
        )
        # roughly half the uniform draws land above 0.5
        assert 10 < report.n_failures < 50
        assert len(report.failures) <= MAX_RECORDED_FAILURES
        assert not report.ok

    def test_campaign_report_roundtrips_to_json(self, tmp_path):
        reg = self._failing_registry()
        campaign = run_campaign(registry=reg, n_cases=4, master_seed=0)
        assert not campaign.ok
        path = campaign.write(str(tmp_path / "nested" / "report.json"))
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["ok"] is False
        assert data["relations"][0]["name"] == "flaky"
        assert data["relations"][0]["equation"] == "Eq. 0"
        assert data["relations"][0]["failures"][0]["config"]

    def test_summary_mentions_counterexample(self):
        reg = self._failing_registry()
        campaign = run_campaign(registry=reg, n_cases=4, master_seed=0)
        text = campaign.summary()
        assert "FAIL" in text and "counterexample" in text
        assert "FAILED" in text

    def test_golden_drift_fails_campaign(self):
        campaign = CampaignReport(master_seed=0, n_cases=1)
        campaign.relations.append(
            RelationReport(name="r", equation="", description="", n_cases=1)
        )
        assert campaign.ok
        campaign.golden_drift = {"sim-small": ["drifted"]}
        assert not campaign.ok
        assert "DRIFT" in campaign.summary()

    def test_n_cases_validated(self):
        reg = self._failing_registry()
        with pytest.raises(ValueError):
            run_relation(reg.get(["flaky"])[0], n_cases=0)


class TestStrata:
    def test_cases_reaching_each_stratum_are_counted(self):
        reg = Registry()

        @relation(name="edges", params={"x": floats(0.0, 1.0)}, registry=reg)
        def _rel_edges(case, rng):
            if case["x"] < 0.5:
                stratum("low")
                stratum("low")  # once per case, however often reached
            stratum("any")
            check(case["x"] < 0.9, "x too big")

        report = run_relation(reg.get(["edges"])[0], n_cases=40, master_seed=0)
        # shrinking re-runs a failing case, and is not counted
        assert report.n_failures > 0
        assert report.strata["any"] == 40
        assert 0 < report.strata["low"] < 40
        assert report.to_dict()["strata"] == {"any": 40, "low": report.strata["low"]}
        campaign = CampaignReport(master_seed=0, n_cases=40, relations=[report])
        assert f"strata: any 40/40, low {report.strata['low']}/40" in campaign.summary()

    def test_outside_a_campaign_it_does_nothing(self):
        stratum("nowhere")
