"""Tests for repro.runtime.binning (guard-banding and confusion)."""

import numpy as np
import pytest

from repro.circuits.device import SpecSet
from repro.runtime.binning import (
    BinningReport,
    confusion,
    guard_banded_limits,
    sweep_guard_band,
)
from repro.runtime.specs import SpecificationLimit, SpecificationLimits, lna_limits


def gain_only_limits(minimum=14.0):
    return SpecificationLimits(
        {"gain_db": SpecificationLimit("gain_db", minimum=minimum)}
    )


def lot(rng, n=500, err=0.2):
    """A lot with true gains around the 14 dB limit and noisy predictions."""
    true = np.column_stack(
        [
            rng.normal(15.0, 1.0, n),  # gain
            rng.normal(2.0, 0.1, n),  # nf (unlimited here)
            rng.normal(3.0, 0.5, n),  # iip3 (unlimited here)
        ]
    )
    predicted = true + rng.normal(0.0, err, size=true.shape)
    return true, predicted


def _per_row_confusion(true, predicted, limits, spec_names, decision_limits):
    """The per-row oracle: one SpecSet and one limit check per row."""

    def as_specset(row):
        values = dict(zip(spec_names, row))
        return SpecSet(*(values.get(name, 0.0) for name in SpecSet.NAMES))

    good = [limits.check(as_specset(row)) for row in true]
    binned = [decision_limits.check(as_specset(row)) for row in predicted]
    return BinningReport(
        n_devices=len(true),
        true_pass=sum(good),
        true_fail=len(good) - sum(good),
        escapes=sum(b and not g for g, b in zip(good, binned)),
        yield_loss=sum(g and not b for g, b in zip(good, binned)),
    )


class TestConfusion:
    def test_perfect_predictions_no_errors(self):
        rng = np.random.default_rng(0)
        true, _ = lot(rng)
        report = confusion(true, true, gain_only_limits())
        assert report.escapes == 0
        assert report.yield_loss == 0
        assert report.accuracy == 1.0

    def test_noisy_predictions_produce_both_error_kinds(self):
        rng = np.random.default_rng(1)
        true, predicted = lot(rng, err=0.5)
        report = confusion(true, predicted, gain_only_limits())
        assert report.escapes > 0
        assert report.yield_loss > 0
        assert report.true_pass + report.true_fail == report.n_devices

    def test_summary_text(self):
        rng = np.random.default_rng(2)
        true, predicted = lot(rng)
        text = confusion(true, predicted, gain_only_limits()).summary()
        assert "escapes" in text and "yield loss" in text

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            confusion(np.zeros((3, 3)), np.zeros((4, 3)), gain_only_limits())
        with pytest.raises(ValueError):
            confusion(
                np.zeros((3, 2)), np.zeros((3, 2)), gain_only_limits()
            )

    @pytest.mark.allow_nonfinite
    @pytest.mark.parametrize(
        "spec_names",
        [
            SpecSet.NAMES,
            ("iip3_dbm", "gain_db", "nf_db"),
            ("nf_db", "gain_db"),
            ("gain_db",),
            ("iip3_dbm", "nf_db", "gain_db", "nf_db"),
        ],
    )
    def test_matches_the_per_row_oracle(self, spec_names):
        rng = np.random.default_rng(3)
        n = 64
        true = np.column_stack(
            [rng.normal(*{"gain_db": (15.0, 1.0), "nf_db": (2.5, 0.5),
                          "iip3_dbm": (-1.0, 1.0)}[name], n) for name in spec_names]
        )
        predicted = true + rng.normal(0.0, 0.5, size=true.shape)
        for matrix in (true, predicted):
            rows = rng.choice(n, size=8, replace=False)
            cols = rng.integers(0, len(spec_names), size=8)
            matrix[rows, cols] = rng.choice([np.nan, np.inf, -np.inf], size=8)
        limits = lna_limits(15.0, 2.6, -1.0)
        decision = guard_banded_limits(limits, {"gain_db": 0.3, "nf_db": 0.1}, 1.0)
        for decision_limits in (None, decision):
            report = confusion(true, predicted, limits, spec_names=spec_names,
                               decision_limits=decision_limits)
            assert report == _per_row_confusion(true, predicted, limits, spec_names,
                                                decision_limits or limits)

    def test_rates_with_empty_classes(self):
        report = BinningReport(
            n_devices=5, true_pass=5, true_fail=0, escapes=0, yield_loss=1
        )
        assert report.escape_rate == 0.0
        assert report.yield_loss_rate == pytest.approx(0.2)


class TestGuardBanding:
    def test_limits_tightened_in_right_direction(self):
        limits = SpecificationLimits(
            {
                "gain_db": SpecificationLimit("gain_db", minimum=14.0),
                "nf_db": SpecificationLimit("nf_db", maximum=3.0),
            }
        )
        banded = guard_banded_limits(
            limits, {"gain_db": 0.1, "nf_db": 0.2}, k=2.0
        )
        assert banded.limits["gain_db"].minimum == pytest.approx(14.2)
        assert banded.limits["nf_db"].maximum == pytest.approx(2.6)

    def test_missing_sigma_leaves_limit(self):
        limits = gain_only_limits()
        banded = guard_banded_limits(limits, {}, k=3.0)
        assert banded.limits["gain_db"].minimum == 14.0

    def test_window_collapse_rejected(self):
        limits = SpecificationLimits(
            {"gain_db": SpecificationLimit("gain_db", minimum=14.0, maximum=14.5)}
        )
        with pytest.raises(ValueError, match="closes"):
            guard_banded_limits(limits, {"gain_db": 1.0}, k=1.0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            guard_banded_limits(gain_only_limits(), {"gain_db": 0.1}, k=-1.0)


class TestGuardBandSweep:
    def test_escapes_monotone_decreasing(self):
        rng = np.random.default_rng(3)
        true, predicted = lot(rng, n=2000, err=0.4)
        curve = sweep_guard_band(
            true,
            predicted,
            gain_only_limits(),
            {"gain_db": 0.4},
            k_values=(0.0, 1.0, 2.0, 3.0),
        )
        escapes = [r.escapes for _, r in curve]
        losses = [r.yield_loss for _, r in curve]
        assert all(e2 <= e1 for e1, e2 in zip(escapes, escapes[1:]))
        assert all(l2 >= l1 for l1, l2 in zip(losses, losses[1:]))
        # a 3-sigma guard band drives escapes to (near) zero
        assert escapes[-1] <= 0.02 * curve[0][1].true_fail + 1

    def test_default_decision_limits_are_the_true_limits(self):
        rng = np.random.default_rng(4)
        true, predicted = lot(rng)
        limits = gain_only_limits()
        plain = confusion(true, predicted, limits)
        explicit = confusion(true, predicted, limits, decision_limits=limits)
        assert plain == explicit

    def test_band_covering_the_error_eliminates_escapes(self):
        # |prediction error| <= e and a guard band of k*sigma >= e means a
        # truly-failing device can never sneak past the banded limit
        rng = np.random.default_rng(5)
        true, _ = lot(rng, n=1000)
        e = 0.3
        predicted = true + rng.uniform(-e, e, size=true.shape)
        banded = guard_banded_limits(gain_only_limits(), {"gain_db": e}, k=1.0)
        report = confusion(
            true, predicted, gain_only_limits(), decision_limits=banded
        )
        assert report.escapes == 0
        assert report.yield_loss > 0  # the price paid for zero escapes
