"""Tests for repro.runtime.specs."""

import numpy as np
import pytest

from repro.circuits.device import SpecSet
from repro.runtime.specs import SpecificationLimit, SpecificationLimits, lna_limits


class TestSpecificationLimit:
    def test_min_only(self):
        lim = SpecificationLimit("gain_db", minimum=14.0)
        assert lim.check(15.0)
        assert not lim.check(13.0)

    def test_max_only(self):
        lim = SpecificationLimit("nf_db", maximum=2.5)
        assert lim.check(2.0)
        assert not lim.check(3.0)

    def test_window(self):
        lim = SpecificationLimit("gain_db", minimum=14.0, maximum=18.0)
        assert lim.check(16.0)
        assert not lim.check(19.0)

    @pytest.mark.allow_nonfinite
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fails_every_limit(self, value):
        for lim in (
            SpecificationLimit("gain_db", minimum=14.0),
            SpecificationLimit("nf_db", maximum=2.5),
            SpecificationLimit("gain_db", minimum=14.0, maximum=18.0),
        ):
            assert lim.check(value) is False
            assert not lim.check_array(np.array([16.0, value, 2.0]))[1]

    def test_margin(self):
        lim = SpecificationLimit("gain_db", minimum=14.0, maximum=18.0)
        assert lim.margin(15.0) == pytest.approx(1.0)
        assert lim.margin(17.5) == pytest.approx(0.5)
        assert lim.margin(13.0) == pytest.approx(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpecificationLimit("x")
        with pytest.raises(ValueError):
            SpecificationLimit("x", minimum=5.0, maximum=1.0)


class TestSpecificationLimits:
    def test_check_all(self):
        limits = lna_limits()
        good = SpecSet(gain_db=16.0, nf_db=2.0, iip3_dbm=3.0)
        bad_nf = SpecSet(gain_db=16.0, nf_db=3.5, iip3_dbm=3.0)
        assert limits.check(good)
        assert not limits.check(bad_nf)

    def test_failures_reported(self):
        limits = lna_limits()
        bad = SpecSet(gain_db=12.0, nf_db=3.5, iip3_dbm=3.0)
        failures = limits.failures(bad)
        assert set(failures) == {"gain_db", "nf_db"}
        assert all(m < 0 for m in failures.values())

    def test_worst_margin(self):
        limits = lna_limits(gain_min_db=14.0, nf_max_db=2.6, iip3_min_dbm=-1.0)
        s = SpecSet(gain_db=14.2, nf_db=2.0, iip3_dbm=3.0)
        assert limits.worst_margin(s) == pytest.approx(0.2)

    def test_key_name_consistency(self):
        with pytest.raises(ValueError):
            SpecificationLimits({"a": SpecificationLimit("b", minimum=0.0)})


@pytest.mark.allow_nonfinite
class TestCheckMatrix:
    def test_matches_per_specset_check(self):
        limits = lna_limits()
        rows = np.array(
            [
                [16.0, 2.0, 3.0],
                [12.0, 2.0, 3.0],
                [16.0, np.nan, 3.0],
                [np.nan, np.nan, np.nan],
                [16.0, 2.0, np.inf],
                [16.0, 3.5, 3.0],
                [14.0, 3.3, -1.0],
            ]
        )
        verdicts = limits.check_matrix(rows)
        assert verdicts.tolist() == [True, False, False, False, False, False, True]
        for row, verdict in zip(rows, verdicts):
            assert limits.check(SpecSet.from_vector(row)) is bool(verdict)

    def test_all_nan_specset_fails(self):
        assert not lna_limits().check(SpecSet(np.nan, np.nan, np.nan))

    def test_non_finite_unlimited_spec_fails_closed(self):
        gain_only = SpecificationLimits(
            {"gain_db": SpecificationLimit("gain_db", minimum=14.0)}
        )
        assert gain_only.check(SpecSet(16.0, 2.0, 3.0))
        assert not gain_only.check(SpecSet(16.0, np.nan, 3.0))

    def test_empty_matrix(self):
        assert lna_limits().check_matrix(np.empty((0, 3))).shape == (0,)
