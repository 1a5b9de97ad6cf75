"""Tests for the designated dB <-> linear conversion helpers."""

import math

import numpy as np
import pytest

from repro.dsp.units import db, db20, dbm_to_watts, undb, undb20, watts_to_dbm


class TestPowerRatio:
    def test_known_values(self):
        assert db(10.0) == pytest.approx(10.0)
        assert db(2.0) == pytest.approx(3.0103, abs=1e-4)
        assert undb(30.0) == pytest.approx(1000.0)

    def test_roundtrip(self):
        for x in (0.01, 1.0, 7.3, 1e6):
            assert undb(db(x)) == pytest.approx(x, rel=1e-12)

    def test_array_in_array_out(self):
        ratios = np.array([1.0, 10.0, 100.0])
        out = db(ratios)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, [0.0, 10.0, 20.0])
        np.testing.assert_allclose(undb(out), ratios)


class TestAmplitudeRatio:
    def test_factor_20(self):
        assert db20(10.0) == pytest.approx(20.0)
        assert undb20(6.0) == pytest.approx(1.9953, abs=1e-4)

    def test_roundtrip(self):
        for x in (0.5, 1.0, 31.6):
            assert undb20(db20(x)) == pytest.approx(x, rel=1e-12)

    def test_amplitude_vs_power_consistency(self):
        # equal-impedance identity: 20 log10(v) == 10 log10(v^2)
        v = 3.7
        assert db20(v) == pytest.approx(db(v**2))


class TestAbsolutePower:
    def test_one_milliwatt_is_zero_dbm(self):
        assert watts_to_dbm(1e-3) == pytest.approx(0.0)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_one_watt_is_thirty_dbm(self):
        assert watts_to_dbm(1.0) == pytest.approx(30.0)

    def test_nonpositive_power_maps_to_minus_inf(self):
        assert watts_to_dbm(0.0) == -math.inf
        assert watts_to_dbm(-1.0) == -math.inf

    def test_roundtrip(self):
        for p in (-30.0, 0.0, 13.0):
            assert watts_to_dbm(dbm_to_watts(p)) == pytest.approx(p)

    def test_array_support(self):
        watts = np.array([1e-3, 1.0])
        np.testing.assert_allclose(watts_to_dbm(watts), [0.0, 30.0])


class TestAgainstLegacyCallSites:
    """The refactored call sites must match the formulas they replaced."""

    def test_vpeak_to_dbm_unchanged(self):
        from repro.dsp.sources import dbm_to_vpeak, vpeak_to_dbm

        for v in (0.01, 0.316, 1.0):
            expected = 10.0 * math.log10(v**2 / 100.0) + 30.0
            assert vpeak_to_dbm(v) == pytest.approx(expected, rel=1e-12)
            assert dbm_to_vpeak(vpeak_to_dbm(v)) == pytest.approx(v, rel=1e-12)

