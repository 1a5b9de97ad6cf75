"""Tests for the runtime FP sanitizer and its pytest integration."""

import numpy as np
import pytest

from repro.verify.guards import fp_sanitizer


class TestFpSanitizer:
    def test_nan_birth_raises(self):
        with fp_sanitizer():
            with pytest.raises(FloatingPointError):
                np.log10(np.array([0.0]))

    def test_invalid_operation_raises(self):
        with fp_sanitizer():
            with pytest.raises(FloatingPointError):
                np.array([0.0]) / np.array([0.0])

    def test_finite_arithmetic_unaffected(self):
        with fp_sanitizer():
            out = np.log10(np.array([1.0, 10.0]))
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_errstate_restored_after_exit(self):
        before = np.geterr()
        with fp_sanitizer():
            pass
        assert np.geterr() == before


class TestAutouseFixture:
    def test_suite_runs_under_sanitizer(self):
        # the autouse fixture in tests/conftest.py is active here
        with pytest.raises(FloatingPointError):
            np.log10(np.array([0.0]))

    @pytest.mark.allow_nonfinite
    def test_marker_opts_out(self):
        # without the sanitizer this warns (numpy default) instead of raising
        with pytest.warns(RuntimeWarning):
            out = np.log10(np.array([0.0]))
        assert np.isneginf(out[0])

    def test_documented_sentinel_survives_sanitizer(self):
        from repro.dsp.units import watts_to_dbm

        out = watts_to_dbm(np.array([0.0, 1e-3]))
        assert np.isneginf(out[0])
        assert out[1] == pytest.approx(0.0)
