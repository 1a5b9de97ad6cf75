"""Tests for repro.circuits.nonlinear."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.nonlinear import (
    PolynomialNonlinearity,
    describing_gain_batch,
    gain_compression_db,
    iip2_dbm_from_poly,
    iip3_dbm_from_poly,
    p1db_dbm_from_iip3,
    poly_from_specs,
)
from repro.dsp.sources import dbm_to_vpeak
from repro.dsp.waveform import Waveform


class TestPolyFromSpecs:
    def test_a1_from_gain(self):
        a1, _, _ = poly_from_specs(20.0, 10.0)
        assert a1 == pytest.approx(10.0)

    def test_a3_is_compressive(self):
        _, _, a3 = poly_from_specs(16.0, 3.0)
        assert a3 < 0.0

    def test_iip3_roundtrip(self):
        for gain, iip3 in [(10.0, 0.0), (16.0, 3.0), (25.0, -5.0)]:
            a1, _, a3 = poly_from_specs(gain, iip3)
            assert iip3_dbm_from_poly(a1, a3) == pytest.approx(iip3, abs=1e-9)

    def test_iip2_roundtrip(self):
        a1, a2, _ = poly_from_specs(16.0, 3.0, iip2_dbm=25.0)
        assert iip2_dbm_from_poly(a1, a2) == pytest.approx(25.0, abs=1e-9)

    def test_no_iip2_means_zero_a2(self):
        _, a2, _ = poly_from_specs(16.0, 3.0)
        assert a2 == 0.0

    def test_linear_device(self):
        assert iip3_dbm_from_poly(10.0, 0.0) == math.inf
        assert iip2_dbm_from_poly(10.0, 0.0) == math.inf

    @given(
        gain=st.floats(min_value=-10.0, max_value=30.0),
        iip3=st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, gain, iip3):
        a1, _, a3 = poly_from_specs(gain, iip3)
        assert iip3_dbm_from_poly(a1, a3) == pytest.approx(iip3, abs=1e-6)
        assert 20.0 * math.log10(a1) == pytest.approx(gain, abs=1e-9)


class TestCompression:
    def test_p1db_gap(self):
        assert p1db_dbm_from_iip3(3.0) == pytest.approx(3.0 - 9.6357, abs=1e-4)

    def test_small_signal_no_compression(self):
        a1, _, a3 = poly_from_specs(16.0, 3.0)
        assert gain_compression_db(a1, a3, 1e-6) == pytest.approx(0.0, abs=1e-6)

    def test_one_db_at_p1db(self):
        a1, _, a3 = poly_from_specs(16.0, 3.0)
        amp = dbm_to_vpeak(p1db_dbm_from_iip3(3.0))
        # describing-function gain drop at P1dB is close to 1 dB (the
        # classic 9.64 dB relation is derived from this very expansion)
        assert gain_compression_db(a1, a3, amp) == pytest.approx(-1.0, abs=0.1)

    def test_zero_a1_rejected(self):
        with pytest.raises(ValueError):
            gain_compression_db(0.0, -1.0, 0.1)


class TestPolynomialNonlinearity:
    def test_saturation_amplitude(self):
        # y' = a1 + 3 a3 x^2 = 0 at x = sqrt(a1 / (3 |a3|))
        poly = PolynomialNonlinearity(a1=6.0, a3=-2.0)
        assert poly.saturation_amplitude == pytest.approx(1.0)

    def test_linear_device_never_saturates(self):
        assert PolynomialNonlinearity(a1=5.0).saturation_amplitude == math.inf

    def test_output_clipped_beyond_saturation(self):
        poly = PolynomialNonlinearity(a1=6.0, a3=-2.0)
        y_sat = poly(np.array([1.0]))[0]  # 6 - 2 = 4
        y_over = poly(np.array([5.0]))[0]
        assert y_over == pytest.approx(y_sat)

    def test_no_foldback(self):
        poly = PolynomialNonlinearity(a1=6.0, a3=-2.0)
        x = np.linspace(0, 10, 500)
        y = poly(x)
        assert np.all(np.diff(y) >= -1e-12)  # monotone, never folds back

    def test_odd_symmetry_without_a2(self):
        poly = PolynomialNonlinearity(a1=4.0, a3=-0.5)
        x = np.linspace(-2, 2, 101)
        assert np.allclose(poly(x), -poly(-x))

    def test_apply_waveform(self):
        poly = PolynomialNonlinearity(a1=2.0)
        wf = Waveform([1.0, -1.0], 1e3)
        assert np.allclose(poly.apply(wf).samples, [2.0, -2.0])

    def test_gain_db(self):
        assert PolynomialNonlinearity(a1=10.0).gain_db() == pytest.approx(20.0)

    def test_specs_accessors(self):
        a1, a2, a3 = poly_from_specs(16.0, 3.0, 23.0)
        poly = PolynomialNonlinearity(a1, a2, a3)
        assert poly.iip3_dbm() == pytest.approx(3.0, abs=1e-9)
        assert poly.coefficients() == (a1, a2, a3)


class TestDescribingFunction:
    def test_matches_closed_form_below_saturation(self):
        a1, _, a3 = poly_from_specs(16.0, 3.0)
        poly = PolynomialNonlinearity(a1, 0.0, a3)
        amps = np.linspace(0.0, 0.9 * poly.saturation_amplitude, 20)
        assert np.allclose(
            poly.describing_function(amps), a1 + 0.75 * a3 * amps**2, rtol=1e-12
        )

    def test_continuous_at_saturation(self):
        a1, _, a3 = poly_from_specs(16.0, 3.0)
        poly = PolynomialNonlinearity(a1, 0.0, a3)
        sat = poly.saturation_amplitude
        below = poly.describing_function(np.array([sat * 0.999]))[0]
        above = poly.describing_function(np.array([sat * 1.001]))[0]
        # the clipped branch uses 128-point quadrature: ~0.2 % tolerance
        assert above == pytest.approx(below, rel=3e-3)

    def test_monotone_compression(self):
        a1, _, a3 = poly_from_specs(16.0, 3.0)
        poly = PolynomialNonlinearity(a1, 0.0, a3)
        amps = np.linspace(1e-3, 5 * poly.saturation_amplitude, 100)
        g = poly.describing_function(amps)
        assert np.all(np.diff(g) <= 1e-9)
        assert np.all(g > 0.0)

    def test_deep_clipping_limit(self):
        # a hard limiter's fundamental gain falls as 4 y_sat / (pi A)
        a1, _, a3 = poly_from_specs(16.0, 3.0)
        poly = PolynomialNonlinearity(a1, 0.0, a3)
        sat = poly.saturation_amplitude
        y_sat = poly(np.array([sat]))[0]
        big = 100.0 * sat
        g = poly.describing_function(np.array([big]))[0]
        assert g == pytest.approx(4.0 * y_sat / (np.pi * big), rel=0.05)

    def test_scalar_input(self):
        poly = PolynomialNonlinearity(a1=2.0, a3=-0.1)
        g = poly.describing_function(0.0)
        assert np.isscalar(g) or g.shape == ()
        assert float(g) == pytest.approx(2.0)

    def test_linear_device_flat(self):
        poly = PolynomialNonlinearity(a1=3.0)
        amps = np.linspace(0, 10, 11)
        assert np.allclose(poly.describing_function(amps), 3.0)

    def test_gain_table_interpolation_accuracy(self):
        a1, _, a3 = poly_from_specs(16.0, 3.0)
        poly = PolynomialNonlinearity(a1, 0.0, a3)
        test_amps = np.linspace(0.0, 0.5, 333)
        exact = poly.describing_function(test_amps)
        interp = describing_gain_batch([[a1, 0.0, a3]], test_amps, 0.5)[0]
        assert np.allclose(interp, exact, rtol=0.002, atol=1e-6)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            PolynomialNonlinearity(1.0).describing_function(np.array([-1.0]))
