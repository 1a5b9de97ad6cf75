"""Batched describing-gain kernels vs the per-device scalar oracle.

The load board and the BIST path compute every device's tuned-coupling
gain through :func:`describing_gain_batch`.  Its contract is the loop
it replaced: one :class:`PolynomialNonlinearity` per device, its
``describing_function`` tabulated on ``linspace(0, 1.01 * peak, 256)``
and ``np.interp`` per row -- compared here with ``np.array_equal``.
"""

import math

import numpy as np
import pytest

from repro.circuits.nonlinear import (
    PolynomialNonlinearity,
    describing_gain_batch,
    describing_gain_tables,
    interp_rows,
    poly_from_specs,
    saturation_amplitudes,
)


def _oracle_gain(coeffs, amps, peak):
    """The per-device loop: one polynomial, table and np.interp per row."""
    out = np.empty((len(coeffs), len(amps)))
    for i, c in enumerate(coeffs):
        poly = PolynomialNonlinearity(*c)
        if peak > 0.0:
            grid = np.linspace(0.0, 1.01 * peak, 256)
            out[i] = np.interp(amps, grid, poly.describing_function(grid))
        else:
            out[i] = np.full_like(amps, poly.a1, dtype=float)
    return out


def _lot_coeffs(rng, n):
    """LNA-like polynomials: compressive, some with even-order terms."""
    rows = []
    for _ in range(n):
        iip2 = rng.uniform(10.0, 30.0) if rng.random() < 0.5 else None
        rows.append(poly_from_specs(rng.uniform(12.0, 20.0), rng.uniform(-8.0, 4.0), iip2))
    return np.array(rows, dtype=float).reshape(n, 3)


def _drive(rng, n, peak):
    amps = np.abs(rng.normal(size=n))
    amps[rng.integers(0, n, size=n // 4)] = 0.0  # padded silence: exact knot
    return amps / amps.max() * peak


def _assert_matches_oracle(coeffs, amps, peak):
    got = describing_gain_batch(coeffs, amps, peak)
    want = _oracle_gain(coeffs, amps, peak)
    assert got.shape == want.shape == (len(coeffs), len(amps))
    assert np.array_equal(got, want, equal_nan=True)
    return got


class TestSaturationAmplitudes:
    def test_matches_scalar_property(self):
        rng = np.random.default_rng(0)
        coeffs = _lot_coeffs(rng, 50)
        coeffs[::7, 2] = abs(coeffs[::7, 2])  # expansive: never saturates
        coeffs[3] = (1.0, 0.0, 0.0)
        coeffs[5] = (1.0, 1.0, 0.5)
        coeffs[9] = (1.0, -1.0, -0.1)
        coeffs[11, 0] = np.nan
        want = [PolynomialNonlinearity(*c).saturation_amplitude for c in coeffs]
        assert np.array_equal(saturation_amplitudes(coeffs), want, equal_nan=True)

    def test_empty(self):
        assert saturation_amplitudes(np.empty((0, 3))).shape == (0,)


class TestDescribingGainBatch:
    @pytest.mark.parametrize("n_rows", [0, 1, 16, 1000])
    def test_below_saturation(self, n_rows):
        rng = np.random.default_rng(n_rows)
        coeffs = _lot_coeffs(rng, n_rows)
        sat = saturation_amplitudes(coeffs)
        peak = 0.6 * float(sat.min()) if n_rows else 0.3
        _assert_matches_oracle(coeffs, _drive(rng, 400, peak), peak)

    @pytest.mark.parametrize("n_rows", [1, 16, 300])
    def test_over_saturated_rows(self, n_rows):
        # drive past the weakest devices' fold-back: their tables take
        # the saturating quadrature on many cells, across several blocks
        rng = np.random.default_rng(10 + n_rows)
        coeffs = _lot_coeffs(rng, n_rows)
        peak = 3.0 * float(np.median(saturation_amplitudes(coeffs)))
        gain = _assert_matches_oracle(coeffs, _drive(rng, 333, peak), peak)
        assert np.all(np.isfinite(gain))

    def test_expansive_and_linear_rows(self):
        rng = np.random.default_rng(2)
        coeffs = _lot_coeffs(rng, 12)
        coeffs[::2, 2] = abs(coeffs[::2, 2])  # a3 >= 0
        coeffs[1] = (4.0, 0.0, 0.0)
        coeffs[3] = (4.0, 0.7, 0.0)
        peak = 2.0 * float(np.nanmin(saturation_amplitudes(coeffs)))
        _assert_matches_oracle(coeffs, _drive(rng, 200, peak), peak)

    def test_zero_peak_is_small_signal_gain(self):
        rng = np.random.default_rng(3)
        coeffs = _lot_coeffs(rng, 16)
        gain = _assert_matches_oracle(coeffs, np.zeros(64), 0.0)
        assert np.array_equal(gain, np.repeat(coeffs[:, :1], 64, axis=1))

    def test_nan_coefficients_fail_closed(self):
        rng = np.random.default_rng(4)
        coeffs = _lot_coeffs(rng, 16)
        coeffs[2, 0] = np.nan
        coeffs[7, 2] = np.nan
        # a2 enters the tuned gain only through the fold-back point, so a
        # NaN a2 follows the oracle (closed form, no quadrature) as is
        coeffs[11, 1] = np.nan
        peak = 2.0 * float(np.nanmin(saturation_amplitudes(coeffs)))
        gain = _assert_matches_oracle(coeffs, _drive(rng, 128, peak), peak)
        for row in (2, 7):
            assert np.all(np.isnan(gain[row]))
        assert np.all(np.isfinite(np.delete(gain, [2, 7], axis=0)))

    def test_tables_match_describing_function(self):
        rng = np.random.default_rng(5)
        coeffs = _lot_coeffs(rng, 20)
        grid = np.linspace(0.0, 2.0 * float(saturation_amplitudes(coeffs).max()), 256)
        tables = describing_gain_tables(coeffs, grid)
        for c, row in zip(coeffs, tables):
            assert np.array_equal(row, PolynomialNonlinearity(*c).describing_function(grid))

    def test_negative_grid_rejected(self):
        with pytest.raises(ValueError):
            describing_gain_tables(np.array([[1.0, 0.0, -0.1]]), np.array([-1.0, 0.0]))


class TestInterpRows:
    def test_matches_np_interp_edge_cases(self):
        rng = np.random.default_rng(6)
        xp = np.sort(rng.uniform(0.0, 1.0, 40))
        fp = rng.normal(size=(5, 40))
        x = np.concatenate(
            [rng.uniform(-0.5, 1.5, 200), xp[::3], [xp[0], xp[-1], -1.0, 2.0]]
        )
        got = interp_rows(x, xp, fp)
        want = np.array([np.interp(x, xp, row) for row in fp])
        assert np.array_equal(got, want)

    def test_matches_np_interp_non_finite(self):
        # np.interp never warns on an infinite or NaN table; neither may
        # its batched twin under the suite's FP sanitizer
        xp = np.linspace(0.0, 1.0, 9)
        fp = np.ones((4, 9))
        fp[0, 3] = np.inf
        fp[1, 3:5] = np.inf
        fp[2, 6] = -np.inf
        fp[3, 2] = np.nan
        x = np.concatenate([np.linspace(-0.1, 1.1, 57), [np.nan]])
        got = interp_rows(x, xp, fp)
        want = np.array([np.interp(x, xp, row) for row in fp])
        assert np.array_equal(got, want, equal_nan=True)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            interp_rows(np.zeros(3), np.zeros(1), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            interp_rows(np.zeros(3), np.arange(4.0), np.zeros((2, 3)))


def test_saturating_cells_across_many_blocks():
    # 40 saturating devices fill dozens of bounded quadrature blocks;
    # every row still equals the per-device quadrature
    coeffs = np.tile([[10.0, 0.0, -40.0]], (40, 1))
    sat = PolynomialNonlinearity(10.0, 0.0, -40.0).saturation_amplitude
    assert math.isfinite(sat)
    grid = np.linspace(0.0, 5.0 * sat, 256)
    tables = describing_gain_tables(coeffs, grid)
    want = PolynomialNonlinearity(10.0, 0.0, -40.0).describing_function(grid)
    assert np.array_equal(tables, np.tile(want, (40, 1)))
