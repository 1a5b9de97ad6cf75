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
    DescribingGainStack,
    PolynomialNonlinearity,
    describing_gain_batch,
    poly_from_specs,
    quadrature_cubes,
    saturation_amplitudes,
)
from repro.verify.reference import (
    DescribingGains,
    RowInterpolator,
    describing_gain_tables,
    interp_rows,
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

    def test_inverting_rows_take_the_mirrored_amplitude(self):
        # (-1, -10, -1) mirrors to the expansive (1, 10, 1): never
        # saturates; (-1, 10, 1) mirrors to the compressive (1, -10, -1)
        coeffs = np.array([(-1.0, -10.0, -1.0), (-1.0, 10.0, 1.0)])
        want = [PolynomialNonlinearity(*c).saturation_amplitude for c in coeffs]
        got = saturation_amplitudes(coeffs)
        assert np.array_equal(got, want)
        assert got[0] == math.inf
        assert got[1] == PolynomialNonlinearity(1.0, -10.0, -1.0).saturation_amplitude
        assert 0.0 < got[1] < math.inf

    def test_inverting_rows_match_the_oracle_gain(self):
        coeffs = np.array([(-1.0, -10.0, -1.0), (-1.0, 10.0, 1.0)])
        amps = np.array([0.0, 0.01, 0.05, 0.2])
        with np.errstate(all="raise"):
            gain = _assert_matches_oracle(coeffs, amps, float(amps.max()))
        assert np.all(np.isfinite(gain))
        assert gain[0, 0] == gain[1, 0] == -1.0


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

    def test_one_knot_search_serves_many_tables(self):
        rng = np.random.default_rng(8)
        xp = np.sort(rng.uniform(0.0, 1.0, 30))
        x = np.concatenate([rng.uniform(-0.2, 1.2, 100), xp[::4], [np.nan]])
        interp = RowInterpolator(x, xp)
        for k in (1, 3, 7):
            fp = rng.normal(size=(k, 30))
            want = np.array([np.interp(x, xp, row) for row in fp])
            assert np.array_equal(interp(fp), want, equal_nan=True)


class TestDescribingGains:
    @pytest.mark.parametrize("peak", [0.0, 0.05, 2.0])
    def test_shared_grid_equals_one_off_batches(self, peak):
        # one plan's gains object serves every row block of a lot
        rng = np.random.default_rng(12)
        amps = _drive(rng, 300, peak) if peak else np.zeros(300)
        gains = DescribingGains(amps, peak)
        for n in (0, 1, 5):
            coeffs = _lot_coeffs(rng, n)
            got = gains(coeffs)
            assert np.array_equal(got, describing_gain_batch(coeffs, amps, peak))
            assert np.array_equal(got, _oracle_gain(coeffs, amps, peak))


class TestLotCubes:
    """One lot-wide table of abscissa cubes per grid, shared by row blocks."""

    def test_nan_row_neither_disables_the_cube_nor_passes(self):
        rng = np.random.default_rng(14)
        coeffs = _lot_coeffs(rng, 12)
        coeffs[4, 2] = np.nan
        sat = saturation_amplitudes(coeffs)
        assert np.isnan(sat[4])
        peak = 3.0 * float(np.nanmin(sat))
        amps = _drive(rng, 300, peak)
        gains = DescribingGains(amps, peak)
        cubes = gains.cubes(sat)
        grid = np.linspace(0.0, 1.01 * peak, 256)
        start = int(np.searchsorted(grid, np.nanmin(sat), side="right"))
        assert 0 < cubes.start == start < 256
        assert np.array_equal(cubes.values, (grid[start:, None] * np.cos(
            np.linspace(0.0, 2.0 * np.pi, 129)[:-1])) ** 3)
        got = np.concatenate([gains(coeffs[a : a + 5], cubes) for a in (0, 5, 10)])
        assert np.array_equal(got, _oracle_gain(coeffs, amps, peak), equal_nan=True)
        assert np.all(np.isnan(got[4]))
        assert np.all(np.isfinite(np.delete(got, 4, axis=0)))

    def test_no_saturated_cell_means_no_table(self):
        grid = np.linspace(0.0, 2.0, 256)
        for sat in ([np.inf, np.nan], [], [2.0, 5.0]):
            assert quadrature_cubes(grid, np.array(sat, dtype=float)) is None
        assert quadrature_cubes(grid, np.array([np.nan, 1.995, 5.0])).start == 255

    def test_cubes_must_cover_the_saturated_cells(self):
        coeffs = np.array([[10.0, 0.0, -40.0], [10.0, 0.0, -4.0]])
        sat = saturation_amplitudes(coeffs)
        grid = np.linspace(0.0, 3.0 * sat.max(), 256)
        # built for the second row's lot only: misses the first's cells
        narrow = quadrature_cubes(grid, sat[1:])
        with pytest.raises(ValueError, match="cover"):
            describing_gain_tables(coeffs, grid, narrow)
        assert np.array_equal(
            describing_gain_tables(coeffs[1:], grid, narrow),
            describing_gain_tables(coeffs[1:], grid),
        )


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


class TestDescribingGainStack:
    """Several records' gains per block, each row against its record's
    :class:`DescribingGains` (and the per-device loop)."""

    @staticmethod
    def _records(rng, peaks, n=300):
        records = []
        for peak in peaks:
            amps = _drive(rng, n, peak) if peak > 0.0 else np.zeros(n)
            records.append(amps)
        return np.array(records)

    @staticmethod
    def _assert_rows(coeffs, records, peaks, block_rows=7):
        """Every (record, device) row, record-major in blocks that
        straddle records, one lot shared by the blocks."""
        n = len(coeffs)
        stack = DescribingGainStack.build(records, peaks)
        lot = stack.lot(coeffs)
        want = [DescribingGains(r, p)(coeffs) for r, p in zip(records, peaks)]
        total = n * len(records)
        for start in range(0, total, block_rows):
            rows = np.arange(start, min(start + block_rows, total))
            if rows[0] // n == rows[-1] // n:
                # inside one record: the view path
                lo = rows[0] % n
                block = stack(lot, slice(lo, lo + len(rows)), int(rows[0] // n))
            else:
                block = stack(lot, rows % n, rows // n)
            for row, got in zip(rows.tolist(), block):
                s, i = divmod(row, n)
                assert np.array_equal(got, want[s][i], equal_nan=True), (s, i)
        return want

    def test_records_straddle_blocks(self):
        rng = np.random.default_rng(20)
        coeffs = _lot_coeffs(rng, 9)
        sat = saturation_amplitudes(coeffs)
        peaks = np.array([0.3, 3.0, 0.8, 5.0]) * float(np.median(sat))
        want = self._assert_rows(coeffs, self._records(rng, peaks), peaks)
        assert all(np.all(np.isfinite(w)) for w in want)

    def test_zero_peak_record_inside_a_driven_stack(self):
        rng = np.random.default_rng(21)
        coeffs = _lot_coeffs(rng, 6)
        peak = 2.0 * float(np.median(saturation_amplitudes(coeffs)))
        peaks = np.array([peak, 0.0, 1.5 * peak])
        want = self._assert_rows(coeffs, self._records(rng, peaks), peaks, block_rows=4)
        assert np.array_equal(want[1], np.repeat(coeffs[:, :1], 300, axis=1))

    def test_nan_and_inverting_coefficients(self):
        rng = np.random.default_rng(22)
        coeffs = _lot_coeffs(rng, 8)
        coeffs[1, 0] = np.nan
        coeffs[4, 2] = np.nan
        coeffs[6] = (-1.0, -10.0, -1.0)
        coeffs[7] = (-1.0, 10.0, 1.0)
        peaks = np.array([0.05, 0.4, 2.0])
        want = self._assert_rows(coeffs, self._records(rng, peaks), peaks, block_rows=5)
        for w in want:
            assert np.all(np.isnan(w[[1, 4]]))

    def test_amps_on_knots_above_the_top_and_nan(self):
        rng = np.random.default_rng(23)
        coeffs = _lot_coeffs(rng, 5)
        peaks = np.array([0.6, 0.9]) * float(np.median(saturation_amplitudes(coeffs)))
        records = self._records(rng, peaks)
        grid = np.linspace(0.0, 1.01 * peaks[0], 256)
        records[0, :40] = grid[rng.integers(0, 256, 40)]  # exactly on knots
        records[0, 40] = grid[-1]
        # the peak passed in sits below the record's own maximum
        records[1, :10] = 1.5 * peaks[1]
        records[1, 10:13] = np.nan
        self._assert_rows(coeffs, records, peaks, block_rows=3)

    def test_denormal_peak_is_built_alone(self):
        # a zero linspace step in one row would switch a stacked call's
        # formula for every row, so that record takes its own linspace
        rng = np.random.default_rng(24)
        coeffs = _lot_coeffs(rng, 4)
        peaks = np.array([0.2, 5e-322, 0.3])
        assert 1.01 * peaks[1] / 255 == 0.0
        records = self._records(rng, peaks)
        with np.errstate(all="ignore"):
            self._assert_rows(coeffs, records, peaks, block_rows=3)

    def test_one_record_is_describing_gain_batch(self):
        rng = np.random.default_rng(25)
        coeffs = _lot_coeffs(rng, 12)
        peak = 2.0 * float(np.median(saturation_amplitudes(coeffs)))
        amps = _drive(rng, 200, peak)
        stack = DescribingGainStack.build(amps[None, :], [peak])
        got = stack(stack.lot(coeffs), slice(None), 0)
        assert np.array_equal(got, _oracle_gain(coeffs, amps, peak))
        assert np.array_equal(stack[0:1].grids, stack.grids)
