"""NumPy identities the stacked GA generation rests on, pinned bitwise.

A GA generation is evaluated as stacked arrays (the describing-gain
grids and knot searches of every stimulus, one table per row block,
one Eq. 10 solve for every gene), and each stacked call must equal the
per-stimulus or per-gene call it replaced bit for bit.  That holds only
while these library identities hold on the installed NumPy and LAPACK,
so each is asserted here on random data: an upgrade that breaks one
fails this file, not a golden corpus far downstream.
"""

import numpy as np
import pytest

from repro.circuits.nonlinear import _knot_search


@pytest.fixture
def rng():
    return np.random.default_rng(20020304)


class TestStackedLinearAlgebra:
    @pytest.mark.parametrize("m, k", [(60, 6), (40, 9), (7, 12), (25, 1)])
    def test_stacked_svd_equals_per_matrix(self, rng, m, k):
        stack = rng.normal(size=(24, m, k)) * 10.0 ** rng.uniform(-4, 2, (24, 1, 1))
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        for g, a in enumerate(stack):
            u1, s1, vt1 = np.linalg.svd(a, full_matrices=False)
            assert np.array_equal(s[g], s1)
            assert np.array_equal(vt[g], vt1)
            assert np.array_equal(u[g], u1)

    @pytest.mark.parametrize("n, k", [(3, 6), (5, 9), (1, 12), (3, 1)])
    def test_stacked_matmul_equals_per_matrix(self, rng, n, k):
        a_p = rng.normal(size=(n, k))
        vt = rng.normal(size=(24, k, k))
        got = np.matmul(a_p, vt.transpose(0, 2, 1))
        for g in range(len(vt)):
            assert np.array_equal(got[g], a_p @ vt[g].T)

    @pytest.mark.parametrize("n", [1, 3, 8, 17])
    def test_middle_axis_mean_equals_per_matrix(self, rng, n):
        x = rng.normal(size=(24, n, 9)) * 10.0 ** rng.uniform(-8, 8, (24, n, 1))
        got = np.mean(x, axis=1)
        for g in range(len(x)):
            assert np.array_equal(got[g], np.mean(x[g], axis=0))


class TestStackedGrids:
    def test_array_stop_linspace_equals_per_row(self, rng):
        # only while no row's step is zero: one zero step switches the
        # whole call to another formula, so zero peaks are kept out
        stops = rng.uniform(1e-6, 5.0, 40) * 10.0 ** rng.integers(-3, 3, 40)
        grids = np.linspace(0.0, stops, 256, axis=1)
        for row, stop in zip(grids, stops):
            assert np.array_equal(row, np.linspace(0.0, stop, 256))

    def test_knot_search_equals_searchsorted(self, rng):
        stops = rng.uniform(0.01, 3.0, 24)
        grids = np.linspace(0.0, stops, 256, axis=1)
        x = rng.uniform(-0.1, 1.2, (24, 400)) * stops[:, None]
        x[:, :60] = grids[:, rng.integers(0, 256, 60)]  # exactly on knots
        x[:, 60] = stops  # the grid's end
        x[:, 61] = np.nan
        x[:, 62] = -0.0
        got = _knot_search(grids, x)
        for s in range(len(x)):
            want = np.searchsorted(grids[s], x[s], side="right") - 1
            assert np.array_equal(got[s], want)

    def test_flat_take_interpolation_equals_np_interp(self, rng):
        # a[i, j[i]] of a block as one flat take, in np.interp's formula
        grids = np.sort(rng.uniform(0.0, 2.0, (8, 256)), axis=1)
        grids[:, 0] = 0.0
        tables = rng.normal(size=(8, 256))
        x = rng.uniform(0.0, 1.9, (8, 300))
        j = np.array([np.searchsorted(g, xx, side="right") - 1 for g, xx in zip(grids, x)])
        j = np.clip(j, 0, 254)
        offset = np.arange(8)[:, None] * 256
        slopes = np.empty_like(tables)
        np.subtract(tables[:, 1:], tables[:, :-1], out=slopes[:, :-1])
        slopes[:, :-1] /= grids[:, 1:] - grids[:, :-1]
        got = np.take(slopes, j + offset)
        got *= x - np.take(grids, j + offset)
        got += np.take(tables, j + offset)
        for i in range(8):
            assert np.array_equal(got[i], np.interp(x[i], grids[i], tables[i]))
