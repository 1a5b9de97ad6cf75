"""Prediction kernels are row-invariant: a row's output ignores its batch.

Production predicts lots chunk by chunk, with chunk sizes set by the
executor, ``chunksize`` and the streaming lot size; the reproduction
contract needs every record bit-identical across chunkings.  Each test
predicts a 333-row batch whole, then in slices of several sizes (BLAS
products change their last bits across exactly these sizes) and row by
row, and demands ``np.array_equal``.
"""

import numpy as np
import pytest

from repro.regression.knn import KNNRegressor
from repro.regression.linear import RidgeRegression
from repro.regression.mars import MARSRegressor
from repro.regression.pca import PCA
from repro.regression.rowwise import rowwise_matmul

SLICE_SIZES = (1, 2, 3, 7, 16, 64)


def _data(n_features, seed=0):
    rng = np.random.default_rng(seed)
    x_train = rng.normal(size=(60, n_features))
    y_train = np.sin(x_train[:, 0]) + x_train[:, 1] ** 2 + 0.05 * rng.normal(size=60)
    query = rng.normal(size=(333, n_features))
    return x_train, y_train, query


def _assert_row_invariant(fn, query):
    whole = fn(query)
    for size in SLICE_SIZES:
        sliced = np.concatenate(
            [fn(query[i : i + size]) for i in range(0, len(query), size)]
        )
        assert np.array_equal(sliced, whole), f"slices of {size} rows differ"
    for i in (0, 1, 166, 332):
        assert np.array_equal(fn(query[i]), whole[i]), f"row {i} alone differs"


class TestRowInvariance:
    def test_pca_transform(self):
        x_train, _, query = _data(40)
        pca = PCA(4).fit(x_train)
        _assert_row_invariant(pca.transform, query)

    @pytest.mark.parametrize("n_features", [3, 40])
    def test_ridge_predict(self, n_features):
        x_train, y_train, query = _data(n_features)
        model = RidgeRegression(alpha=0.1).fit(x_train, y_train)
        _assert_row_invariant(model.predict, query)

    def test_mars_predict(self):
        x_train, y_train, query = _data(4)
        model = MARSRegressor(max_terms=12).fit(x_train, y_train)
        assert model.n_terms > 0
        _assert_row_invariant(model.predict, query)

    @pytest.mark.parametrize("weights", ["distance", "uniform"])
    def test_knn_predict(self, weights):
        x_train, y_train, query = _data(4)
        model = KNNRegressor(k=5, weights=weights).fit(x_train, y_train)
        _assert_row_invariant(model.predict, query)


class TestRowwiseMatmul:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 17))
        w = rng.normal(size=(5, 17))
        np.testing.assert_allclose(rowwise_matmul(x, w), x @ w.T, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            rowwise_matmul(x, w[0]), x @ w[0], rtol=1e-12, atol=1e-12
        )

    def test_shapes(self):
        x = np.ones((4, 3))
        assert rowwise_matmul(x, np.ones(3)).shape == (4,)
        assert rowwise_matmul(x, np.ones((2, 3))).shape == (4, 2)
        assert rowwise_matmul(np.empty((0, 3)), np.ones((2, 3))).shape == (0, 2)
