"""Tests for repro.regression.polynomial."""

import numpy as np
import pytest

from repro.regression.polynomial import PolynomialFeatures, PolynomialRidge


class TestPolynomialFeatures:
    def test_degree2_feature_count(self):
        # d features -> d + d(d+1)/2 outputs at degree 2
        x = np.zeros((3, 4))
        pf = PolynomialFeatures(degree=2).fit(x)
        assert pf.n_output_features == 4 + 10

    def test_degree1_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        out = PolynomialFeatures(degree=1).fit_transform(x)
        assert np.allclose(out, x)

    def test_monomials_correct(self):
        x = np.array([[2.0, 3.0]])
        out = PolynomialFeatures(degree=2).fit_transform(x)
        # order: x1, x2, x1^2, x1 x2, x2^2
        assert np.allclose(out, [[2.0, 3.0, 4.0, 6.0, 9.0]])

    def test_interaction_only(self):
        x = np.array([[2.0, 3.0]])
        pf = PolynomialFeatures(degree=2, interaction_only=True).fit(x)
        out = pf.transform(x)
        # x1, x2, x1 x2 (squares excluded)
        assert np.allclose(out, [[2.0, 3.0, 6.0]])

    def test_degree3(self):
        x = np.array([[2.0]])
        out = PolynomialFeatures(degree=3).fit_transform(x)
        assert np.allclose(out, [[2.0, 4.0, 8.0]])

    def test_single_sample(self):
        pf = PolynomialFeatures(2).fit(np.zeros((3, 2)))
        row = pf.transform(np.array([1.0, 2.0]))
        assert row.shape == (5,)

    @pytest.mark.parametrize("interaction_only", [False, True])
    def test_bit_identical_to_monomial_products(self, interaction_only):
        # each monomial is built from its prefix column; it must equal
        # np.prod over the monomial's inputs, the left-to-right product
        from itertools import combinations_with_replacement

        rng = np.random.default_rng(3)
        for d, degree, n in [(1, 3, 5), (4, 3, 80), (3, 4, 7), (6, 2, 1)]:
            x = rng.normal(size=(n, d)) * 37.0
            pf = PolynomialFeatures(degree, interaction_only).fit(x)
            combos = [
                c
                for deg in range(1, degree + 1)
                for c in combinations_with_replacement(range(d), deg)
                if not interaction_only or len(set(c)) == len(c)
            ]
            want = np.column_stack([np.prod(x[:, c], axis=1) for c in combos])
            got = pf.transform(x)
            assert got.flags.c_contiguous
            assert np.array_equal(got, want)
            assert np.array_equal(pf.transform(x[0]), want[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialFeatures(0)
        pf = PolynomialFeatures(2).fit(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            pf.transform(np.zeros((2, 3)))
        with pytest.raises(RuntimeError):
            PolynomialFeatures(2).transform(np.zeros((2, 2)))


class TestPolynomialRidge:
    def test_recovers_quadratic(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(100, 2))
        y = 1.0 + 2.0 * x[:, 0] - 0.5 * x[:, 1] ** 2 + 0.3 * x[:, 0] * x[:, 1]
        model = PolynomialRidge(degree=2, alpha=1e-8).fit(x, y)
        x_test = rng.uniform(-2, 2, size=(50, 2))
        y_test = 1.0 + 2.0 * x_test[:, 0] - 0.5 * x_test[:, 1] ** 2 + 0.3 * x_test[:, 0] * x_test[:, 1]
        assert np.allclose(model.predict(x_test), y_test, atol=1e-5)

    def test_beats_linear_on_curved_target(self):
        from repro.regression.linear import RidgeRegression

        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(80, 1))
        y = x[:, 0] ** 2
        lin_pred = RidgeRegression(1e-8).fit(x, y).predict(x)
        poly_pred = PolynomialRidge(2, 1e-8).fit(x, y).predict(x)
        assert np.std(poly_pred - y) < 0.1 * np.std(lin_pred - y)
