"""Tests for repro.regression.linear."""

import numpy as np
import pytest

from repro.regression.linear import LinearRegression, RidgeRegression


class TestLinearRegression:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        w = np.array([2.0, -1.0, 0.5])
        y = x @ w + 4.0
        model = LinearRegression().fit(x, y)
        assert np.allclose(model.coef_, w, atol=1e-6)
        assert model.intercept_ == pytest.approx(4.0, abs=1e-6)

    def test_prediction(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 3.0, 5.0])
        model = LinearRegression().fit(x, y)
        assert model.predict(np.array([[3.0]]))[0] == pytest.approx(7.0)

    def test_single_sample_prediction(self):
        x = np.random.default_rng(1).normal(size=(20, 2))
        y = x[:, 0]
        model = LinearRegression().fit(x, y)
        single = model.predict(x[3])
        assert np.isscalar(single) or single.ndim == 0

    def test_underdetermined_does_not_crash(self):
        # more features than samples: the tiny ridge floor keeps it solvable
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 20))
        y = rng.normal(size=5)
        model = LinearRegression().fit(x, y)
        assert np.isfinite(model.predict(x)).all()


class TestRidgeRegression:
    def test_shrinkage_with_alpha(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 4))
        y = x @ np.array([5.0, 0.0, 0.0, 0.0]) + rng.normal(0, 0.1, 40)
        small = RidgeRegression(alpha=1e-6).fit(x, y)
        large = RidgeRegression(alpha=1e3).fit(x, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_intercept_not_penalized(self):
        # even with huge alpha, the intercept tracks the target mean
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 3))
        y = 100.0 + 0.01 * x[:, 0]
        model = RidgeRegression(alpha=1e6).fit(x, y)
        assert model.intercept_ == pytest.approx(100.0, abs=0.1)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_wide_data_matches_normal_equations(self, alpha):
        # fewer samples than features takes the dual (n x n) solve; it
        # must reproduce the primal (d x d) ridge solution
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 300))
        y = x[:, 0] - 0.5 * x[:, 7] + rng.normal(0, 0.1, 12)
        model = RidgeRegression(alpha=alpha).fit(x, y)
        xc, yc = x - x.mean(axis=0), y - y.mean()
        w = np.linalg.solve(xc.T @ xc + alpha * np.eye(300), xc.T @ yc)
        np.testing.assert_allclose(model.coef_, w, rtol=1e-9, atol=1e-12)
        assert model.intercept_ == pytest.approx(y.mean() - x.mean(axis=0) @ w)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeRegression(alpha=-1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RidgeRegression().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            RidgeRegression().fit(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            RidgeRegression().fit(np.zeros((1, 2)), np.zeros(1))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RidgeRegression().predict(np.zeros((2, 2)))

    def test_predict_feature_count(self):
        model = RidgeRegression().fit(np.zeros((5, 2)) + np.arange(2), np.arange(5.0))
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 3)))

    def test_noise_robustness_vs_ols(self):
        # with many noisy useless features, ridge generalizes better
        rng = np.random.default_rng(5)
        n_train, n_feat = 30, 25
        x = rng.normal(size=(n_train, n_feat))
        y = 2.0 * x[:, 0] + rng.normal(0, 0.5, n_train)
        x_test = rng.normal(size=(200, n_feat))
        y_test = 2.0 * x_test[:, 0]
        ols_err = np.std(LinearRegression().fit(x, y).predict(x_test) - y_test)
        ridge_err = np.std(RidgeRegression(10.0).fit(x, y).predict(x_test) - y_test)
        assert ridge_err < ols_err
