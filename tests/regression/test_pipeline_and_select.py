"""Tests for repro.regression.pipeline and model_select."""

import numpy as np
import pytest

from repro.regression.linear import LinearRegression, RidgeRegression
from repro.regression.model_select import (
    cross_val_rmse,
    kfold_indices,
    select_best_model,
)
from repro.regression.pca import PCA
from repro.regression.pipeline import Pipeline
from repro.regression.polynomial import PolynomialRidge
from repro.regression.scaling import StandardScaler


class TestPipeline:
    def test_fit_predict_chain(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 6))
        y = 2.0 * x[:, 0] + 1.0
        pipe = Pipeline([StandardScaler(), PCA(6), LinearRegression()])
        pipe.fit(x, y)
        assert np.std(pipe.predict(x) - y) < 0.05

    def test_transforms_applied_at_predict(self):
        # a pipeline with PCA must map new data through the SAME components
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 4))
        y = x[:, 0]
        pipe = Pipeline([PCA(4), LinearRegression()]).fit(x, y)
        x_new = rng.normal(size=(10, 4))
        assert np.allclose(pipe.predict(x_new), x_new[:, 0], atol=1e-6)

    def test_requires_regressor_last(self):
        with pytest.raises(TypeError):
            Pipeline([LinearRegression(), StandardScaler()])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Pipeline([])

    def test_fit_rejects_1d_signatures(self):
        pipe = Pipeline([LinearRegression()])
        with pytest.raises(ValueError, match="2-D"):
            pipe.fit(np.zeros(10), np.zeros(10))

    def test_fit_rejects_mismatched_sample_counts(self):
        pipe = Pipeline([LinearRegression()])
        with pytest.raises(ValueError, match="10 signatures vs 9 spec values"):
            pipe.fit(np.zeros((10, 3)), np.zeros(9))

    def test_predict_rejects_1d_and_wrong_feature_count(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 4))
        pipe = Pipeline([StandardScaler(), LinearRegression()]).fit(x, x[:, 0])
        with pytest.raises(ValueError, match="2-D"):
            pipe.predict(x[0])
        with pytest.raises(ValueError, match="fitted on 4 features but got 3"):
            pipe.predict(x[:, :3])


class TestKFold:
    def test_partition_covers_everything_once(self):
        rng = np.random.default_rng(0)
        folds = kfold_indices(23, 5, rng)
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(23))

    def test_train_test_disjoint(self):
        rng = np.random.default_rng(1)
        for train, test in kfold_indices(20, 4, rng):
            assert set(train).isdisjoint(set(test))
            assert len(train) + len(test) == 20

    def test_validation(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            kfold_indices(10, 1, rng)
        with pytest.raises(ValueError):
            kfold_indices(3, 5, rng)


class TestCrossVal:
    def test_cv_rmse_reasonable(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 2))
        y = x[:, 0] + rng.normal(0, 0.1, 60)
        score = cross_val_rmse(
            lambda: LinearRegression(), x, y, k=5, rng=np.random.default_rng(0)
        )
        assert score == pytest.approx(0.1, rel=0.5)

    def test_failing_model_scores_inf(self):
        class Broken:
            def fit(self, x, y):
                raise ValueError("nope")

            def predict(self, x):
                return np.zeros(len(x))

        x = np.zeros((10, 2))
        y = np.zeros(10)
        assert cross_val_rmse(Broken, x, y, 2, np.random.default_rng(0)) == float(
            "inf"
        )


class TestSelectBestModel:
    def test_selects_correct_family(self):
        # a strongly quadratic target: poly ridge must beat plain ridge
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, size=(100, 2))
        y = x[:, 0] ** 2 + 0.1 * x[:, 1]
        name, model, scores = select_best_model(
            {
                "linear": lambda: RidgeRegression(1e-6),
                "poly2": lambda: PolynomialRidge(2, 1e-6),
            },
            x,
            y,
            k=5,
            rng=np.random.default_rng(0),
        )
        assert name == "poly2"
        assert scores["poly2"] < scores["linear"]
        # winner is refitted on all data
        assert np.std(model.predict(x) - y) < 0.05

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_best_model({}, np.zeros((10, 1)), np.zeros(10))

    def test_all_failing_raises(self):
        class Broken:
            def fit(self, x, y):
                raise ValueError("nope")

            def predict(self, x):
                return None

        with pytest.raises(RuntimeError, match="failed"):
            select_best_model(
                {"a": Broken}, np.zeros((10, 1)), np.zeros(10), k=2,
                rng=np.random.default_rng(0),
            )

    @pytest.mark.parametrize("order", [("nan", "mean"), ("mean", "nan")])
    def test_nan_score_ranks_last_in_any_order(self, order):
        # a candidate whose CV score is NaN must neither win nor hide the
        # finite candidates, whichever comes first
        class Mean:
            def fit(self, x, y):
                self.mu = float(np.mean(y))
                return self

            def predict(self, x):
                return np.full(len(x), self.mu)

        class NaNPredictor(Mean):
            def predict(self, x):
                return np.full(len(x), np.nan)

        factories = {"nan": NaNPredictor, "mean": Mean}
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        name, model, scores = select_best_model(
            {key: factories[key] for key in order}, x, y, k=4,
            rng=np.random.default_rng(0),
        )
        assert name == "mean"
        assert isinstance(model, Mean)
        assert np.isnan(scores["nan"])
        assert np.isfinite(scores["mean"])


class TestSharedFoldSVD:
    """Cross-validation shares one SVD per fold across PCA candidates."""

    def test_pca_fits_share_one_svd_per_fold(self, monkeypatch):
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 6))
        y = x[:, 0] + 0.1 * rng.normal(size=40)
        candidates = {
            f"pca{k}": (lambda k=k: Pipeline([PCA(k), RidgeRegression(1e-3)]))
            for k in (1, 2, 3, 4)
        }
        select_best_model(candidates, x, y, k=5, rng=np.random.default_rng(1))
        # one SVD per fold, then one for the winner's refit on all data
        assert len(calls) == 5 + 1

    def test_shared_and_fresh_svds_agree_bit_for_bit(self):
        from repro.regression.pca import _shared_svd

        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 8))
        x.setflags(write=False)
        with _shared_svd():
            shared = [PCA(k).fit(x) for k in (2, 5, None)]
        fresh = [PCA(k).fit(np.array(x)) for k in (2, 5, None)]
        for a, b in zip(shared, fresh):
            assert np.array_equal(a.mean_, b.mean_)
            assert np.array_equal(a.components_, b.components_)
            assert np.array_equal(a.explained_variance_, b.explained_variance_)
            assert a.total_variance_ == b.total_variance_

    def test_writable_arrays_are_never_shared(self, monkeypatch):
        from repro.regression.pca import _shared_svd

        calls = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda a, *k, **kw: calls.append(1) or real_svd(a, *k, **kw)
        )
        x = np.random.default_rng(11).normal(size=(12, 4))
        with _shared_svd():
            PCA(2).fit(x)
            x[0, 0] += 1.0  # a writable array may change between fits
            PCA(2).fit(x)
        assert len(calls) == 2
