"""Tests for repro.runtime.calibration."""

import numpy as np
import pytest

from repro.circuits.device import SpecSet
from repro.regression.metrics import rmse
from repro.regression.model_select import kfold_indices
from repro.regression.pca import PCA
from repro.runtime import calibration
from repro.runtime.calibration import (
    CalibrationSession,
    default_candidates,
)


def _basis():
    """Fixed 2-D mixing basis, identical on every call (seeded)."""
    return np.random.default_rng(99).normal(size=(2, 12))


def synthetic_dataset(rng, n=60):
    """Signatures lying on a fixed 2-D manifold; specs are functions of it.

    The mixing basis is shared across calls so training and validation
    sets live on the same manifold, as real signatures do.
    """
    basis = _basis()
    u = rng.uniform(0.5, 1.5, size=(n, 2))
    signatures = u @ basis + rng.normal(0, 1e-3, size=(n, basis.shape[1]))
    specs = np.column_stack(
        [
            20.0 * np.log10(u[:, 0]) + 16.0,  # "gain"
            2.0 + 0.3 * u[:, 1],  # "nf"
            3.0 + 5.0 * np.log10(u[:, 0] / u[:, 1]),  # "iip3"
        ]
    )
    return signatures, specs


class TestDefaultCandidates:
    def test_contains_model_families(self):
        zoo = default_candidates(100)
        names = " ".join(zoo)
        assert "ridge" in names
        assert "poly" in names
        assert "knn" in names
        assert "mars" in names

    def test_all_constructible(self):
        for factory in default_candidates(28).values():
            model = factory()
            assert hasattr(model, "fit")


class TestCalibrationSession:
    def test_learns_synthetic_mapping(self):
        rng = np.random.default_rng(0)
        sig_train, spec_train = synthetic_dataset(rng, n=80)
        sig_val, spec_val = synthetic_dataset(rng, n=30)
        model = CalibrationSession().fit(sig_train, spec_train, rng=rng)
        pred = model.predict_matrix(sig_val)
        for j in range(3):
            err = np.std(pred[:, j] - spec_val[:, j])
            spread = np.std(spec_val[:, j])
            assert err < 0.2 * spread

    def test_predict_single(self):
        rng = np.random.default_rng(1)
        sigs, specs = synthetic_dataset(rng)
        model = CalibrationSession().fit(sigs, specs, rng=rng)
        out = model.predict(sigs[0])
        assert isinstance(out, SpecSet)

    def test_custom_spec_names(self):
        rng = np.random.default_rng(2)
        sigs, specs = synthetic_dataset(rng)
        session = CalibrationSession(spec_names=("gain_db", "iip3_dbm"))
        model = session.fit(sigs, specs[:, [0, 2]], rng=rng)
        assert model.predict_matrix(sigs[:5]).shape == (5, 2)

    def test_summary_mentions_chosen_models(self):
        rng = np.random.default_rng(3)
        sigs, specs = synthetic_dataset(rng)
        model = CalibrationSession().fit(sigs, specs, rng=rng)
        text = model.summary()
        for name in ("gain_db", "nf_db", "iip3_dbm"):
            assert name in text

    def test_validation(self):
        rng = np.random.default_rng(4)
        session = CalibrationSession()
        with pytest.raises(ValueError, match="2-D"):
            session.fit(np.zeros(10), np.zeros((10, 3)), rng=rng)
        with pytest.raises(ValueError, match="row counts"):
            session.fit(np.zeros((10, 4)), np.zeros((9, 3)), rng=rng)
        with pytest.raises(ValueError, match="spec columns"):
            session.fit(np.zeros((10, 4)), np.zeros((10, 2)), rng=rng)
        with pytest.raises(ValueError, match="at least 8"):
            session.fit(np.zeros((5, 4)), np.zeros((5, 3)), rng=rng)


def _per_candidate_select(candidates, x, y, k=5, rng=None):
    """The model selection the shared-fold loop replaced: candidates in
    the outer loop, fresh fold arrays and a fresh PCA SVD per fit."""
    split_seed = int(rng.integers(0, 2**31 - 1))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scores = {}
    for name, factory in candidates.items():
        per_fold = []
        for train, test in kfold_indices(len(x), k, np.random.default_rng(split_seed)):
            model = factory()
            try:
                model.fit(x[train], y[train])
                per_fold.append(rmse(y[test], model.predict(x[test])))
            except (np.linalg.LinAlgError, ValueError):
                per_fold = None
                break
        scores[name] = float("inf") if per_fold is None else float(np.mean(per_fold))
    best_name = min(scores, key=scores.get)
    best = candidates[best_name]()
    best.fit(x, y)
    return best_name, best, scores


class TestSharedFoldFitEquivalence:
    """The full zoo fits to the same bits as a per-candidate-SVD oracle."""

    @pytest.mark.parametrize("n_train, seed", [(100, 11), (60, 12), (28, 13)])
    def test_full_zoo_matches_per_candidate_oracle(self, monkeypatch, n_train, seed):
        sigs, specs = synthetic_dataset(np.random.default_rng(seed), n=n_train)
        val, _ = synthetic_dataset(np.random.default_rng(seed + 100), n=40)

        svd_calls = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svd_calls.append(a.shape)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        shared = CalibrationSession().fit(sigs, specs, rng=np.random.default_rng(seed))
        n_shared = len(svd_calls)
        monkeypatch.setattr(calibration, "select_best_model", _per_candidate_select)
        oracle = CalibrationSession().fit(sigs, specs, rng=np.random.default_rng(seed))
        n_oracle = len(svd_calls) - n_shared

        assert shared.chosen == oracle.chosen
        assert shared.cv_scores == oracle.cv_scores
        assert np.array_equal(shared.predict_matrix(val), oracle.predict_matrix(val))
        # the PCA families share one SVD per fold: per spec, one SVD per
        # fold plus the winner's refit (when it uses PCA)
        n_specs = len(SpecSet.NAMES)
        n_pca = sum(
            isinstance(make().steps[0], PCA)
            for make in default_candidates(n_train).values()
        )
        assert n_pca >= 3
        assert n_shared <= n_specs * (5 + 1)
        assert n_oracle >= n_specs * n_pca * 5
