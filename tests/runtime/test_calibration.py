"""Tests for repro.runtime.calibration."""

import pickle

import numpy as np
import pytest

from repro.circuits.device import SpecSet
from repro.regression.pca import PCA
from repro.regression.pipeline import Pipeline
from repro.regression.scaling import StandardScaler
from repro.runtime.calibration import (
    CalibrationSession,
    default_candidates,
)
from repro.verify.relations import _unshared_calibration


def _basis(m=12):
    """Fixed 2-D mixing basis, identical on every call (seeded)."""
    return np.random.default_rng(99).normal(size=(2, m))


def synthetic_dataset(rng, n=60, m=12):
    """Signatures lying on a fixed 2-D manifold; specs are functions of it.

    The mixing basis is shared across calls so training and validation
    sets live on the same manifold, as real signatures do.
    """
    basis = _basis(m)
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


class TestSharedFoldFitEquivalence:
    """The full zoo fits to the same bits as a per-candidate oracle that
    shares nothing (no fit memo, see ``_unshared_calibration``)."""

    @pytest.mark.parametrize(
        "n_train, seed, m",
        # 28 devices of 51 bins fit the ridge families' dual form
        [(200, 14, 12), (100, 11, 12), (60, 12, 12), (28, 13, 12), (28, 18, 51)],
    )
    def test_full_zoo_matches_per_candidate_oracle(self, monkeypatch, n_train, seed, m):
        sigs, specs = synthetic_dataset(np.random.default_rng(seed), n=n_train, m=m)
        val, _ = synthetic_dataset(np.random.default_rng(seed + 100), n=40, m=m)

        svd_calls = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            svd_calls.append(a.shape)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        shared = CalibrationSession().fit(sigs, specs, rng=np.random.default_rng(seed))
        n_shared = len(svd_calls)
        oracle = _unshared_calibration(
            default_candidates(n_train), sigs, specs, 5, np.random.default_rng(seed)
        )
        n_oracle = len(svd_calls) - n_shared

        assert shared.chosen == oracle.chosen
        assert shared.cv_scores == oracle.cv_scores
        assert np.array_equal(shared.predict_matrix(val), oracle.predict_matrix(val))
        # the PCA families share one SVD per fold, and the winners'
        # refits one full-data SVD across the specs
        n_specs = len(SpecSet.NAMES)
        n_pca = sum(
            isinstance(make().steps[0], PCA)
            for make in default_candidates(n_train).values()
        )
        assert n_pca >= 3
        assert n_shared <= n_specs * 5 + 1
        assert n_oracle >= n_specs * n_pca * 5
        # the caller's arrays are left writable
        assert sigs.flags.writeable and specs.flags.writeable

    def test_a_raising_candidate_changes_no_other(self):
        sigs, specs = synthetic_dataset(np.random.default_rng(15), n=100)
        val, _ = synthetic_dataset(np.random.default_rng(115), n=40)
        zoo = default_candidates(len(sigs))

        class FailsOnThirdFit:
            fits = 0

            def fit(self, x, y):
                FailsOnThirdFit.fits += 1
                if FailsOnThirdFit.fits == 3:
                    raise ValueError("degenerate fold")
                return self

            def predict(self, x):
                return np.zeros(len(x))

        # between the PCA families, after the shared front end is memoized
        names = list(zoo)
        at = names.index("knn")
        with_bad = dict(
            [(n, zoo[n]) for n in names[:at]]
            + [("bad", lambda: Pipeline([PCA(4), StandardScaler(), FailsOnThirdFit()]))]
            + [(n, zoo[n]) for n in names[at:]]
        )
        got = CalibrationSession(candidates=with_bad).fit(
            sigs, specs, rng=np.random.default_rng(15)
        )
        want = CalibrationSession(candidates=zoo).fit(
            sigs, specs, rng=np.random.default_rng(15)
        )
        assert FailsOnThirdFit.fits >= 3
        # it raises on the first spec's third fold and is charged inf
        assert got.cv_scores[SpecSet.NAMES[0]]["bad"] == np.inf
        for name in SpecSet.NAMES:
            scores = dict(got.cv_scores[name])
            del scores["bad"]
            assert scores == want.cv_scores[name]
        assert got.chosen == want.chosen
        assert np.array_equal(got.predict_matrix(val), want.predict_matrix(val))

    def test_pipelines_own_their_steps(self):
        sigs, specs = synthetic_dataset(np.random.default_rng(16), n=100)
        val, _ = synthetic_dataset(np.random.default_rng(116), n=40)
        model = CalibrationSession().fit(sigs, specs, rng=np.random.default_rng(16))
        steps = [id(s) for p in model.pipelines.values() for s in p.steps]
        assert len(steps) == len(set(steps))
        before = model.predict_matrix(val)
        restored = pickle.loads(pickle.dumps(model))
        assert np.array_equal(restored.predict_matrix(val), before)
        # refitting one spec's pipeline in place leaves the others alone
        first = model.spec_names[0]
        other_sigs, other_specs = synthetic_dataset(np.random.default_rng(17), n=60)
        model.pipelines[first].fit(other_sigs * 2.0, other_specs[:, 1])
        after = model.predict_matrix(val)
        assert np.array_equal(after[:, 1:], before[:, 1:])
        assert not np.array_equal(after[:, 0], before[:, 0])
