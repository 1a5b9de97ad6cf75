"""Tests for repro.regression.mars."""

import numpy as np
import pytest

from repro.regression.mars import HingeBasis, MARSRegressor


class TestHingeBasis:
    def test_positive_hinge(self):
        h = HingeBasis(feature=0, knot=1.0, sign=+1)
        x = np.array([[0.0], [1.0], [3.0]])
        assert np.allclose(h.evaluate(x), [0.0, 0.0, 2.0])

    def test_negative_hinge(self):
        h = HingeBasis(feature=0, knot=1.0, sign=-1)
        x = np.array([[0.0], [1.0], [3.0]])
        assert np.allclose(h.evaluate(x), [1.0, 0.0, 0.0])


class TestMARSRegressor:
    def test_fits_hinge_target_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(200, 1))
        y = 3.0 * np.maximum(x[:, 0] - 0.0, 0.0) + 1.0
        model = MARSRegressor(max_terms=6, n_knots=9).fit(x, y)
        pred = model.predict(x)
        assert np.std(pred - y) < 0.1

    def test_beats_mean_on_nonlinear_target(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(150, 2))
        y = np.abs(x[:, 0]) + 0.5 * x[:, 1]
        model = MARSRegressor(max_terms=10).fit(x, y)
        resid = np.std(model.predict(x) - y)
        assert resid < 0.3 * np.std(y)

    def test_constant_target_stays_constant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 3))
        y = np.full(50, 7.0)
        model = MARSRegressor().fit(x, y)
        assert np.allclose(model.predict(x), 7.0, atol=1e-6)
        assert model.n_terms == 0  # GCV blocks useless terms

    def test_max_terms_respected(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(100, 4))
        y = np.sin(3 * x[:, 0]) + np.cos(3 * x[:, 1])
        model = MARSRegressor(max_terms=6, min_improvement=0.0).fit(x, y)
        assert model.n_terms <= 6

    def test_single_sample_predict(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(60, 2))
        y = x[:, 0]
        model = MARSRegressor().fit(x, y)
        out = model.predict(x[0])
        assert np.ndim(out) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MARSRegressor(max_terms=1)
        with pytest.raises(ValueError):
            MARSRegressor(n_knots=0)
        with pytest.raises(ValueError):
            MARSRegressor().fit(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(RuntimeError):
            MARSRegressor().predict(np.zeros((1, 1)))


def _loop_fit(model, x, y):
    """The one-candidate-at-a-time forward step the stacked solve replaced.

    Returns ``(bases, coef)``; raises ``LinAlgError`` on the first
    singular candidate Gram, like the original loop.
    """
    n, d = x.shape
    qs = np.linspace(0.0, 1.0, model.n_knots + 2)[1:-1]
    knots = [np.quantile(x[:, j], qs) for j in range(d)]

    def solve(design):
        gram = design.T @ design + model.ridge * np.eye(design.shape[1])
        return np.linalg.solve(gram, design.T @ y)

    bases = []
    design = np.ones((n, 1))
    coef = solve(design)
    resid = y - design @ coef
    best_gcv = model._gcv(float(resid @ resid), n, 1)
    while len(bases) + 2 <= model.max_terms:
        best = None
        for j in range(d):
            for t in knots[j]:
                pair = [HingeBasis(j, float(t), +1), HingeBasis(j, float(t), -1)]
                if any(b in bases for b in pair):
                    continue
                trial = np.column_stack([design] + [b.evaluate(x) for b in pair])
                c = solve(trial)
                r = y - trial @ c
                gcv = model._gcv(float(r @ r), n, trial.shape[1])
                if best is None or gcv < best[0]:
                    best = (gcv, pair, trial, c)
        if best is None:
            break
        gcv, pair, trial, c = best
        if best_gcv - gcv < model.min_improvement * max(best_gcv, 1e-300):
            break
        bases.extend(pair)
        design, coef, best_gcv = trial, c, gcv
    return bases, coef


class TestStackedForwardStep:
    """The stacked candidate solve equals the per-candidate loop bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(8, 260))
        d = int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        y = np.sin(2.0 * x[:, 0]) + 0.3 * x[:, -1] ** 2 + 0.05 * rng.normal(size=n)
        model = MARSRegressor(
            max_terms=int(rng.integers(2, 15)),
            n_knots=int(rng.integers(1, 9)),
            min_improvement=float(rng.choice([0.0, 1e-4, 1e-2])),
        )
        bases, coef = _loop_fit(model, x, y)
        model.fit(x, y)
        assert model.bases_ == bases
        assert np.array_equal(model.coef_, coef)

    def test_duplicate_knots_are_used_once(self):
        # a discrete feature repeats quantile knots: the equal pair must
        # drop out of the candidates once it is in the model
        rng = np.random.default_rng(5)
        x = np.column_stack([rng.integers(0, 3, 120).astype(float), rng.normal(size=120)])
        y = np.maximum(x[:, 0] - 1.0, 0.0) + 0.1 * x[:, 1]
        model = MARSRegressor(max_terms=12, n_knots=9, min_improvement=0.0)
        bases, coef = _loop_fit(model, x, y)
        model.fit(x, y)
        assert model.bases_ == bases
        assert np.array_equal(model.coef_, coef)

    def test_singular_gram_raises_like_the_loop(self):
        # a constant feature yields an all-zero hinge column; without the
        # ridge its candidate Gram is exactly singular
        rng = np.random.default_rng(6)
        x = np.column_stack([rng.normal(size=40), np.full(40, 2.0)])
        y = x[:, 0] ** 2
        model = MARSRegressor(ridge=0.0)
        with pytest.raises(np.linalg.LinAlgError):
            _loop_fit(model, x, y)
        with pytest.raises(np.linalg.LinAlgError):
            model.fit(x, y)


def _same_fit(model, bases, coef):
    """Bases equal feature, sign and knot bits (a NaN knot included) and
    coefficients equal, NaN to NaN (a NaN's sign bit comes out of
    LAPACK and differs between a stacked and a 2-D solve)."""
    got = [(b.feature, b.sign) for b in model.bases_]
    assert got == [(b.feature, b.sign) for b in bases]
    knots = np.array([b.knot for b in model.bases_])
    want = np.array([b.knot for b in bases])
    assert knots.tobytes() == want.tobytes()
    assert np.array_equal(model.coef_, coef, equal_nan=True)


class TestArrayBookkeeping:
    """The knot table, candidate mask and GCV pick as arrays equal the
    loop's per-feature quantiles, ``any()`` scan and running minimum."""

    def _both(self, x, y, **settings):
        model = MARSRegressor(min_improvement=0.0, **settings)
        with np.errstate(all="ignore"):
            bases, coef = _loop_fit(model, x, y)
            model.fit(x, y)
        _same_fit(model, bases, coef)
        return model

    def test_nan_gcv_at_index_zero_wins(self):
        # a NaN in feature 0 makes its knots and hinge columns NaN: the
        # first candidates' GCVs are NaN and, at index 0, nothing
        # displaces them; a NaN knot never leaves the candidates
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 3))
        y = np.sin(x[:, 0]) + x[:, 2] ** 2
        x[5, 0] = np.nan
        model = self._both(x, y, max_terms=8)
        assert model.n_terms == 8
        assert all(np.isnan(b.knot) for b in model.bases_)

    def test_nan_gcv_mid_array_never_wins(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 3))
        y = np.sin(x[:, 0]) + x[:, 2] ** 2
        x[5, 1] = np.nan
        model = self._both(x, y, max_terms=8)
        assert model.n_terms == 8
        assert not any(np.isnan(b.knot) for b in model.bases_)
        assert {b.feature for b in model.bases_} <= {0, 2}

    def test_tied_knots(self):
        # a 3-level feature repeats its quantile knots: every tie leaves
        # the candidates with the pair that used it
        rng = np.random.default_rng(8)
        x = np.column_stack(
            [rng.integers(0, 3, 90).astype(float), rng.normal(size=90)]
        )
        y = np.abs(x[:, 0] - 1.0) + np.maximum(x[:, 1], 0.0)
        model = self._both(x, y, max_terms=14, n_knots=9)
        assert model.n_terms > 2

    def test_constant_column(self):
        # all of a constant feature's candidates tie (all-zero hinges)
        rng = np.random.default_rng(9)
        x = np.column_stack([np.full(70, -0.0), rng.normal(size=70), np.full(70, 3.5)])
        y = np.maximum(x[:, 1] - 0.2, 0.0) + 0.01 * rng.normal(size=70)
        self._both(x, y, max_terms=10)

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_columns(self, seed):
        rng = np.random.default_rng(200 + seed)
        n, d = int(rng.integers(8, 120)), int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        x[:, rng.integers(d)] = rng.integers(0, 2, n)
        x[:, rng.integers(d)] = 1.25
        y = np.cos(x[:, 0]) + 0.1 * rng.normal(size=n)
        self._both(x, y, max_terms=int(rng.integers(2, 15)), n_knots=int(rng.integers(1, 9)))
