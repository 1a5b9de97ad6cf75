"""Tests for repro.testgen.objective (Equation 10)."""

import numpy as np
import pytest

from repro.dsp.spectral import fft_magnitude_signature
from repro.dsp.waveform import Waveform
from repro.testgen.mapping import LinearSignatureMap
from repro.testgen.objective import (
    prediction_error_variances,
    signature_noise_std,
    signature_test_objective,
    signature_test_objective_batch,
)


class TestSignatureNoiseStd:
    def test_formula(self):
        assert signature_noise_std(1e-3, 100) == pytest.approx(
            1e-3 * np.sqrt(2.0 / 100)
        )

    def test_monte_carlo_agreement(self):
        # empirical per-bin noise std of the FFT-magnitude signature of a
        # signal-plus-noise record matches the formula in signal bins
        rng = np.random.default_rng(0)
        n = 256
        fs = 1e6
        t = np.arange(n) / fs
        clean = 0.5 * np.sin(2 * np.pi * 62.5e3 * t)  # bin 16, coherent
        sigma = 5e-3
        sigs = []
        for _ in range(400):
            rec = Waveform(clean + rng.normal(0, sigma, n), fs)
            sigs.append(fft_magnitude_signature(rec))
        sigs = np.array(sigs)
        measured = sigs[:, 16].std()
        assert measured == pytest.approx(signature_noise_std(sigma, n), rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            signature_noise_std(-1.0, 10)
        with pytest.raises(ValueError):
            signature_noise_std(1.0, 0)


class TestObjective:
    def _system(self):
        rng = np.random.default_rng(1)
        a_s = rng.normal(size=(10, 4))
        a_p = rng.normal(size=(3, 4))
        return a_p, a_s

    def test_mean_of_variances(self):
        a_p, a_s = self._system()
        var = prediction_error_variances(a_p, a_s, sigma_m=0.01)
        assert signature_test_objective(a_p, a_s, 0.01) == pytest.approx(var.mean())

    def test_zero_for_perfectly_explained_noise_free(self):
        rng = np.random.default_rng(2)
        a_s = rng.normal(size=(6, 4))
        a_p = rng.normal(size=(3, 6)) @ a_s
        assert signature_test_objective(a_p, a_s, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_noise_raises_objective(self):
        a_p, a_s = self._system()
        f0 = signature_test_objective(a_p, a_s, 0.0)
        f1 = signature_test_objective(a_p, a_s, 0.1)
        assert f1 > f0

    def test_more_sensitive_signature_wins(self):
        # scaling A_s up (stronger signature response per process sigma)
        # lowers the noise term and therefore the objective
        a_p, a_s = self._system()
        weak = signature_test_objective(a_p, a_s, 0.05)
        strong = signature_test_objective(a_p, 10.0 * a_s, 0.05)
        assert strong < weak

    def test_spec_scales(self):
        a_p, a_s = self._system()
        scaled = prediction_error_variances(
            a_p, a_s, 0.01, spec_scales=[2.0, 1.0, 1.0]
        )
        unscaled = prediction_error_variances(a_p, a_s, 0.01)
        # halving the first spec's scale divides its variance by ~4
        assert scaled[0] == pytest.approx(unscaled[0] / 4.0, rel=0.5)

    def test_spec_scales_validation(self):
        a_p, a_s = self._system()
        with pytest.raises(ValueError):
            prediction_error_variances(a_p, a_s, 0.01, spec_scales=[1.0])
        with pytest.raises(ValueError):
            prediction_error_variances(a_p, a_s, 0.01, spec_scales=[1.0, -1.0, 1.0])


class TestObjectiveBatch:
    """The stacked Eq. 10 against the per-matrix ``signature_test_objective``."""

    @staticmethod
    def _assert_equals_loop(a_p, a_s, sigma_m, spec_scales=None, rcond=1e-10):
        got = signature_test_objective_batch(a_p, a_s, sigma_m, spec_scales, rcond)
        want = [
            signature_test_objective(a_p, m, sigma_m, spec_scales, rcond) for m in a_s
        ]
        assert got.shape == (len(a_s),)
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("m, k", [(40, 6), (5, 9), (12, 1)])
    def test_random_stacks(self, m, k):
        rng = np.random.default_rng(m * k)
        a_p = rng.normal(size=(3, k))
        a_s = rng.normal(size=(24, m, k)) * 10.0 ** rng.uniform(-3, 1, (24, 1, 1))
        for sigma_m in (0.0, 1e-3, 0.3):
            self._assert_equals_loop(a_p, a_s, sigma_m)

    def test_one_gene(self):
        rng = np.random.default_rng(1)
        a_p, a_s = rng.normal(size=(3, 4)), rng.normal(size=(1, 30, 4))
        got = self._assert_equals_loop(a_p, a_s, 0.01)
        assert got[0] == signature_test_objective(a_p, a_s[0], 0.01)

    def test_zero_sensitivity_gene(self):
        # s[0] == 0: the signature explains nothing and amplifies nothing
        rng = np.random.default_rng(2)
        a_p = rng.normal(size=(3, 4))
        a_s = rng.normal(size=(3, 20, 4))
        a_s[1] = 0.0
        got = self._assert_equals_loop(a_p, a_s, 0.05)
        assert got[1] == pytest.approx(np.mean(np.sum(a_p**2, axis=1)))

    def test_no_signature_components(self):
        a_p = np.arange(6.0).reshape(3, 2)
        self._assert_equals_loop(a_p, np.zeros((2, 0, 2)), 0.1)

    def test_rank_truncated_by_rcond(self):
        # two directions sit below rcond * s_max and are never inverted
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.normal(size=(30, 4)))
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        a_s = np.stack([u @ np.diag([1.0, 0.5, 1e-13, 1e-14]) @ v.T, u @ v.T])
        a_p = rng.normal(size=(3, 4))
        mapping = LinearSignatureMap.from_sensitivities(
            a_p, a_s[0], sigma_m=0.0, rcond=1e-10
        )
        assert mapping.rank == 2
        self._assert_equals_loop(a_p, a_s, 0.0)
        self._assert_equals_loop(a_p, a_s, 1e-3, rcond=1e-3)

    def test_default_map_uses_the_fitness_rank_floor(self):
        # the Eq. 10 minimum inverts a direction at 1e-9 of s_max: the
        # packaged map's default floor must admit it as the fitness's does
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        a_s = u @ np.diag([1.0, 1e-9]) @ v.T
        a_p = np.ones((1, 2)) @ v.T
        sigma_m = 1e-12
        mapping = LinearSignatureMap.from_sensitivities(a_p, a_s, sigma_m=sigma_m)
        assert mapping.rank == 2
        assert mapping.total_error_variances(sigma_m).mean() == (
            signature_test_objective_batch(a_p, a_s[None], sigma_m)[0]
        )

    def test_spec_scales(self):
        rng = np.random.default_rng(4)
        a_p, a_s = rng.normal(size=(3, 5)), rng.normal(size=(6, 25, 5))
        scaled = self._assert_equals_loop(a_p, a_s, 0.02, spec_scales=[1.0, 0.5, 4.0])
        assert not np.array_equal(scaled, signature_test_objective_batch(a_p, a_s, 0.02))
        with pytest.raises(ValueError, match="one entry per spec"):
            signature_test_objective_batch(a_p, a_s, 0.02, spec_scales=[1.0])

    def test_rejects_a_matrix(self):
        with pytest.raises(ValueError, match="stack"):
            signature_test_objective_batch(np.ones((3, 2)), np.ones((5, 2)), 0.1)
