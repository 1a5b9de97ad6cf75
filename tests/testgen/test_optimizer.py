"""Tests for repro.testgen.optimizer (end-to-end stimulus optimization).

Uses the cheap behavioral device family so the whole GA loop runs in
seconds.
"""

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.lna import LNA900, lna_parameter_space
from repro.circuits.parameters import ParameterSpace, ProcessParameter
from repro.loadboard.signature_path import SignaturePathConfig
from repro.testgen.genetic import GAConfig
from repro.testgen.optimizer import SignatureStimulusOptimizer
from repro.testgen.pwl import StimulusEncoding
from repro.testgen.sensitivity import difference_star, star_jacobian


def behavioral_space():
    return ParameterSpace(
        [
            ProcessParameter("gain_db", 16.0, 0.08),
            ProcessParameter("nf_db", 2.5, 0.10),
            ProcessParameter("iip3_dbm", 3.0, 0.10),
        ]
    )


def factory(params):
    return BehavioralAmplifier(
        center_frequency=900e6,
        gain_db=params["gain_db"],
        nf_db=params["nf_db"],
        iip3_dbm=params["iip3_dbm"],
    )


def small_config():
    return SignaturePathConfig(
        digitizer_noise_vrms=1e-3,
        digitizer_bits=None,
        capture_seconds=5e-6,
        include_device_noise=False,
    )


def make_optimizer(**kw):
    defaults = dict(
        board_config=small_config(),
        device_factory=factory,
        space=behavioral_space(),
        encoding=StimulusEncoding(n_breakpoints=8, duration=5e-6, v_limit=0.4),
        ga_config=GAConfig(population_size=8, generations=2),
        rel_step=0.03,
    )
    defaults.update(kw)
    return SignatureStimulusOptimizer(**defaults)


class TestPieces:
    def test_performance_matrix_in_sigma_units(self):
        opt = make_optimizer()
        a_p = opt.performance_matrix()
        assert a_p.shape == (3, 3)
        # gain spec responds one-for-one to the gain parameter: in sigma
        # units the (0,0) entry is the parameter's own sigma in dB
        sigma_gain = 16.0 * 0.08 / np.sqrt(3.0)
        assert a_p[0, 0] == pytest.approx(sigma_gain, rel=0.02)
        # NF parameter cannot move the gain spec
        assert a_p[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_sigma_m_derived_from_board(self):
        opt = make_optimizer()
        n = int(round(5e-6 * 20e6))
        assert opt.sigma_m == pytest.approx(1e-3 * np.sqrt(2.0 / n))

    def test_signature_matrix_shape(self):
        opt = make_optimizer()
        stim = opt.encoding.decode(np.full(8, 0.2))
        a_s = opt.signature_matrix(stim)
        assert a_s.shape[1] == 3
        assert np.linalg.norm(a_s[:, 0]) > 0  # gain observable

    def test_overdrive_ratio_monotone_in_amplitude(self):
        opt = make_optimizer()
        weak = opt.overdrive_ratio(opt.encoding.decode(np.full(8, 0.05)))
        strong = opt.overdrive_ratio(opt.encoding.decode(np.full(8, 0.4)))
        assert strong > weak > 0

    def test_objective_finite(self):
        opt = make_optimizer()
        f = opt.objective(np.full(8, 0.2))
        assert np.isfinite(f)
        assert f >= 0


class TestOptimization:
    def test_full_run(self):
        opt = make_optimizer()
        result = opt.optimize(np.random.default_rng(0))
        assert result.objective_value >= 0
        assert result.stimulus.n_breakpoints == 8
        assert result.per_spec_error_std.shape == (3,)
        assert result.mapping.rank >= 1
        assert "predicted std" in result.summary()

    def test_behavioral_family_fully_observable(self):
        # gain and iip3 are directly observable; their predicted errors
        # must be far below the raw spec spreads
        opt = make_optimizer(ga_config=GAConfig(population_size=8, generations=2))
        result = opt.optimize(np.random.default_rng(1))
        gain_sigma = 16.0 * 0.08 / np.sqrt(3)
        assert result.per_spec_error_std[0] < 0.2 * gain_sigma

    def test_reproducible(self):
        r1 = make_optimizer().optimize(np.random.default_rng(7))
        r2 = make_optimizer().optimize(np.random.default_rng(7))
        assert np.array_equal(r1.gene, r2.gene)
        assert r1.objective_value == r2.objective_value

    def test_wideband_margin_tighter_than_tuned(self):
        tuned = make_optimizer()
        wideband_cfg = small_config()
        wideband_cfg.dut_coupling = "wideband"
        wideband = make_optimizer(board_config=wideband_cfg)
        assert wideband.overdrive_margin < tuned.overdrive_margin

    def test_overdrive_penalty_applies_in_wideband(self):
        cfg = small_config()
        cfg.dut_coupling = "wideband"
        opt = make_optimizer(board_config=cfg)
        hot = opt.objective(np.full(8, 0.4))
        # the same drive is legal for the tuned path
        cool = make_optimizer().objective(np.full(8, 0.4))
        assert hot > cool + 1.0


class TestScenarioBoards:
    """The optimizer accepts a prebuilt scenario board via ``board=``."""

    def test_bist_path_optimizes(self):
        from repro.loadboard.scenario_paths import (
            BistPathConfig,
            BistSignaturePath,
        )

        cfg = BistPathConfig(adc_noise_vrms=1e-3, include_device_noise=False)
        path = BistSignaturePath(cfg)
        opt = make_optimizer(
            board_config=cfg,
            board=path,
            encoding=StimulusEncoding(
                n_breakpoints=8, duration=cfg.capture_seconds, v_limit=0.4
            ),
        )
        assert opt.board is path
        # sigma_m sizes from the BIST aliases (adc rate / noise)
        n = int(round(cfg.capture_seconds * cfg.adc_rate))
        assert opt.sigma_m == pytest.approx(1e-3 * np.sqrt(2.0 / n))
        result = opt.optimize(np.random.default_rng(0))
        assert np.isfinite(result.objective_value)
        assert result.per_spec_error_std.shape == (3,)

    def test_multisite_board_optimizes(self):
        from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig

        cfg = small_config()
        board = MultiSiteBoard(cfg, MultiSiteConfig(n_sites=2))
        opt = make_optimizer(board_config=cfg, board=board)
        assert opt.board is board
        result = opt.optimize(np.random.default_rng(0))
        assert np.isfinite(result.objective_value)

    def test_default_board_unchanged(self):
        from repro.loadboard.signature_path import SignatureTestBoard

        assert isinstance(make_optimizer().board, SignatureTestBoard)


# ----------------------------------------------------------------------
# the capture-free fitness loop against the capturing oracle
# ----------------------------------------------------------------------
def _scenario_boards():
    """(board_config, board) for every board surface the optimizer drives."""
    from repro.loadboard.scenario_paths import (
        AbmAccessPath,
        AbmPathConfig,
        BistPathConfig,
        BistSignaturePath,
    )
    from repro.loadboard.signature_path import SignatureTestBoard
    from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig

    tuned = small_config()
    wideband = small_config()
    wideband.dut_coupling = "wideband"
    bist = BistPathConfig(adc_noise_vrms=1e-3, include_device_noise=False)
    abm = AbmAccessPath(AbmPathConfig(base=small_config()))
    sites = MultiSiteConfig(
        n_sites=3, crosstalk_coupling=0.01, site_loss_skew_db=[0.5, 0.0, 1.0]
    )
    return {
        "tuned": (tuned, SignatureTestBoard(tuned)),
        "wideband": (wideband, SignatureTestBoard(wideband)),
        "multisite": (tuned, MultiSiteBoard(tuned, sites)),
        "bist": (bist, BistSignaturePath(bist)),
        "abm": (abm.config, abm),
    }


class CaptureOracleOptimizer(SignatureStimulusOptimizer):
    """The fitness loop the long way: every evaluation rebuilds the
    finite-difference devices and captures the weakest device to read
    its overdrive ratio off the board."""

    def signature_matrix(self, stimulus):
        star = difference_star(self.space, self.rel_step, central=True)
        signatures = self.board.signature_batch(
            [self.device_factory(p) for p in star],
            stimulus,
            rng=None,
            n_bins=self.signature_bins,
        )
        a_s, _ = star_jacobian(signatures, self.space, self.rel_step, central=True)
        return a_s * self.space.fractional_std_vector()[None, :]

    def overdrive_ratio(self, stimulus):
        self.board.capture(self._find_weakest_device(), stimulus, rng=None)
        ratio, _ = self.board.overdrive_snapshot()
        return ratio


class TestCaptureFreeFitness:
    @pytest.mark.parametrize(
        "name", ["tuned", "wideband", "multisite", "bist", "abm"]
    )
    def test_overdrive_ratio_equals_captured_ratio(self, name):
        board_config, board = _scenario_boards()[name]
        opt = make_optimizer(
            board_config=board_config,
            board=board,
            encoding=StimulusEncoding(
                n_breakpoints=8, duration=5e-6, v_limit=0.4
            ),
        )
        weakest = opt._find_weakest_device()
        rng = np.random.default_rng(5)
        genes = [np.full(8, 0.05), np.full(8, 0.4)] + [
            rng.uniform(-0.4, 0.4, 8) for _ in range(3)
        ]
        for gene in genes:
            stim = opt.encoding.decode(gene)
            ratio = opt.overdrive_ratio(stim)
            board.capture(weakest, stim, rng=None)
            assert ratio == board.overdrive_snapshot()[0]
            assert ratio > 0.0

    @pytest.mark.parametrize("executor", ["serial", "thread:2"])
    def test_ga_run_equals_capturing_oracle(self, executor):
        from repro.parallel import get_executor

        oracle = CaptureOracleOptimizer(
            board_config=small_config(),
            device_factory=factory,
            space=behavioral_space(),
            encoding=StimulusEncoding(n_breakpoints=8, duration=5e-6, v_limit=0.4),
            ga_config=GAConfig(population_size=8, generations=2),
            rel_step=0.03,
        ).optimize(np.random.default_rng(3))
        with get_executor(executor) as ex:
            fast = make_optimizer(executor=ex).optimize(np.random.default_rng(3))
        assert np.array_equal(fast.gene, oracle.gene)
        assert fast.objective_value == oracle.objective_value
        assert fast.ga_result.history == oracle.ga_result.history
        assert np.array_equal(fast.a_s, oracle.a_s)


class LinearLNA(LNA900):
    """An LNA family with no compression: nothing ever saturates."""

    def envelope_poly(self):
        a1, _, _ = super().envelope_poly()
        return a1, 0.0, 0.0


class TestNonSaturatingFamily:
    def test_overdrive_ratio_is_zero(self):
        opt = make_optimizer(
            device_factory=LinearLNA, space=lna_parameter_space()
        )
        stim = opt.encoding.decode(np.full(8, 0.4))
        assert opt.overdrive_ratio(stim) == 0.0
        # no penalty: the fitness is Equation 10 alone
        assert np.isfinite(opt.objective(np.full(8, 0.4)))
