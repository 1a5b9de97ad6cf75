"""Tests for repro.testgen.optimizer (end-to-end stimulus optimization).

Uses the cheap behavioral device family so the whole GA loop runs in
seconds.
"""

import dataclasses

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.lna import LNA900, lna_parameter_space
from repro.circuits.parameters import ParameterSpace, ProcessParameter
from repro.loadboard.signature_path import (
    SignaturePathConfig,
    envelope_coefficients,
    overdrive_ratios,
)
from repro.circuits.nonlinear import PolynomialNonlinearity
from repro.testgen.genetic import GAConfig
from repro.testgen.objective import signature_test_objective
from repro.regression.metrics import first_minimum
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
    finite-difference devices, and reads the weakest device's overdrive
    from its polynomial and the board's peak drive."""

    def signature_matrix(self, stimulus):
        star = difference_star(self.space, self.rel_step, central=True)
        signatures = self.board.signature_batch(
            [self.device_factory(p) for p in star], stimulus
        )
        a_s, _ = star_jacobian(signatures, self.space, self.rel_step, central=True)
        return a_s * self.space.fractional_std_vector()[None, :]

    def overdrive_ratio(self, stimulus):
        coeffs = envelope_coefficients([self._find_weakest_device()])
        return overdrive_ratios(coeffs, self.board.peak_drive(stimulus))[0]

    def objective_batch(self, genes):
        # one gene at a time through the overrides above
        values = []
        for gene in genes:
            stimulus = self.encoding.decode(gene)
            penalty = 0.0
            excess = self.overdrive_ratio(stimulus) - self.overdrive_margin
            if excess > 0.0:
                penalty = self.overdrive_weight * excess**2
            values.append(
                penalty
                + signature_test_objective(
                    self.performance_matrix(),
                    self.signature_matrix(stimulus),
                    self.sigma_m,
                    self.spec_scales,
                )
            )
        return np.array(values)


class TestCaptureFreeFitness:
    @pytest.mark.parametrize(
        "name", ["tuned", "wideband", "multisite", "bist", "abm"]
    )
    def test_overdrive_ratio_equals_captured_ratio(self, name):
        # the ratio a capture of a lot drives: the weakest corner
        # device's row of the stateless overdrive_ratios, which is the
        # lot's largest
        board_config, board = _scenario_boards()[name]
        opt = make_optimizer(
            board_config=board_config,
            board=board,
            encoding=StimulusEncoding(
                n_breakpoints=8, duration=5e-6, v_limit=0.4
            ),
        )
        weakest = opt._find_weakest_device()
        lot = [factory(opt.space.to_dict(opt.space.nominal_vector())), weakest]
        rng = np.random.default_rng(5)
        genes = [np.full(8, 0.05), np.full(8, 0.4)] + [
            rng.uniform(-0.4, 0.4, 8) for _ in range(3)
        ]
        for gene in genes:
            stim = opt.encoding.decode(gene)
            ratio = opt.overdrive_ratio(stim)
            ratios = overdrive_ratios(
                envelope_coefficients(lot), board.peak_drive(stim)
            )
            assert ratio == ratios[1] == ratios.max()
            assert ratio > 0.0

    @pytest.mark.parametrize("executor", ["serial", "thread:2", "process:2"])
    def test_ga_run_equals_capturing_oracle(self, executor):
        # the behavioral star repeats the nominal polynomial (nf_db moves
        # no coefficient), so each grid also scatters deduplicated rows
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


class TestPickling:
    def test_workers_get_the_optimizer_without_its_pool(self):
        # a used pool holds locks; before, pickling the fitness for a
        # process pool failed and every GA chunk fell back to serial
        import pickle

        from repro.parallel import ThreadExecutor

        with ThreadExecutor(2) as ex:
            ex.map_tasks(abs, [-1, -2])
            opt = make_optimizer(executor=ex)
            clone = pickle.loads(pickle.dumps(opt.objective_batch)).__self__
        assert opt.executor is ex and clone.executor is None
        genes = _random_genes(opt, k=2)
        assert np.array_equal(clone.objective_batch(genes), opt.objective_batch(genes))


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


# ----------------------------------------------------------------------
# one capture per generation against one capture per gene
# ----------------------------------------------------------------------
def _loop_weakest_saturation(opt):
    """The weakest-device scan before it ran on one matrix: one
    polynomial per candidate device, first strict minimum kept."""
    space = opt.space
    candidates = [space.nominal_vector()]
    for name in space.names():
        p = space[name]
        for edge in (p.lower, p.upper):
            vec = space.nominal_vector()
            vec[space.index_of(name)] = edge
            candidates.append(vec)
    candidates.extend(space.sample(np.random.default_rng(987654321), 128))
    best = best_sat = None
    for vec in candidates:
        device = opt.device_factory(space.to_dict(vec))
        sat = PolynomialNonlinearity(*device.envelope_poly()).saturation_amplitude
        if best is None or sat < best_sat:
            best, best_sat = device, sat
    return best_sat


def _per_gene_objective(opt, gene, sat, star):
    """The GA fitness before batching: decode, ``peak_drive``, one
    ``signature_batch`` of the finite-difference star, Eq. 10.

    ``sat`` is the weakest saturation amplitude
    (:func:`_loop_weakest_saturation`) and ``star`` the difference
    star's devices, both stimulus-independent.
    """
    stimulus = opt.encoding.decode(gene)
    ratio = float(opt.board.peak_drive(stimulus) / sat) if np.isfinite(sat) else 0.0
    penalty = 0.0
    excess = ratio - opt.overdrive_margin
    if excess > 0.0:
        penalty = opt.overdrive_weight * excess**2
    signatures = opt.board.signature_batch(star, stimulus)
    a_s, _ = star_jacobian(signatures, opt.space, opt.rel_step, central=True)
    a_s = a_s * opt.space.fractional_std_vector()[None, :]
    return penalty + signature_test_objective(
        opt.performance_matrix(), a_s, opt.sigma_m, opt.spec_scales
    )


def _random_genes(opt, k=24, seed=17):
    lower, upper = opt.encoding.bounds()
    return np.random.default_rng(seed).uniform(lower, upper, size=(k, len(lower)))


def _assert_batch_equals_loop(make, k=24):
    """``objective_batch`` of ``k`` random genes vs the per-gene loop,
    each on its own optimizer (and board)."""
    batched = make()
    genes = _random_genes(batched, k)
    values = batched.objective_batch(genes)
    single = make()
    sat = _loop_weakest_saturation(single)
    star = [
        single.device_factory(p)
        for p in difference_star(single.space, single.rel_step, central=True)
    ]
    want = np.array([_per_gene_objective(single, g, sat, star) for g in genes])
    assert values.shape == (len(genes),)
    assert np.array_equal(values, want)


class TestObjectiveBatch:
    def test_lna(self):
        from repro.loadboard.signature_path import simulation_config

        config = simulation_config()
        _assert_batch_equals_loop(
            lambda: SignatureStimulusOptimizer(
                board_config=config,
                device_factory=LNA900,
                space=lna_parameter_space(),
                encoding=StimulusEncoding(16, config.capture_seconds, 0.4),
                rel_step=0.03,
            )
        )

    def test_rf2401_behavioral_factory(self):
        from repro.experiments.hardware import (
            _deterministic,
            rf2401_device,
            rf2401_family_space,
        )
        from repro.loadboard.signature_path import hardware_config

        # the hardware path at a tenth of its capture (2,000-sample rows,
        # eight to a block, so stars still straddle blocks) and drives
        # that stay mostly below fold-back, where the quadrature is cheap
        config = dataclasses.replace(
            _deterministic(hardware_config()), capture_seconds=5e-4
        )
        _assert_batch_equals_loop(
            lambda: SignatureStimulusOptimizer(
                board_config=config,
                device_factory=rf2401_device,
                space=rf2401_family_space(),
                encoding=StimulusEncoding(16, config.capture_seconds, 0.15),
                rel_step=0.03,
            )
        )

    @pytest.mark.parametrize(
        "name, k", [("tuned", 24), ("wideband", 24), ("multisite", 8), ("bist", 8), ("abm", 8)]
    )
    def test_scenario_boards(self, name, k):
        # the multi-site, BIST and ABM grids are comprehensions over the
        # board's own signature_batch, so a shorter batch covers them
        def make():
            board_config, board = _scenario_boards()[name]
            return make_optimizer(board_config=board_config, board=board)

        _assert_batch_equals_loop(make, k)

    @pytest.mark.parametrize("executor", ["serial", "thread:2", "process:2"])
    def test_pooled_chunks_equal_the_loop(self, executor):
        # the GA maps objective_batch over chunks of a generation: every
        # backend's chunk values join to the per-gene loop bit for bit
        from repro.parallel import get_executor

        single = make_optimizer()
        genes = _random_genes(single, k=10)
        sat = _loop_weakest_saturation(single)
        star = [
            single.device_factory(p)
            for p in difference_star(single.space, single.rel_step, central=True)
        ]
        want = np.array([_per_gene_objective(single, g, sat, star) for g in genes])
        opt = make_optimizer()
        opt.performance_matrix()
        opt._find_weakest_device()
        opt._fd_star()
        with get_executor(executor) as ex:
            chunks = ex.map_tasks(
                opt.objective_batch, [genes[:3], genes[3:4], genes[4:]], chunksize=1
            )
        assert np.array_equal(np.concatenate(chunks), want)

    def test_objective_is_a_batch_of_one(self):
        opt = make_optimizer()
        genes = _random_genes(opt, k=3)
        values = opt.objective_batch(genes)
        assert [opt.objective(g) for g in genes] == values.tolist()

    def test_signature_matrix_is_a_batch_of_one(self):
        opt = make_optimizer()
        stims = [opt.encoding.decode(g) for g in _random_genes(opt, k=3)]
        batch, peaks = opt._signature_matrices(stims)
        for stim, a_s, peak in zip(stims, batch, peaks):
            assert np.array_equal(opt.signature_matrix(stim), a_s)
            assert peak == opt.board.peak_drive(stim)


class TestWeakestDeviceScan:
    @pytest.mark.parametrize(
        "values, want",
        [
            ([3.0, 1.0, 2.0, 1.0], 1),
            ([np.nan, 1.0, 0.5], 0),
            ([2.0, np.nan, 1.0, np.nan], 2),
            ([np.inf, np.inf], 0),
            ([np.inf, np.nan, np.inf], 0),
            ([np.inf, 5.0, np.nan, 5.0], 1),
            ([np.nan, np.nan], 0),
        ],
    )
    def test_first_minimum_matches_the_loop(self, values, want):
        best = 0
        for i, v in enumerate(values):
            if v < values[best]:
                best = i
        assert best == want
        assert first_minimum(np.array(values)) == want

    @pytest.mark.parametrize(
        "factory_name", ["behavioral", "lna", "linear_lna"]
    )
    def test_scan_equals_polynomial_loop(self, factory_name):
        kw = {
            "behavioral": {},
            "lna": dict(device_factory=LNA900, space=lna_parameter_space()),
            "linear_lna": dict(device_factory=LinearLNA, space=lna_parameter_space()),
        }[factory_name]
        opt = make_optimizer(**kw)
        opt._find_weakest_device()
        want = _loop_weakest_saturation(opt)
        got = opt._weakest_saturation
        assert got == want or (np.isinf(got) and np.isinf(want))
