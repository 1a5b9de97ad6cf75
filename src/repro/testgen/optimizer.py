"""End-to-end stimulus optimization (Section 3.1).

:class:`SignatureStimulusOptimizer` wires the whole test-generation loop
together:

1. ``A_p`` is estimated once from the device model.
2. For each candidate gene, the PWL stimulus is decoded, the signature
   sensitivity ``A_s`` is estimated by noise-free finite differences
   through the load-board simulation, and the objective
   ``F = mean(sigma_p,i^2 + sigma_m^2 ||a_i||^2)`` is evaluated -- for
   a whole GA generation at once, its finite-difference stars captured
   together (:meth:`SignatureStimulusOptimizer.objective_batch`).
3. A genetic algorithm evolves the breakpoints for a handful of
   generations (five in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.device import RFDevice
from repro.circuits.nonlinear import saturation_amplitudes
from repro.circuits.parameters import ParameterSpace
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.signature_path import (
    SignaturePathConfig,
    SignatureTestBoard,
    envelope_coefficients,
)
from repro.regression.metrics import first_minimum
from repro.runtime.executor import Executor
from repro.testgen.genetic import GAConfig, GAResult, GeneticAlgorithm
from repro.testgen.mapping import LinearSignatureMap
from repro.testgen.objective import (
    signature_noise_std,
    signature_test_objective_batch,
)
from repro.testgen.pwl import StimulusEncoding
from repro.testgen.sensitivity import difference_star, performance_sensitivity

__all__ = ["OptimizationResult", "SignatureStimulusOptimizer"]

DeviceFactory = Callable[[Dict[str, float]], RFDevice]


@dataclass
class OptimizationResult:
    """Everything the optimization run produced."""

    stimulus: PiecewiseLinearStimulus
    gene: np.ndarray
    objective_value: float
    ga_result: GAResult
    a_p: np.ndarray
    a_s: np.ndarray
    mapping: LinearSignatureMap
    per_spec_error_std: np.ndarray
    sigma_m: float

    def summary(self, spec_names: Sequence[str] = ("gain_db", "nf_db", "iip3_dbm")) -> str:
        """Human-readable report of the predicted per-spec errors."""
        lines = [
            f"objective F = {self.objective_value:.6g} "
            f"(GA improvement {self.ga_result.improvement:.3g}, "
            f"{self.ga_result.evaluations} evaluations)"
        ]
        for name, err in zip(spec_names, self.per_spec_error_std):
            lines.append(f"  predicted std({name}) = {err:.4f}")
        return "\n".join(lines)


class SignatureStimulusOptimizer:
    """Optimizes the PWL baseband stimulus for a DUT family.

    Parameters
    ----------
    board_config:
        Signature-path setup the stimulus will be used with.
    device_factory:
        Builds a DUT instance from a process-parameter dict (e.g.
        ``LNA900``); this is the "simulation netlist" role.  For the
        hardware flow, pass a behavioral-model factory instead -- exactly
        what the paper did when the RF2401 netlist was unavailable.
    space:
        Statistical parameter space of the manufacturing process.
    encoding:
        PWL geometry (breakpoint count, duration, amplitude bound).
    sigma_m:
        Per-component signature noise std; default derives it from the
        digitizer noise and the capture length (Equation 10's noise term).
    signature_bins:
        Number of FFT bins kept as the signature (``None`` = all).
    rel_step:
        Finite-difference perturbation size.
    ga_config:
        Genetic-algorithm settings (defaults: 5 generations, as in the
        paper).
    executor:
        Batch backend (:mod:`repro.parallel`) evaluating each GA
        generation's objective values concurrently; ``None`` = serial.
        The objective is deterministic (noise-free finite differences),
        so the optimized stimulus is backend-independent.
    board:
        Prebuilt capture front end to optimize against instead of a
        fresh ``SignatureTestBoard(board_config)`` -- any object with
        the board surface (``signature`` / ``signature_batch`` /
        ``signature_grid`` / ``peak_drive``), e.g. a
        :class:`~repro.loadboard.sites.MultiSiteBoard` or a
        :class:`~repro.loadboard.scenario_paths.BistSignaturePath`.
        ``board_config`` then only supplies the capture geometry for
        the ``sigma_m`` default and the coupling mode for the
        overdrive margin (scenario configs alias those fields).
    """

    def __init__(
        self,
        board_config: SignaturePathConfig,
        device_factory: DeviceFactory,
        space: ParameterSpace,
        encoding: StimulusEncoding,
        sigma_m: Optional[float] = None,
        signature_bins: Optional[int] = None,
        rel_step: float = 0.05,
        spec_scales: Optional[Sequence[float]] = None,
        ga_config: GAConfig = GAConfig(),
        executor: Optional[Executor] = None,
        board=None,
    ):
        self.board = board if board is not None else SignatureTestBoard(board_config)
        self.device_factory = device_factory
        self.space = space
        self.encoding = encoding
        self.signature_bins = signature_bins
        self.rel_step = rel_step
        self.spec_scales = spec_scales
        self.ga_config = ga_config
        self.executor = executor
        if sigma_m is None:
            n_capture = int(
                round(board_config.capture_seconds * board_config.digitizer_rate)
            )
            sigma_m = signature_noise_std(
                board_config.digitizer_noise_vrms, n_capture
            )
        self.sigma_m = float(sigma_m)
        #: Drive levels above this multiple of the weakest device's
        #: saturation amplitude are penalized.  Tuned paths use the
        #: describing-function DUT model, physical at any drive, so only
        #: absurd levels (deep square-wave clipping, where the signature
        #: stops carrying device information) are discouraged; the
        #: wideband path uses the raw polynomial, which is only valid
        #: below the fold-back point.
        self.overdrive_margin = 0.85 if board_config.dut_coupling == "wideband" else 4.0
        self.overdrive_weight = 1e3
        self._a_p: Optional[np.ndarray] = None
        self._weakest_device: Optional[RFDevice] = None
        self._weakest_saturation = np.inf
        self._star_devices: Optional[List[RFDevice]] = None

    def __getstate__(self):
        # process workers receive the optimizer with every GA chunk; they
        # never dispatch work themselves, and a live pool (its locks and
        # processes) cannot be pickled
        state = self.__dict__.copy()
        state["executor"] = None
        return state

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------
    def performance_matrix(self) -> np.ndarray:
        """``A_p`` in process-sigma units (cached; stimulus-independent).

        Columns are scaled by each parameter's fractional standard
        deviation, so a unit perturbation means "one process sigma" and
        Equation 10's error variances come out directly in spec units.
        """
        if self._a_p is None:
            jac, _ = performance_sensitivity(
                self.device_factory, self.space, self.rel_step
            )
            self._a_p = jac * self.space.fractional_std_vector()[None, :]
        return self._a_p

    def _fd_star(self) -> List[RFDevice]:
        """The central-difference star's devices, built once.

        The star depends only on ``space`` and ``rel_step``, never on the
        stimulus.  :meth:`optimize` builds it before the GA starts, so
        thread executors only read it and process workers receive it
        built.
        """
        if self._star_devices is None:
            self._star_devices = [
                self.device_factory(params)
                for params in difference_star(self.space, self.rel_step, central=True)
            ]
        return self._star_devices

    def _signature_matrices(
        self, stimuli: Sequence[PiecewiseLinearStimulus]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``A_s`` in process-sigma units (an ``(S, m, k)`` stack) and the
        peak drive per stimulus.

        Central differences: the signature path is mildly nonlinear over
        the process range (compression, FFT magnitudes), and forward
        differences leak enough curvature into ``A_s`` to contaminate its
        singular directions.  The difference stars of all the stimuli run
        as one noise-free capture (``board.signature_grid``), which also
        returns each stimulus's peak drive -- this is the GA fitness's
        hot path -- and every star's differences are taken at once, each
        matrix equal to :func:`~repro.testgen.sensitivity.star_jacobian`
        of its star bit for bit.
        """
        grid, peaks = self.board.signature_grid(
            self._fd_star(), stimuli, n_bins=self.signature_bins
        )
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 3 or grid.shape[1] != 1 + 2 * len(self.space):
            raise ValueError("need one signature row per difference-star point")
        # star rows: nominal, then (+step, -step) per parameter
        jac = (grid[:, 1::2] - grid[:, 2::2]) / (2.0 * self.rel_step)
        scale = self.space.fractional_std_vector()[None, :]
        return jac.transpose(0, 2, 1) * scale, np.asarray(peaks, dtype=float)

    def signature_matrix(self, stimulus: PiecewiseLinearStimulus) -> np.ndarray:
        """``A_s`` in process-sigma units for one candidate stimulus."""
        return self._signature_matrices([stimulus])[0][0]

    def _find_weakest_device(self) -> RFDevice:
        """The corner device with the smallest saturation amplitude.

        Scanned over the one-at-a-time parameter band edges, the nominal
        point and a fixed-seed Monte-Carlo sample (multi-parameter worst
        cases are not at the one-at-a-time corners); the drive-level
        penalty is evaluated against this device so the optimized
        stimulus stays inside every device's physical range.  Its
        saturation amplitude is kept too (``inf`` when no scanned device
        saturates; the nominal device is returned then).
        """
        if self._weakest_device is None:
            candidates = [self.space.nominal_vector()]
            for name in self.space.names():
                p = self.space[name]
                for edge in (p.lower, p.upper):
                    vec = self.space.nominal_vector()
                    vec[self.space.index_of(name)] = edge
                    candidates.append(vec)
            scan_rng = np.random.default_rng(987654321)
            candidates.extend(self.space.sample(scan_rng, 128))
            devices = [
                self.device_factory(self.space.to_dict(vec)) for vec in candidates
            ]
            sat = saturation_amplitudes(envelope_coefficients(devices))
            best = first_minimum(sat)
            self._weakest_saturation = sat[best]
            self._weakest_device = devices[best]
        return self._weakest_device

    def _overdrive_ratios(self, peaks: np.ndarray) -> np.ndarray:
        """:meth:`overdrive_ratio` for each stimulus peak drive in ``peaks``."""
        self._find_weakest_device()
        if not np.isfinite(self._weakest_saturation):
            return np.zeros(len(peaks))
        return peaks / self._weakest_saturation

    def overdrive_ratio(self, stimulus: PiecewiseLinearStimulus) -> float:
        """Peak drive / saturation amplitude for the weakest corner device.

        The weakest device's row of
        ``overdrive_ratios(envelope_coefficients(devices), board.peak_drive(stimulus))``,
        without capturing; 0.0 when the saturation amplitude is not
        finite, as in :func:`~repro.loadboard.signature_path.overdrive_ratios`.
        """
        peak = np.array([self.board.peak_drive(stimulus)], dtype=float)
        return float(self._overdrive_ratios(peak)[0])

    def objective_batch(self, genes: np.ndarray) -> np.ndarray:
        """GA fitness of a ``(k, n_genes)`` batch: Equation 10 per gene.

        Each value is the mean error variance of its gene's stimulus
        plus a quadratic penalty that keeps the drive level below
        ``overdrive_margin`` of the weakest device's saturation
        amplitude, where the cubic DUT model stops being physical.  All
        ``k`` stimuli share one ``board.signature_grid`` capture, which
        also returns their peak drives, and one stacked Eq. 10 solve
        (:func:`~repro.testgen.objective.signature_test_objective_batch`);
        value ``j`` equals :meth:`objective` of ``genes[j]`` bit for bit.
        """
        stimuli = [self.encoding.decode(gene) for gene in genes]
        a_s, peaks = self._signature_matrices(stimuli)
        excess = self._overdrive_ratios(peaks) - self.overdrive_margin
        penalty = np.where(excess > 0.0, self.overdrive_weight * excess**2, 0.0)
        return penalty + signature_test_objective_batch(
            self.performance_matrix(), a_s, self.sigma_m, self.spec_scales
        )

    def objective(self, gene: np.ndarray) -> float:
        """GA fitness of one gene (:meth:`objective_batch` of one)."""
        return float(self.objective_batch(np.asarray(gene, dtype=float)[None, :])[0])

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def optimize(self, rng: np.random.Generator) -> OptimizationResult:
        """Run the GA and package the winning stimulus with diagnostics."""
        lower, upper = self.encoding.bounds()
        # the stimulus-independent pieces, built before any fitness call
        # so concurrent evaluations only read them
        self.performance_matrix()
        self._find_weakest_device()
        self._fd_star()
        ga = GeneticAlgorithm(
            self.objective_batch, lower, upper, config=self.ga_config, rng=rng,
            executor=self.executor,
        )
        seeds = self.encoding.seed_genes(rng)
        result = ga.run(initial_population=seeds)

        stimulus = self.encoding.decode(result.best_gene)
        a_p = self.performance_matrix()
        a_s = self.signature_matrix(stimulus)
        a_p_scaled = a_p
        if self.spec_scales is not None:
            a_p_scaled = a_p / np.asarray(self.spec_scales, dtype=float)[:, None]
        mapping = LinearSignatureMap.from_sensitivities(
            a_p_scaled, a_s, sigma_m=self.sigma_m
        )
        variances = mapping.total_error_variances(self.sigma_m)
        return OptimizationResult(
            stimulus=stimulus,
            gene=result.best_gene,
            objective_value=result.best_fitness,
            ga_result=result,
            a_p=a_p,
            a_s=a_s,
            mapping=mapping,
            per_spec_error_std=np.sqrt(variances),
            sigma_m=self.sigma_m,
        )
