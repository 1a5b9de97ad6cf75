"""Signature-test generation: the paper's core contribution (Section 3).

The test-generation flow:

1. Estimate the performance sensitivity matrix ``A_p`` (specs vs process
   parameters) once (:mod:`repro.testgen.sensitivity`).
2. For a candidate stimulus, estimate the signature sensitivity ``A_s``.
3. Solve ``A = A_p A_s^+`` in the least-squares sense via SVD
   (:mod:`repro.testgen.mapping`, Equations 8-9) and evaluate the total
   per-spec prediction-error variance including the measurement-noise
   term (:mod:`repro.testgen.objective`, Equation 10).
4. Minimize the resulting objective over the PWL stimulus breakpoints
   with a genetic algorithm (:mod:`repro.testgen.genetic`,
   :mod:`repro.testgen.optimizer`).
"""

from repro.testgen.sensitivity import (
    finite_difference_jacobian,
    performance_sensitivity,
    signature_sensitivity,
)
from repro.testgen.mapping import LinearSignatureMap
from repro.testgen.objective import (
    prediction_error_variances,
    signature_test_objective,
    signature_test_objective_batch,
    signature_noise_std,
)
from repro.testgen.genetic import GAConfig, GAResult, GeneticAlgorithm
from repro.testgen.pwl import StimulusEncoding
from repro.testgen.multitone import MultitoneEncoding, MultitoneStimulus
from repro.testgen.screening import ScreeningReport, screen_parameters
from repro.testgen.optimizer import (
    OptimizationResult,
    SignatureStimulusOptimizer,
)

__all__ = [
    "finite_difference_jacobian",
    "performance_sensitivity",
    "signature_sensitivity",
    "LinearSignatureMap",
    "prediction_error_variances",
    "signature_test_objective",
    "signature_test_objective_batch",
    "signature_noise_std",
    "GAConfig",
    "GAResult",
    "GeneticAlgorithm",
    "StimulusEncoding",
    "MultitoneEncoding",
    "MultitoneStimulus",
    "ScreeningReport",
    "screen_parameters",
    "OptimizationResult",
    "SignatureStimulusOptimizer",
]
