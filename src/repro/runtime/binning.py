"""Binning quality analysis and guard-banding.

Signature-test pass/fail decisions are made on *predicted* specs, so
prediction error turns into two economic quantities:

* **test escapes** -- truly bad devices binned as good (they reach the
  customer; the expensive error);
* **yield loss** -- truly good devices binned as bad (they are thrown
  away; the cheap error).

Guard-banding trades one for the other: tightening each limit by
``k * sigma_err`` (the calibration's validation error for that spec)
moves escapes toward zero at the cost of extra yield loss.  This module
computes the confusion statistics and sweeps the guard-band factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.device import SpecSet
from repro.runtime.specs import SpecificationLimit, SpecificationLimits

__all__ = ["BinningReport", "confusion", "guard_banded_limits", "sweep_guard_band"]


@dataclass(frozen=True)
class BinningReport:
    """Confusion statistics of one binning run."""

    n_devices: int
    true_pass: int
    true_fail: int
    escapes: int  # bad binned good
    yield_loss: int  # good binned bad

    @property
    def escape_rate(self) -> float:
        """Escapes per truly-bad device (0 when the lot has no bad parts)."""
        return self.escapes / self.true_fail if self.true_fail else 0.0

    @property
    def yield_loss_rate(self) -> float:
        """Yield loss per truly-good device."""
        return self.yield_loss / self.true_pass if self.true_pass else 0.0

    @property
    def accuracy(self) -> float:
        correct = self.n_devices - self.escapes - self.yield_loss
        return correct / self.n_devices if self.n_devices else 1.0

    def summary(self) -> str:
        return (
            f"{self.n_devices} devices: {self.true_pass} good / "
            f"{self.true_fail} bad; escapes {self.escapes} "
            f"({self.escape_rate:.1%} of bad), yield loss {self.yield_loss} "
            f"({self.yield_loss_rate:.1%} of good), "
            f"accuracy {self.accuracy:.1%}"
        )


def confusion(
    true_specs: np.ndarray,
    predicted_specs: np.ndarray,
    limits: SpecificationLimits,
    spec_names: Sequence[str] = SpecSet.NAMES,
    decision_limits: SpecificationLimits | None = None,
) -> BinningReport:
    """Compare predicted-spec binning against true-spec binning.

    ``decision_limits`` (default: the true limits) are the possibly
    guard-banded limits the tester actually applies to predictions; the
    *true* limits always judge the true specs.
    """
    true_specs = np.asarray(true_specs, dtype=float)
    predicted_specs = np.asarray(predicted_specs, dtype=float)
    if true_specs.shape != predicted_specs.shape:
        raise ValueError("true and predicted spec matrices must match")
    if true_specs.shape[1] != len(spec_names):
        raise ValueError("spec column count does not match spec_names")
    decision_limits = decision_limits or limits
    # columns in SpecSet.NAMES order; a name spec_names lacks reads 0.0
    # (a repeated name keeps its last column, as a dict would)
    position = {name: j for j, name in enumerate(spec_names)}

    def spec_matrix(specs: np.ndarray) -> np.ndarray:
        return np.column_stack([
            specs[:, position[name]] if name in position else np.zeros(len(specs))
            for name in SpecSet.NAMES
        ])

    truly_good = limits.check_matrix(spec_matrix(true_specs))
    binned_good = decision_limits.check_matrix(spec_matrix(predicted_specs))
    return BinningReport(
        n_devices=len(true_specs),
        true_pass=int(np.count_nonzero(truly_good)),
        true_fail=int(np.count_nonzero(~truly_good)),
        escapes=int(np.count_nonzero(~truly_good & binned_good)),
        yield_loss=int(np.count_nonzero(truly_good & ~binned_good)),
    )


def guard_banded_limits(
    limits: SpecificationLimits,
    prediction_sigmas: Dict[str, float],
    k: float,
) -> SpecificationLimits:
    """Tighten every limit by ``k`` times that spec's prediction error.

    Minimum limits move up by ``k * sigma``, maximum limits move down --
    the direction that rejects borderline predictions.
    """
    if k < 0:
        raise ValueError("guard-band factor must be non-negative")
    banded: Dict[str, SpecificationLimit] = {}
    for name, lim in limits.limits.items():
        sigma = prediction_sigmas.get(name, 0.0)
        new_min = lim.minimum + k * sigma if lim.minimum is not None else None
        new_max = lim.maximum - k * sigma if lim.maximum is not None else None
        if new_min is not None and new_max is not None and new_min > new_max:
            raise ValueError(
                f"{name}: guard band k={k} closes the limit window entirely"
            )
        banded[name] = SpecificationLimit(name, minimum=new_min, maximum=new_max)
    return SpecificationLimits(banded)


def sweep_guard_band(
    true_specs: np.ndarray,
    predicted_specs: np.ndarray,
    limits: SpecificationLimits,
    prediction_sigmas: Dict[str, float],
    k_values: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 3.0),
    spec_names: Sequence[str] = SpecSet.NAMES,
) -> List[Tuple[float, BinningReport]]:
    """Escape/yield-loss trade-off curve over the guard-band factor."""
    return [
        (float(k), confusion(true_specs, predicted_specs, limits, spec_names=spec_names,
                             decision_limits=guard_banded_limits(limits, prediction_sigmas, k)))
        for k in k_values
    ]
