"""Datasheet specification limits and pass/fail binning.

Binning fails closed: a non-finite value (NaN or inf) never satisfies a
limit, so a device whose prediction went wrong can never bin as good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.circuits.device import SpecSet

__all__ = ["SpecificationLimit", "SpecificationLimits", "lna_limits"]


@dataclass(frozen=True)
class SpecificationLimit:
    """One test limit: ``minimum <= value <= maximum`` (either side open)."""

    name: str
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self):
        if self.minimum is None and self.maximum is None:
            raise ValueError(f"{self.name}: at least one bound is required")
        if (
            self.minimum is not None
            and self.maximum is not None
            and self.minimum > self.maximum
        ):
            raise ValueError(f"{self.name}: minimum exceeds maximum")

    def check_array(self, values: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`check`: a boolean array shaped like ``values``."""
        values = np.asarray(values, dtype=float)
        ok = np.isfinite(values)
        if self.minimum is not None:
            ok &= values >= self.minimum
        if self.maximum is not None:
            ok &= values <= self.maximum
        return ok

    def check(self, value: float) -> bool:
        """True when ``value`` is within the bounds; NaN and inf always fail."""
        return bool(self.check_array(value))

    def margin(self, value: float) -> float:
        """Distance to the nearest limit (negative when failing)."""
        margins = []
        if self.minimum is not None:
            margins.append(value - self.minimum)
        if self.maximum is not None:
            margins.append(self.maximum - value)
        return min(margins)


class SpecificationLimits:
    """A set of limits keyed by spec name (``gain_db`` etc.)."""

    def __init__(self, limits: Dict[str, SpecificationLimit]):
        for name, limit in limits.items():
            if name != limit.name:
                raise ValueError(f"key {name!r} != limit name {limit.name!r}")
        self.limits = dict(limits)

    def check_matrix(self, predicted: np.ndarray) -> np.ndarray:
        """Pass verdicts for an ``(n, 3)`` matrix of spec rows.

        Columns are ordered as :attr:`SpecSet.NAMES`.  A row passes when
        every limited spec is within its bounds *and* every spec is
        finite: a NaN or inf anywhere in the row means the prediction
        went wrong, so the device fails closed, limited spec or not.
        """
        predicted = np.asarray(predicted, dtype=float).reshape(-1, len(SpecSet.NAMES))
        passed = np.isfinite(predicted).all(axis=1)
        for j, name in enumerate(SpecSet.NAMES):
            limit = self.limits.get(name)
            if limit is not None:
                passed &= limit.check_array(predicted[:, j])
        return passed

    def check(self, specs: SpecSet) -> bool:
        """True when every limited spec is within its bounds.

        The one-row case of :meth:`check_matrix`: any non-finite spec
        fails.
        """
        return bool(self.check_matrix(specs.as_vector())[0])

    def failures(self, specs: SpecSet) -> Dict[str, float]:
        """Failing specs and their (negative) margins."""
        values = specs.as_dict()
        out = {}
        for name, limit in self.limits.items():
            if name in values and not limit.check(values[name]):
                out[name] = limit.margin(values[name])
        return out

    def worst_margin(self, specs: SpecSet) -> float:
        """The tightest margin across all limited specs."""
        values = specs.as_dict()
        margins = [
            limit.margin(values[name])
            for name, limit in self.limits.items()
            if name in values
        ]
        if not margins:
            raise ValueError("no applicable limits")
        return min(margins)


def lna_limits(
    gain_min_db: float = 14.0,
    nf_max_db: float = 3.3,
    iip3_min_dbm: float = -1.0,
) -> SpecificationLimits:
    """Representative production limits for the 900 MHz LNA family."""
    return SpecificationLimits(
        {
            "gain_db": SpecificationLimit("gain_db", minimum=gain_min_db),
            "nf_db": SpecificationLimit("nf_db", maximum=nf_max_db),
            "iip3_dbm": SpecificationLimit("iip3_dbm", minimum=iip3_min_dbm),
        }
    )
