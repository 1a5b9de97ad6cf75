"""Machine-speed probe: how fast this machine runs fixed code right now.

The benchmark shares a host with other tenants, and the host's speed
drifts: for minutes at a time the same code runs 1.3 to 1.8 times
slower, in CPU time as much as in wall time, so neither clock alone
gives steady numbers.  The probe times two fixed kernels that belong to
the benchmark, not to the program under test, and that do the kind of
work the program does:

* many NumPy calls on 64- and 512-element arrays;
* building and reading thousands of small Python objects.

Each kernel's time divided by its time on a quiet machine
(:data:`REFERENCE_S`) is that kernel's slowdown; the speed factor is
their mean.  The workloads run the probe just before and just after
each timed operation and divide the operation's wall time by the mean
of the two factors, raised to the workload's sensitivity to the
machine's speed, which gives its time at the reference speed.
No change to the program moves the factor, so a program that gets
faster still reads faster.
"""

from __future__ import annotations

import gc
import time
from typing import Tuple

import numpy as np

__all__ = ["REFERENCE_S", "SpeedProbe"]

#: seconds each kernel takes on a quiet machine (small arrays, objects):
#: the 10th percentile over a long sample on the 2-CPU container the
#: benchmark was introduced on
REFERENCE_S: Tuple[float, float] = (0.0042, 0.0028)


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


class SpeedProbe:
    """Times the kernels; :meth:`factor` is this moment's slowdown."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((64, 64))
        self._vector = rng.standard_normal(512)
        # the first pass pays page faults and first-call costs
        self.factor()

    def _small_arrays(self) -> float:
        total = 0.0
        for _ in range(600):
            total += float(np.exp(self._vector * 1e-3).sum())
            total += float((self._matrix @ self._matrix[:, 0]).sum())
        return total

    @staticmethod
    def _objects() -> float:
        points = [_Point(i, 0.5 * i) for i in range(8000)]
        return sum(p.a * p.b for p in points)

    def factor(self) -> float:
        """Mean over the kernels of their time over :data:`REFERENCE_S`.

        The garbage collector is off meanwhile: a collection set off by
        the kernels' allocations would scan the program's heap, and time
        its size instead of the machine's speed.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            slowdown = 0.0
            for kernel, reference in zip((self._small_arrays, self._objects), REFERENCE_S):
                start = time.perf_counter()
                kernel()
                slowdown += (time.perf_counter() - start) / reference
        finally:
            if collecting:
                gc.enable()
        return slowdown / len(REFERENCE_S)
