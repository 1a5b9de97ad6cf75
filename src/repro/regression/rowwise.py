"""Batch-size-invariant matrix products for the prediction path.

BLAS ``gemm``/``gemv`` pick their blocking and summation order from the
operand shapes, so ``(x @ w.T)[i]`` can differ in the last bits depending
on how many rows ``x`` has.  Production predicts a lot in chunks whose
size depends on the executor, the ``chunksize`` and the streaming lot
size, and the reproduction contract demands bit-identical records for
every chunking.  :func:`rowwise_matmul` computes the same product as an
elementwise multiply followed by a sum over the last axis: NumPy reduces
each output element over its own contiguous run of ``d`` products in an
order fixed by ``d`` alone, so every output row depends only on its
input row, whatever the batch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rowwise_matmul"]


def rowwise_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` with each output row a function of its input row only.

    Parameters
    ----------
    x:
        Input rows, shape ``(n, d)``.
    w:
        A weight vector ``(d,)`` -- the result is ``(n,)`` -- or a weight
        matrix ``(k, d)`` -- the result is ``(n, k)``.
    """
    if w.ndim == 1:
        return (x * w).sum(axis=-1)
    return (x[:, None, :] * w[None, :, :]).sum(axis=-1)
