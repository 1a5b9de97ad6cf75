"""The stimulus-optimization objective (Equation 10 and Section 3.1).

``F = (1/n) sum_i sigma_i^2`` with
``sigma_i^2 = sigma_p,i^2 + sigma_m^2 ||a_i||^2``: the first term is the
mapping residual of Equation 8 (how much of the spec's process
sensitivity the signature cannot explain), the second the measurement
noise amplified by the mapping row.  A good stimulus drives both down
simultaneously -- it must make the signature sensitive to every process
direction the specs care about, *and* keep the mapping gains small so
noise does not swamp the prediction.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.testgen.mapping import RCOND, LinearSignatureMap

__all__ = [
    "signature_noise_std",
    "prediction_error_variances",
    "signature_test_objective",
    "signature_test_objective_batch",
]


def signature_noise_std(noise_vrms: float, n_samples: int) -> float:
    """Per-bin noise std of an FFT-magnitude signature.

    Additive time-domain noise of standard deviation ``sigma`` spreads
    over the single-sided amplitude spectrum of an ``N``-sample record
    with per-bin standard deviation ``sigma * sqrt(2 / N)`` (for bins
    carrying signal, where the magnitude operates in its linear regime).
    """
    if noise_vrms < 0:
        raise ValueError("noise_vrms must be non-negative")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return noise_vrms * math.sqrt(2.0 / n_samples)


def _scaled_performance(
    a_p: np.ndarray, spec_scales: Optional[Sequence[float]]
) -> np.ndarray:
    """``A_p`` with each spec's row divided by its scale (if any)."""
    a_p = np.asarray(a_p, dtype=float)
    if spec_scales is None:
        return a_p
    scales = np.asarray(spec_scales, dtype=float)
    if scales.shape != (a_p.shape[0],):
        raise ValueError("spec_scales must have one entry per spec")
    if np.any(scales <= 0):
        raise ValueError("spec_scales must be positive")
    return a_p / scales[:, None]


def prediction_error_variances(
    a_p: np.ndarray,
    a_s: np.ndarray,
    sigma_m: float,
    spec_scales: Optional[Sequence[float]] = None,
    rcond: float = RCOND,
) -> np.ndarray:
    """Per-spec total error variances for a candidate stimulus.

    Parameters
    ----------
    a_p, a_s:
        Sensitivity matrices (Equations 6-7).
    sigma_m:
        Per-component signature measurement-noise std.
    spec_scales:
        Optional per-spec scale factors; each spec's row of ``A_p`` is
        divided by its scale before solving, so the returned variances
        are in scaled units.  Use this when the specs' natural units are
        not comparable.  The gain/NF/IIP3 triple is already all-dB, so
        the default (no scaling) matches the paper.
    rcond:
        Pseudoinverse truncation threshold.
    """
    mapping = LinearSignatureMap.from_sensitivities(
        _scaled_performance(a_p, spec_scales), a_s, sigma_m=sigma_m, rcond=rcond
    )
    return mapping.total_error_variances(sigma_m)


def signature_test_objective(
    a_p: np.ndarray,
    a_s: np.ndarray,
    sigma_m: float,
    spec_scales: Optional[Sequence[float]] = None,
    rcond: float = RCOND,
) -> float:
    """The scalar objective ``F`` minimized by the genetic optimizer."""
    variances = prediction_error_variances(a_p, a_s, sigma_m, spec_scales, rcond)
    return float(np.mean(variances))


def signature_test_objective_batch(
    a_p: np.ndarray,
    a_s: np.ndarray,
    sigma_m: float,
    spec_scales: Optional[Sequence[float]] = None,
    rcond: float = RCOND,
) -> np.ndarray:
    """:func:`signature_test_objective` of every matrix of an ``(G, m, k)``
    ``A_s`` stack, bit for bit.

    One stacked SVD; the rank choice of
    :meth:`LinearSignatureMap.from_sensitivities` (the Eq. 10 minimum
    over the truncation ranks below ``rcond``), the residuals and the
    row norms then run as ``(G, n, k)`` arrays.  The pseudoinverse and
    the map itself are never formed: ``F`` reads neither.
    """
    a_p = _scaled_performance(a_p, spec_scales)
    a_s = np.asarray(a_s, dtype=float)
    if a_s.ndim != 3 or a_p.ndim != 2 or a_p.shape[1] != a_s.shape[2]:
        raise ValueError("need A_p (n, k) and an A_s stack (G, m, k)")
    sig2 = sigma_m**2
    if min(a_s.shape[1:]):
        _, s, vt = np.linalg.svd(a_s, full_matrices=False)
    else:  # no singular value reads as one zero singular value
        s = np.zeros((len(a_s), 1))
        vt = np.zeros((len(a_s), 1, a_s.shape[2]))
    zero = s[:, 0] == 0.0
    max_rank = np.count_nonzero(s > rcond * s[:, :1], axis=1)
    in_rank = np.arange(s.shape[1]) < max_rank[:, None]
    # c[g, i, j] = projection of spec row i on gene g's right-singular
    # direction j; cumulative residual^2 and noise-gain^2 per rank
    c2 = np.matmul(a_p, vt.transpose(0, 2, 1)) ** 2
    row_sq = np.sum(a_p**2, axis=1)
    resid_sq = np.maximum(row_sq[:, None] - np.cumsum(c2, axis=2), 0.0)
    gain_sq = np.cumsum(
        np.divide(c2, s[:, None, :] ** 2, out=np.zeros_like(c2), where=in_rank[:, None, :]),
        axis=2,
    )
    totals = np.where(in_rank, np.mean(resid_sq + sig2 * gain_sq, axis=1), np.inf)
    pick = np.argmin(totals, axis=1)[:, None, None]
    residuals = np.sqrt(np.take_along_axis(resid_sq, pick, axis=2)[..., 0])
    row_norms = np.sqrt(np.take_along_axis(gain_sq, pick, axis=2)[..., 0])
    # an all-zero A_s explains nothing and amplifies nothing
    residuals[zero] = np.linalg.norm(a_p, axis=1)
    row_norms[zero] = 0.0
    return np.mean(residuals**2 + sig2 * row_norms**2, axis=1)
