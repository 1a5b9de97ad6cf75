"""The linear signature-to-performance mapping (Equations 8-9).

Given the sensitivity matrices ``A_p`` (n specs x k parameters) and
``A_s`` (m signature components x k parameters), the paper seeks the
transformation ``A`` with ``A_p = A A_s``.  Exact equality rarely holds,
so each row is solved in the least-squares sense:

    min_{a_i} || a_p,i^T - a_i^T A_s ||_2        (Equation 8)

whose minimum-norm solution is computed through the SVD pseudoinverse of
``A_s`` (Equation 9).  The residual of row ``i`` is the irreducible
process-tracking error ``sigma_p,i``; the row norm ``||a_i||`` multiplies
the signature measurement noise in the total error (Equation 10).

**Rank selection.**  A raw pseudoinverse inverts every numerically
nonzero singular value of ``A_s``; directions that barely move the
signature get amplification factors of ``1/s_j`` and the noise term of
Equation 10 explodes.  Equation 10 itself supplies the remedy: truncating
the SVD at rank ``r`` trades residual (decreasing in ``r``) against noise
amplification (increasing in ``r``), and both terms are cheap to evaluate
for every ``r`` from one SVD.  ``from_sensitivities`` therefore picks the
truncation rank that minimizes the mean total error variance whenever
``sigma_m`` is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["RCOND", "LinearSignatureMap"]

#: relative singular-value floor of every Eq. 9/10 solve: the GA's
#: fitness and the map ``optimize()`` packages truncate at the same rank
RCOND = 1e-10


@dataclass(frozen=True)
class LinearSignatureMap:
    """Least-squares linear map from signature perturbations to spec
    perturbations.

    Attributes
    ----------
    matrix:
        ``A`` of shape (n_specs, m_signature); ``dp = A ds``.
    residuals:
        ``sigma_p,i`` per spec: the norm of the unexplained part of the
        spec's process sensitivity (Equation 8 at the optimum).
    row_norms:
        ``||a_i||_2`` per spec, the measurement-noise amplification of
        Equation 10.
    rank:
        SVD truncation rank actually used.
    singular_values:
        Full singular-value spectrum of ``A_s`` (diagnostics).
    """

    matrix: np.ndarray
    residuals: np.ndarray
    row_norms: np.ndarray
    rank: int
    singular_values: np.ndarray

    @classmethod
    def from_sensitivities(
        cls,
        a_p: np.ndarray,
        a_s: np.ndarray,
        sigma_m: Optional[float] = None,
        rank: Optional[int] = None,
        rcond: float = RCOND,
    ) -> "LinearSignatureMap":
        """Solve ``A = A_p A_s^+`` via a rank-truncated SVD (Equation 9).

        Parameters
        ----------
        a_p:
            Performance sensitivities, shape (n, k).
        a_s:
            Signature sensitivities, shape (m, k).
        sigma_m:
            Per-component signature noise std.  When given (and ``rank``
            is not), the truncation rank minimizing the mean Equation-10
            error variance is chosen automatically.
        rank:
            Explicit truncation rank (overrides the automatic choice).
        rcond:
            Relative singular-value floor; directions below
            ``rcond * s_max`` are never inverted regardless of the other
            settings.
        """
        a_p = np.asarray(a_p, dtype=float)
        a_s = np.asarray(a_s, dtype=float)
        if a_p.ndim != 2 or a_s.ndim != 2:
            raise ValueError("A_p and A_s must be matrices")
        if a_p.shape[1] != a_s.shape[1]:
            raise ValueError(
                f"parameter-count mismatch: A_p has {a_p.shape[1]} columns, "
                f"A_s has {a_s.shape[1]}"
            )

        u, s, vt = np.linalg.svd(a_s, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            m = np.zeros((a_p.shape[0], a_s.shape[0]))
            return cls(
                matrix=m,
                residuals=np.linalg.norm(a_p, axis=1),
                row_norms=np.zeros(a_p.shape[0]),
                rank=0,
                singular_values=s.copy(),
            )
        max_rank = int(np.count_nonzero(s > rcond * s[0]))

        # c[i, j] = projection of spec row i on right-singular direction j
        c = a_p @ vt.T  # (n, k)
        c2 = c**2
        row_sq = np.sum(a_p**2, axis=1)  # ||a_p,i||^2

        # cumulative residual^2 and noise-gain^2 per truncation rank
        explained = np.cumsum(c2[:, :max_rank], axis=1)  # (n, r)
        resid_sq = np.maximum(row_sq[:, None] - explained, 0.0)
        gain_sq = np.cumsum(c2[:, :max_rank] / (s[:max_rank] ** 2), axis=1)

        if rank is not None:
            if not (1 <= rank <= max_rank):
                raise ValueError(f"rank must be in [1, {max_rank}]")
            use_rank = int(rank)
        elif sigma_m is not None:
            totals = np.mean(resid_sq + (sigma_m**2) * gain_sq, axis=0)
            use_rank = int(np.argmin(totals)) + 1
        else:
            use_rank = max_rank

        r = use_rank
        pinv = (vt[:r].T / s[:r]) @ u[:, :r].T  # (k, m)
        matrix = a_p @ pinv
        return cls(
            matrix=matrix,
            residuals=np.sqrt(resid_sq[:, r - 1]),
            row_norms=np.sqrt(gain_sq[:, r - 1]),
            rank=r,
            singular_values=s.copy(),
        )

    @property
    def n_specs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_signature(self) -> int:
        return self.matrix.shape[1]

    def predict_delta(self, delta_signature: np.ndarray) -> np.ndarray:
        """Predicted spec perturbation for a signature perturbation.

        Accepts a single perturbation vector (m,) or a batch (N, m);
        returns (n,) or (N, n) accordingly.
        """
        ds = np.asarray(delta_signature, dtype=float)
        if ds.ndim == 1:
            if ds.shape[0] != self.n_signature:
                raise ValueError(
                    f"signature length {ds.shape[0]} != map width {self.n_signature}"
                )
            return self.matrix @ ds
        if ds.ndim == 2:
            if ds.shape[1] != self.n_signature:
                raise ValueError(
                    f"signature length {ds.shape[1]} != map width {self.n_signature}"
                )
            return ds @ self.matrix.T
        raise ValueError("delta_signature must be 1-D or 2-D")

    def total_error_variances(self, sigma_m: float) -> np.ndarray:
        """Per-spec total error variance of Equation 10.

        ``sigma_i^2 = sigma_p,i^2 + sigma_m^2 ||a_i||^2`` where ``sigma_m``
        is the per-component signature measurement-noise standard
        deviation.
        """
        if sigma_m < 0:
            raise ValueError("sigma_m must be non-negative")
        return self.residuals**2 + (sigma_m**2) * self.row_norms**2
