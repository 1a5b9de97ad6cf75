"""Memoryless polynomial nonlinearity math.

RF amplifier nonlinearity near the carrier is modeled the classic way:

    y = a1 x + a2 x^2 + a3 x^3

with ``a1`` the linear voltage gain and ``a3 < 0`` for compressive
behaviour.  This module collects the standard identities relating the
polynomial coefficients to the datasheet numbers the paper predicts
(IIP3, and by extension the 1 dB compression point):

* two-tone IM3: each third-order product has amplitude ``(3/4) |a3| A^3``
  for per-tone input amplitude ``A``;
* input IP3 voltage: ``V_IIP3 = sqrt((4/3) |a1 / a3|)`` (peak volts);
* P1dB: ``P1dB = IIP3 - 9.64 dB`` for a pure third-order compressive
  characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dsp.sources import dbm_to_vpeak, vpeak_to_dbm
from repro.dsp.units import db20, undb20
from repro.dsp.waveform import Waveform

__all__ = [
    "PolynomialNonlinearity",
    "poly_from_specs",
    "iip3_dbm_from_poly",
    "iip2_dbm_from_poly",
    "p1db_dbm_from_iip3",
    "gain_compression_db",
    "saturation_amplitudes",
    "describing_gain_tables",
    "interp_rows",
    "describing_gain_batch",
]

#: Gap between IIP3 and the input 1 dB compression point for a pure
#: third-order memoryless characteristic (the classic 9.64 dB figure).
IIP3_TO_P1DB_DB = 9.6357


def poly_from_specs(
    gain_db: float,
    iip3_dbm: float,
    iip2_dbm: Optional[float] = None,
) -> Tuple[float, float, float]:
    """Polynomial coefficients consistent with gain / IIP3 (and IIP2).

    Parameters
    ----------
    gain_db:
        Small-signal power gain; in the matched 50-ohm convention the
        voltage gain is ``10**(gain_db / 20)``.
    iip3_dbm:
        Input-referred third-order intercept, dBm.
    iip2_dbm:
        Optional input-referred second-order intercept; ``None`` yields
        ``a2 = 0`` (a fully differential device).

    Returns
    -------
    ``(a1, a2, a3)`` with ``a3 <= 0`` (compressive).
    """
    a1 = undb20(gain_db)
    v_ip3 = dbm_to_vpeak(iip3_dbm)
    a3 = -(4.0 / 3.0) * a1 / (v_ip3**2)
    if iip2_dbm is None:
        a2 = 0.0
    else:
        # IM2 product amplitude is (a2/1) A^2 at per-tone amplitude A;
        # intercept with the linear term a1 A gives V_IIP2 = a1 / a2.
        v_ip2 = dbm_to_vpeak(iip2_dbm)
        a2 = a1 / v_ip2
    return a1, a2, a3


def iip3_dbm_from_poly(a1: float, a3: float) -> float:
    """Input IP3 in dBm from polynomial coefficients."""
    if a3 == 0.0:
        return math.inf
    v_ip3 = math.sqrt((4.0 / 3.0) * abs(a1 / a3))
    return vpeak_to_dbm(v_ip3)


def iip2_dbm_from_poly(a1: float, a2: float) -> float:
    """Input IP2 in dBm from polynomial coefficients."""
    if a2 == 0.0:
        return math.inf
    return vpeak_to_dbm(abs(a1 / a2))


def p1db_dbm_from_iip3(iip3_dbm: float) -> float:
    """Input 1 dB compression point implied by IIP3 (third-order model)."""
    return iip3_dbm - IIP3_TO_P1DB_DB


def gain_compression_db(a1: float, a3: float, amplitude: float) -> float:
    """Large-signal gain change (dB) of a tone of peak ``amplitude``.

    The describing-function gain of ``a1 x + a3 x^3`` for a sine input is
    ``a1 + (3/4) a3 A^2``; this returns its ratio to ``a1`` in dB
    (negative for compression).
    """
    if a1 == 0.0:
        raise ValueError("a1 must be non-zero")
    effective = a1 + 0.75 * a3 * amplitude**2
    if effective <= 0.0:
        return -math.inf
    return db20(effective / a1)


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """A memoryless third-order polynomial transfer ``a1 x + a2 x^2 + a3 x^3``.

    The polynomial is only physical up to the amplitude where its slope
    reverses; beyond ``saturation_amplitude`` the output is held at the
    polynomial's extremum, modeling hard saturation instead of the
    unphysical fold-back of a raw cubic.
    """

    a1: float
    a2: float = 0.0
    a3: float = 0.0

    @property
    def saturation_amplitude(self) -> float:
        """Input amplitude where ``d y / d x = 0`` (inf if non-compressive)."""
        if self.a3 >= 0.0:
            return math.inf
        # y' = a1 + 2 a2 x + 3 a3 x^2 = 0; take the positive root
        disc = self.a2**2 - 3.0 * self.a1 * self.a3
        if disc < 0:
            return math.inf
        return (self.a2 + math.sqrt(disc)) / (-3.0 * self.a3)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the transfer on an array of sample values."""
        x = np.asarray(x, dtype=float)
        sat = self.saturation_amplitude
        if math.isfinite(sat):
            x = np.clip(x, -sat, sat)
        return self.a1 * x + self.a2 * x**2 + self.a3 * x**3

    def apply(self, wf: Waveform) -> Waveform:
        """Apply the transfer to a waveform."""
        return Waveform(self(wf.samples), wf.sample_rate, wf.t0)

    def gain_db(self) -> float:
        """Small-signal power gain in dB (matched convention)."""
        if self.a1 <= 0.0:
            raise ValueError("a1 must be positive for a gain in dB")
        return db20(self.a1)

    def iip3_dbm(self) -> float:
        """Input IP3 implied by the coefficients."""
        return iip3_dbm_from_poly(self.a1, self.a3)

    def coefficients(self) -> Tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)

    # ------------------------------------------------------------------
    # narrowband (describing-function) view
    # ------------------------------------------------------------------
    def describing_function(self, amplitudes: np.ndarray) -> np.ndarray:
        """First-harmonic complex gain ``G(A)`` for a carrier of peak ``A``.

        For a narrowband signal ``u = Re[U e^{jwt}]`` through a memoryless
        nonlinearity, the carrier-band output is ``G(|U|) U`` with

            G(A) = (1 / (pi A)) * integral_0^2pi f(A cos t) cos t dt.

        Within the polynomial's validity range this is exactly
        ``a1 + (3/4) a3 A^2``; beyond the fold-back point the saturating
        transfer (output held at the polynomial extremum) is integrated
        numerically, giving the smooth gain compression a real amplifier
        exhibits instead of the raw cubic's unphysical fold-back.
        """
        amplitudes = np.asarray(amplitudes, dtype=float)
        scalar = amplitudes.ndim == 0
        amplitudes = np.atleast_1d(amplitudes)
        if np.any(amplitudes < 0):
            raise ValueError("amplitudes must be non-negative")
        out = self.a1 + 0.75 * self.a3 * amplitudes**2
        sat = self.saturation_amplitude
        if math.isfinite(sat):
            over = amplitudes > sat
            if np.any(over):
                theta = np.linspace(0.0, 2.0 * np.pi, 129)[:-1]
                cos_t = np.cos(theta)
                a_over = amplitudes[over]
                # f(A cos t) on an (n_over, n_theta) grid; __call__ clips
                u = a_over[:, None] * cos_t[None, :]
                first = np.mean(self(u) * cos_t[None, :], axis=1) * 2.0
                out[over] = first / a_over
        return out[0] if scalar else out


# ----------------------------------------------------------------------
# batched kernels: one row per device, bit-identical to the scalar class
# ----------------------------------------------------------------------
#: quadrature nodes of the saturating describing function
_THETA = np.linspace(0.0, 2.0 * np.pi, 129)[:-1]
#: describing-gain table points per device
DESCRIBING_TABLE_POINTS = 256
#: over-saturated (device, amplitude) cells integrated per block: one
#: device table's worth, so each ``(cells, 128)`` quadrature temporary
#: stays at 256 KiB however many devices saturate
_QUADRATURE_BLOCK = DESCRIBING_TABLE_POINTS


def saturation_amplitudes(coeffs: np.ndarray) -> np.ndarray:
    """:attr:`PolynomialNonlinearity.saturation_amplitude` per row.

    ``coeffs`` is an ``(N, 3)`` matrix of ``(a1, a2, a3)`` rows; entry
    ``i`` of the result equals the scalar property of row ``i`` bit for
    bit (``inf`` when non-compressive, NaN for NaN coefficients).
    """
    a1, a2, a3 = np.asarray(coeffs, dtype=float).reshape(-1, 3).T
    disc = a2**2 - 3.0 * a1 * a3
    # the rows this masks to inf may take sqrt(<0) or divide by zero
    with np.errstate(invalid="ignore", divide="ignore"):
        sat = (a2 + np.sqrt(disc)) / (-3.0 * a3)
    return np.where((a3 >= 0.0) | (disc < 0.0), np.inf, sat)


def describing_gain_tables(coeffs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``(N, len(grid))`` describing gains ``G(A)`` on one shared grid.

    Row ``i`` equals
    ``PolynomialNonlinearity(*coeffs[i]).describing_function(grid)``
    bit for bit.  The closed form ``a1 + (3/4) a3 A^2`` fills the whole
    table at once; the saturating quadrature runs only on the
    (device, amplitude) cells beyond a device's fold-back point, in
    blocks of at most ``_QUADRATURE_BLOCK`` cells.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 3)
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0):
        raise ValueError("amplitudes must be non-negative")
    a1, a2, a3 = (coeffs[:, k : k + 1] for k in range(3))
    table = 0.75 * a3 * grid**2
    table += a1
    sat = saturation_amplitudes(coeffs)
    # grid ascends, so only rows saturating below its top have cells
    sat_rows = np.flatnonzero(sat < grid[-1])
    sub, cols = np.nonzero(grid[None, :] > sat[sat_rows, None])
    rows = sat_rows[sub]
    cos_t = np.cos(_THETA)
    for start in range(0, len(rows), _QUADRATURE_BLOCK):
        r = rows[start : start + _QUADRATURE_BLOCK]
        c = cols[start : start + _QUADRATURE_BLOCK]
        a_over = grid[c]
        s = sat[r][:, None]
        # f(A cos t) of the clipped (saturating) polynomial, per cell
        x = np.clip(a_over[:, None] * cos_t[None, :], -s, s)
        y = a1[r] * x + a2[r] * x**2 + a3[r] * x**3
        first = np.mean(y * cos_t[None, :], axis=1) * 2.0
        table[r, c] = first / a_over
    return table


def interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, fp[i])`` for every row ``i`` of ``fp``, bit for bit.

    Uses ``np.interp``'s own formula -- precomputed slopes
    ``(fp[j+1] - fp[j]) / (xp[j+1] - xp[j])``, the exact-knot and
    end-point cases, and its NaN fallback -- with the knot index and
    offset computed once and shared by every row.  ``xp`` must be
    increasing with at least two points.
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    fp = np.asarray(fp, dtype=float)
    n_xp = len(xp)
    if n_xp < 2 or fp.ndim != 2 or fp.shape[1] != n_xp:
        raise ValueError("need xp of >= 2 points and fp of shape (N, len(xp))")
    # j with xp[j] <= x < xp[j + 1]; -1 left of the grid
    j = np.searchsorted(xp, x, side="right") - 1
    jc = np.clip(j, 0, n_xp - 2)
    f_lo = np.take(fp, jc, axis=1)
    # np.interp never warns: an infinite or NaN table just propagates
    with np.errstate(all="ignore"):
        slopes = fp[:, 1:] - fp[:, :-1]
        slopes /= xp[1:] - xp[:-1]
        out = np.take(slopes, jc, axis=1)
        out *= x - xp[jc]
        out += f_lo
        # its fallback when an infinite table makes the slope NaN
        nan = np.isnan(out)
        if nan.any():
            f_hi = np.take(fp, jc + 1, axis=1)
            retry = np.take(slopes, jc, axis=1) * (x - xp[jc + 1]) + f_hi
            out[nan] = retry[nan]
            flat = np.isnan(out) & (f_lo == f_hi)
            out[flat] = f_lo[flat]
    # knots, the right end and beyond take the table value itself; left
    # of the grid takes fp[0]; NaN abscissae stay NaN
    exact = (j < 0) | (j >= n_xp - 1) | (xp[jc] == x)
    if exact.any():
        out[:, exact] = fp[:, np.clip(j[exact], 0, n_xp - 1)]
    x_nan = np.isnan(x)
    if x_nan.any():
        out[:, x_nan] = x[x_nan]
    return out


def describing_gain_batch(
    coeffs: np.ndarray, amps: np.ndarray, peak: float
) -> np.ndarray:
    """Tuned-coupling DUT gains: ``(N, len(amps))``, one row per device.

    A narrowband DUT sees only the carrier band, so its complex gain at
    each envelope sample is the saturating describing function at that
    sample's magnitude ``amps``.  Each device's gain is tabulated on the
    shared grid ``linspace(0, 1.01 * peak, 256)`` and interpolated; row
    ``i`` equals ``np.interp(amps, grid, describing_function(grid))``
    for device ``i`` bit for bit.  A zero peak drive means the device
    only ever sees its small-signal gain ``a1``.
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 3)
    amps = np.asarray(amps, dtype=float)
    if not peak > 0.0:
        return np.repeat(coeffs[:, :1], len(amps), axis=1)
    grid = np.linspace(0.0, 1.01 * peak, DESCRIBING_TABLE_POINTS)
    return interp_rows(amps, grid, describing_gain_tables(coeffs, grid))
