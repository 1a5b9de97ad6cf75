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
    "QuadratureCubes",
    "quadrature_cubes",
    "describing_gain_tables",
    "RowInterpolator",
    "interp_rows",
    "DescribingGains",
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
_COS_THETA = np.cos(_THETA)
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


@dataclass(frozen=True)
class QuadratureCubes:
    """``(grid[start:, None] * cos(theta)) ** 3``: one grid's abscissa cubes.

    Every saturated cell of one grid column integrates over the same
    unclipped abscissae ``A cos(theta)``, so their cubes are computed
    once per column instead of once per cell.  Columns below ``start``
    hold no saturated cell of the lot the table was built for.
    """

    start: int
    values: np.ndarray


def quadrature_cubes(
    grid: np.ndarray, sat: np.ndarray
) -> Optional[QuadratureCubes]:
    """The abscissa cubes of every saturated cell of a lot on ``grid``.

    ``sat`` holds the lot's :func:`saturation_amplitudes`.  A row
    saturates only at grid points above its finite saturation amplitude
    (NaN and ``inf`` rows never do), so the table starts at the first
    point above the smallest finite one; ``None`` when no row saturates
    below the grid's top.  ``grid`` ascends.
    """
    grid = np.asarray(grid, dtype=float)
    finite = np.asarray(sat, dtype=float)
    finite = finite[np.isfinite(finite)]
    if not len(finite) or not finite.min() < grid[-1]:
        return None
    start = int(np.searchsorted(grid, finite.min(), side="right"))
    # NumPy's power, as the scalar oracle cubes: x*x*x rounds differently
    return QuadratureCubes(start, (grid[start:, None] * _COS_THETA[None, :]) ** 3)


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise bitwise equality of two float64 arrays (broadcast)."""
    return a.view(np.uint64) == b.view(np.uint64)


def describing_gain_tables(
    coeffs: np.ndarray,
    grid: np.ndarray,
    cubes: Optional[QuadratureCubes] = None,
) -> np.ndarray:
    """``(N, len(grid))`` describing gains ``G(A)`` on one shared grid.

    Row ``i`` equals
    ``PolynomialNonlinearity(*coeffs[i]).describing_function(grid)``
    bit for bit.  The closed form ``a1 + (3/4) a3 A^2`` fills the whole
    table at once; the saturating quadrature runs only on the
    (device, amplitude) cells beyond a device's fold-back point, in
    blocks of at most ``_QUADRATURE_BLOCK`` cells.  Its cubes come from
    ``cubes`` (:func:`quadrature_cubes` of a lot holding these rows;
    built for this call alone when ``None``): the table's where
    ``clip`` leaves an abscissa alone, the row's own ``(+-s) ** 3``
    where it clips to the saturation amplitude ``s``.
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
    sat_rows = np.flatnonzero(np.isfinite(sat) & (sat < grid[-1]))
    sub, cols = np.nonzero(grid[None, :] > sat[sat_rows, None])
    rows = sat_rows[sub]
    if not len(rows):
        return table
    if cubes is None:
        cubes = quadrature_cubes(grid, sat)
    elif cols.min() < cubes.start or len(cubes.values) != len(grid) - cubes.start:
        raise ValueError("cubes do not cover the saturated cells of this grid")
    # each saturating row's clip bounds, cubed once
    s_rows = sat[sat_rows]
    hi3 = s_rows**3
    lo3 = (-s_rows) ** 3
    for start in range(0, len(rows), _QUADRATURE_BLOCK):
        block = slice(start, start + _QUADRATURE_BLOCK)
        r, c, k = rows[block], cols[block], sub[block]
        a_over = grid[c]
        s = sat[r][:, None]
        # f(A cos t) of the clipped (saturating) polynomial, per cell;
        # clip hands back u, -s or s bit for bit, so x**3 is u's cube
        # from the table or the bound's own
        u = a_over[:, None] * _COS_THETA[None, :]
        x = np.clip(u, -s, s)
        x3 = cubes.values[c - cubes.start]
        np.copyto(x3, lo3[k, None], where=_same_bits(x, -s))
        np.copyto(x3, hi3[k, None], where=_same_bits(x, s))
        y = a1[r] * x + a2[r] * x**2 + a3[r] * x3
        first = np.mean(y * _COS_THETA[None, :], axis=1) * 2.0
        table[r, c] = first / a_over
    return table


class RowInterpolator:
    """``np.interp(x, xp, fp[i])`` for every row ``i`` of a table, bit for bit.

    Uses ``np.interp``'s own formula -- precomputed slopes
    ``(fp[j+1] - fp[j]) / (xp[j+1] - xp[j])``, the exact-knot and
    end-point cases, and its NaN fallback.  The knot search over ``x``
    (index, offset, exact-knot and NaN positions) depends only on
    ``(x, xp)`` and runs once, here; every table interpolated on the
    same abscissae reuses it.  ``xp`` must be increasing with at least
    two points.
    """

    def __init__(self, x: np.ndarray, xp: np.ndarray):
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        n_xp = len(xp)
        if n_xp < 2:
            raise ValueError("need xp of >= 2 points and fp of shape (N, len(xp))")
        self.x = x
        self.xp = xp
        # j with xp[j] <= x < xp[j + 1]; -1 left of the grid
        j = np.searchsorted(xp, x, side="right") - 1
        self._jc = np.clip(j, 0, n_xp - 2)
        self._dx = x - xp[self._jc]
        # knots, the right end and beyond take the table value itself;
        # left of the grid takes fp[0]; NaN abscissae stay NaN
        exact = (j < 0) | (j >= n_xp - 1) | (xp[self._jc] == x)
        self._exact = np.flatnonzero(exact)
        self._exact_knot = np.clip(j[exact], 0, n_xp - 1)
        self._x_nan = np.flatnonzero(np.isnan(x))

    def nbytes(self) -> int:
        """Bytes of the precomputed knot search (``x`` and ``xp`` excluded)."""
        return sum(
            a.nbytes
            for a in (self._jc, self._dx, self._exact, self._exact_knot, self._x_nan)
        )

    def __call__(self, fp: np.ndarray) -> np.ndarray:
        """``(N, len(x))``: row ``i`` interpolates table row ``fp[i]``."""
        fp = np.asarray(fp, dtype=float)
        xp = self.xp
        if fp.ndim != 2 or fp.shape[1] != len(xp):
            raise ValueError("need xp of >= 2 points and fp of shape (N, len(xp))")
        jc = self._jc
        f_lo = np.take(fp, jc, axis=1)
        # np.interp never warns: an infinite or NaN table just propagates
        with np.errstate(all="ignore"):
            slopes = fp[:, 1:] - fp[:, :-1]
            slopes /= xp[1:] - xp[:-1]
            out = np.take(slopes, jc, axis=1)
            out *= self._dx
            out += f_lo
            # its fallback when an infinite table makes the slope NaN
            nan = np.isnan(out)
            if nan.any():
                f_hi = np.take(fp, jc + 1, axis=1)
                retry = np.take(slopes, jc, axis=1) * (self.x - xp[jc + 1]) + f_hi
                out[nan] = retry[nan]
                flat = np.isnan(out) & (f_lo == f_hi)
                out[flat] = f_lo[flat]
        if len(self._exact):
            out[:, self._exact] = fp[:, self._exact_knot]
        if len(self._x_nan):
            out[:, self._x_nan] = self.x[self._x_nan]
        return out


def interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, fp[i])`` for every row ``i`` of ``fp``, bit for bit.

    A one-off :class:`RowInterpolator`.
    """
    return RowInterpolator(x, xp)(fp)


class DescribingGains:
    """Tuned-coupling DUT gains over one envelope magnitude record.

    A narrowband DUT sees only the carrier band, so its complex gain at
    each envelope sample is the saturating describing function at that
    sample's magnitude ``amps``.  Each device's gain is tabulated on the
    shared grid ``linspace(0, 1.01 * peak, 256)`` and interpolated.  The
    grid and the knot search over ``amps`` depend only on the record, so
    they are built once and shared by every device batch that sees it.
    A zero peak drive means the device only ever sees its small-signal
    gain ``a1``.
    """

    def __init__(self, amps: np.ndarray, peak: float):
        self.n = len(amps)
        self._grid: Optional[np.ndarray] = None
        self._interp: Optional[RowInterpolator] = None
        if peak > 0.0:
            self._grid = np.linspace(0.0, 1.01 * peak, DESCRIBING_TABLE_POINTS)
            self._interp = RowInterpolator(amps, self._grid)

    def nbytes(self) -> int:
        """Bytes of the shared grid and knot search."""
        if self._interp is None:
            return 0
        return self._grid.nbytes + self._interp.nbytes()

    def cubes(self, sat: np.ndarray) -> Optional[QuadratureCubes]:
        """The grid's :func:`quadrature_cubes` for a lot whose saturation
        amplitudes are ``sat`` (``None`` when no cell saturates)."""
        if self._grid is None:
            return None
        return quadrature_cubes(self._grid, sat)

    def __call__(
        self, coeffs: np.ndarray, cubes: Optional[QuadratureCubes] = None
    ) -> np.ndarray:
        """``(N, len(amps))`` gains, one row per ``(a1, a2, a3)`` row.

        ``cubes``: :meth:`cubes` of a lot holding these rows, shared by
        its row blocks; built for this call alone when ``None``.
        """
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 3)
        if self._interp is None:
            return np.repeat(coeffs[:, :1], self.n, axis=1)
        return self._interp(describing_gain_tables(coeffs, self._grid, cubes))


def describing_gain_batch(
    coeffs: np.ndarray, amps: np.ndarray, peak: float
) -> np.ndarray:
    """Tuned-coupling DUT gains: ``(N, len(amps))``, one row per device.

    Row ``i`` equals ``np.interp(amps, grid, describing_function(grid))``
    for device ``i`` bit for bit (:class:`DescribingGains`).
    """
    return DescribingGains(np.asarray(amps, dtype=float), peak)(coeffs)
