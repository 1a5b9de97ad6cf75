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
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Tuple, Union

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
    "DescribingGainStack",
    "GainLot",
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
        """Input amplitude where ``d y / d x = 0`` (inf if non-compressive).

        An inverting device (``a1 < 0``) takes the amplitude of its
        mirror ``(-a1, -a2, -a3)``: negation is exact and leaves ``|y|``
        unchanged, so both fold back at the same positive amplitude.
        """
        if self.a1 < 0.0:
            mirror = PolynomialNonlinearity(-self.a1, -self.a2, -self.a3)
            return mirror.saturation_amplitude
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
    bit (``inf`` when non-compressive, NaN for NaN coefficients); rows
    with ``a1 < 0`` are mirrored to ``(-a1, -a2, -a3)`` first.
    """
    a1, a2, a3 = np.asarray(coeffs, dtype=float).reshape(-1, 3).T
    inverting = a1 < 0.0
    if inverting.any():
        # multiplying by 1.0 is exact, so rows with a1 >= 0 keep their bits
        sign = np.where(inverting, -1.0, 1.0)
        a1, a2, a3 = a1 * sign, a2 * sign, a3 * sign
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


def _describing_table(
    coeffs: np.ndarray,
    sat: np.ndarray,
    grid: np.ndarray,
    grid_sq: np.ndarray,
    cube_cells: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Describing gains ``G(A)`` of ``coeffs`` row ``i`` on its grid row.

    Row ``i`` equals ``PolynomialNonlinearity(*coeffs[i])``'s
    ``describing_function`` on its grid bit for bit.  The closed form
    ``a1 + (3/4) a3 A^2`` fills the whole table at once; the saturating
    quadrature runs only on the (device, amplitude) cells beyond a
    device's fold-back point, in blocks of at most
    ``_QUADRATURE_BLOCK`` cells.  Where ``clip`` leaves an abscissa
    alone its cube comes from ``cube_cells``; where it clips to the
    saturation amplitude ``s``, the row's own ``(+-s) ** 3``.

    ``grid`` is one ascending grid shared by every row ``(G,)`` or one
    per row ``(N, G)``; ``grid_sq`` is ``grid ** 2`` and ``sat`` the
    rows' :func:`saturation_amplitudes`.  ``cube_cells(rows, cols)``
    returns the abscissa cubes of the saturated cells ``(rows, cols)``
    as a fresh ``(cells, 128)`` array.
    """
    a1, a2, a3 = (coeffs[:, k : k + 1] for k in range(3))
    table = 0.75 * a3 * grid_sq
    table += a1
    shared = grid.ndim == 1
    # grids ascend, so only rows saturating below their grid's top have cells
    sat_rows = np.flatnonzero(np.isfinite(sat) & (sat < grid[..., -1]))
    if not len(sat_rows):
        return table
    over = grid[None, :] if shared else grid[sat_rows]
    sub, cols = np.nonzero(over > sat[sat_rows, None])
    rows = sat_rows[sub]
    if not len(rows):
        return table
    # each saturating row's clip bounds, cubed once
    s_rows = sat[sat_rows]
    hi3 = s_rows**3
    lo3 = (-s_rows) ** 3
    for start in range(0, len(rows), _QUADRATURE_BLOCK):
        block = slice(start, start + _QUADRATURE_BLOCK)
        r, c, k = rows[block], cols[block], sub[block]
        a_over = grid[c] if shared else grid[r, c]
        s = sat[r][:, None]
        # f(A cos t) of the clipped (saturating) polynomial, per cell;
        # clip hands back u, -s or s bit for bit, so x**3 is u's cube
        # from the table or the bound's own
        u = a_over[:, None] * _COS_THETA[None, :]
        x = np.clip(u, -s, s)
        x3 = cube_cells(r, c)
        np.copyto(x3, lo3[k, None], where=_same_bits(x, -s))
        np.copyto(x3, hi3[k, None], where=_same_bits(x, s))
        y = a1[r] * x + a2[r] * x**2 + a3[r] * x3
        first = np.mean(y * _COS_THETA[None, :], axis=1) * 2.0
        table[r, c] = first / a_over
    return table


def _knot_search(grids: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``searchsorted(grids[s], x[s], side="right") - 1`` for every row.

    ``grids`` are ``linspace(0, top, P)`` rows with a positive finite
    step ``grids[:, 1]``, so ``floor(x / step)`` lands within a knot of
    the answer; it is corrected against the grid itself until each ``j``
    has ``grids[s, j] <= x < grids[s, j + 1]`` (-1 left of the grid,
    ``P - 1`` at or past its end and for NaN, as a NaN sorts last).
    """
    n_rows, points = grids.shape
    est = x / grids[:, 1:2]
    j = np.where(
        np.isnan(est), points - 1, np.clip(np.floor(est), -1, points - 1)
    ).astype(np.intp)
    base = np.arange(n_rows)[:, None] * points
    while True:
        down = (j >= 0) & (np.take(grids, base + np.maximum(j, 0)) > x)
        up = (j < points - 1) & (np.take(grids, base + np.minimum(j + 1, points - 1)) <= x)
        if not (down.any() or up.any()):
            return j
        j = j - down + up


class GainLot:
    """A device lot on the grids of a :class:`DescribingGainStack`.

    Holds the lot's ``(N, 3)`` polynomial rows, their
    :func:`saturation_amplitudes` and their quadrature cubes: record
    ``s``'s table is :func:`quadrature_cubes` of its grid and the lot's
    saturation amplitudes, built when a row block first needs it.
    Record-major row blocks never return to an earlier record, so its
    table is dropped once a block starts past it.
    """

    def __init__(self, grids: np.ndarray, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=float).reshape(-1, 3)
        self.sat = saturation_amplitudes(self.coeffs)
        self._grids = grids
        self._tables: Dict[int, Optional[QuadratureCubes]] = {}

    def cubes(self, records: Union[int, np.ndarray], cols: np.ndarray) -> np.ndarray:
        """The cubes of cells ``(record records[i], column cols[i])``, as a
        fresh ``(cells, 128)`` array (``records`` may be one record)."""
        records = np.broadcast_to(records, cols.shape)
        first = int(records.min())
        for s in [s for s in self._tables if s < first]:
            del self._tables[s]
        out = np.empty((len(cols), len(_COS_THETA)))
        for s in np.unique(records).tolist():
            if s not in self._tables:
                self._tables[s] = quadrature_cubes(self._grids[s], self.sat)
            table = self._tables[s]
            mine = records == s
            c = cols[mine]
            if table is None or c.min() < table.start:
                raise ValueError("cubes do not cover the saturated cells of this grid")
            out[mine] = table.values[c - table.start]
        return out


@dataclass(frozen=True)
class DescribingGainStack:
    """Tuned-coupling DUT gains over a stack of ``S`` envelope records.

    The stacked form of the one-record oracle
    :class:`repro.verify.reference.DescribingGains`: record ``s`` has drive
    magnitudes ``amps[s]`` and peak drive ``peaks[s]``.  The grids
    ``linspace(0, 1.01 * peak, 256)`` of every record come from one
    ``linspace`` call and their knot searches over ``amps`` are stacked
    ``(S, n)`` arrays, built once per stack (:meth:`build`).  A call
    computes one row block: each row pairs a device of a
    :class:`GainLot` with one record, and the block's describing-gain
    table (one grid row per row) and its interpolation run as
    whole-block array operations.  Rows of one record read its grid and
    knots as views; rows of several gather them.  Each row equals
    ``DescribingGains`` of its record bit for bit; a record whose
    peak is not positive gives the small-signal gain ``a1``.
    """

    #: ``(S, n)`` drive magnitudes
    amps: np.ndarray
    #: ``(S,)`` whether the record's peak is positive (it has a grid)
    active: np.ndarray
    #: ``(S, 256)`` each active record's grid (zeros otherwise), its
    #: squares and its knot spacings (ones otherwise)
    grids: np.ndarray
    grid_sq: np.ndarray
    steps: np.ndarray
    #: ``(S, n)`` knot search: interval ``jc`` and offset ``dx`` of each
    #: magnitude (``np.interp``'s, see
    #: :class:`repro.verify.reference.RowInterpolator`)
    jc: np.ndarray
    dx: np.ndarray
    #: ``(S, n)`` cells on a knot or past the grid's end (NaN included),
    #: which take the table value itself, and NaN magnitudes stay NaN;
    #: ``fixed`` ``(S,)`` flags the records that have any such cell
    exact: np.ndarray
    fixed: np.ndarray

    @classmethod
    def build(cls, amps: np.ndarray, peaks: np.ndarray) -> "DescribingGainStack":
        """Grids and knot searches of the records ``amps`` ``(S, n)``."""
        amps = np.asarray(amps, dtype=float)
        n_rec = len(amps)
        peaks = np.asarray(peaks, dtype=float).reshape(n_rec)
        points = DESCRIBING_TABLE_POINTS
        active = peaks > 0.0
        stops = 1.01 * peaks
        grids = np.zeros((n_rec, points))
        # one linspace over every record whose own linspace takes the
        # ``arange * step`` branch: a zero step anywhere (a denormal peak)
        # switches a stacked call to its ``/ div * delta`` branch for all
        # rows, so such records (and non-finite ones) are built alone
        stacked = active & np.isfinite(stops) & (stops / (points - 1) != 0.0)
        if stacked.any():
            grids[stacked] = np.linspace(0.0, stops[stacked], points, axis=1)
        for s in np.flatnonzero(active & ~stacked).tolist():
            grids[s] = np.linspace(0.0, stops[s], points)
        steps = grids[:, 1:] - grids[:, :-1]
        steps[~active] = 1.0
        # j with grid[j] <= amp < grid[j + 1]; -1 left of the grid
        j = np.zeros(amps.shape, dtype=np.intp)
        if stacked.all():
            j = _knot_search(grids, amps)
        elif stacked.any():
            j[stacked] = _knot_search(grids[stacked], amps[stacked])
        for s in np.flatnonzero(active & ~stacked).tolist():
            j[s] = np.searchsorted(grids[s], amps[s], side="right") - 1
        jc = np.clip(j, 0, points - 2)
        at_jc = np.take_along_axis(grids, jc, axis=1)
        exact = (j < 0) | (j >= points - 1) | (at_jc == amps)
        exact[~active] = False
        return cls(
            amps=amps,
            active=active,
            grids=grids,
            grid_sq=grids**2,
            steps=steps,
            jc=jc,
            dx=amps - at_jc,
            exact=exact,
            fixed=exact.any(axis=1),
        )

    def __len__(self) -> int:
        return len(self.amps)

    def __getitem__(self, key: slice) -> "DescribingGainStack":
        """The records ``key`` as a stack of views."""
        return DescribingGainStack(*(getattr(self, f.name)[key] for f in fields(self)))

    def nbytes(self) -> int:
        """Bytes of the grids and knot searches (``amps``, the first
        field, excluded)."""
        return sum(getattr(self, f.name).nbytes for f in fields(self)[1:])

    def lot(self, coeffs: np.ndarray) -> GainLot:
        """The device lot of polynomial rows ``coeffs`` on these grids."""
        return GainLot(self.grids, coeffs)

    def __call__(
        self,
        lot: GainLot,
        devices: Union[slice, np.ndarray],
        records: Union[int, np.ndarray],
    ) -> np.ndarray:
        """``(B, n)`` gains of a row block: row ``i`` is device
        ``lot.coeffs[devices][i]`` on record ``records`` (one record) or
        ``records[i]``."""
        coeffs = lot.coeffs[devices]
        single = np.ndim(records) == 0
        if single and not self.active[records]:
            return np.repeat(coeffs[:, :1], self.amps.shape[1], axis=1)
        grid, grid_sq, steps, jc, dx = (
            a[records] for a in (self.grids, self.grid_sq, self.steps, self.jc, self.dx)
        )

        def cube_cells(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
            return lot.cubes(records if single else records[rows], cols)

        table = _describing_table(coeffs, lot.sat[devices], grid, grid_sq, cube_cells)
        if not single:
            # a[i, jc[i]] per row of a (B, 256) block, as one flat take
            jc = jc + np.arange(len(table))[:, None] * table.shape[1]

        def take(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return np.take(a, idx, axis=-1 if single else None)

        # np.interp's formula (see repro.verify.reference.RowInterpolator);
        # it never warns.  The slopes sit in a table-wide buffer so one
        # index serves both.
        with np.errstate(all="ignore"):
            slopes = np.empty_like(table)
            np.subtract(table[:, 1:], table[:, :-1], out=slopes[:, :-1])
            slopes[:, :-1] /= steps
            f_lo = take(table, jc)
            out = take(slopes, jc)
            out *= dx
            out += f_lo
            nan = np.isnan(out)
            if nan.any():
                f_hi = take(table, jc + 1)
                x_hi = take(grid, jc + 1)
                retry = take(slopes, jc) * (self.amps[records] - x_hi) + f_hi
                out[nan] = retry[nan]
                flat = np.isnan(out) & (f_lo == f_hi)
                out[flat] = f_lo[flat]
        # exact cells take the table at their knot: jc, or the grid's end
        # for magnitudes not below it (NaN included, which then stays NaN)
        if single:
            if self.fixed[records]:
                cols = np.flatnonzero(self.exact[records])
                x = self.amps[records, cols]
                out[:, cols] = table[:, self.jc[records, cols] + ~(x < grid[-1])]
                nan = np.isnan(x)
                out[:, cols[nan]] = x[nan]
            return out
        if self.fixed[records].any():
            rows, cols = np.nonzero(self.exact[records])
            x = self.amps[records[rows], cols]
            knots = self.jc[records[rows], cols] + ~(x < grid[rows, -1])
            out[rows, cols] = table[rows, knots]
            nan = np.isnan(x)
            out[rows[nan], cols[nan]] = x[nan]
        idle = ~self.active[records]
        if idle.any():
            out[idle] = coeffs[idle, :1]
        return out


def describing_gain_batch(
    coeffs: np.ndarray, amps: np.ndarray, peak: float
) -> np.ndarray:
    """Tuned-coupling DUT gains: ``(N, len(amps))``, one row per device.

    Row ``i`` equals ``np.interp(amps, grid, describing_function(grid))``
    for device ``i`` bit for bit: a one-record
    :class:`DescribingGainStack`.
    """
    stack = DescribingGainStack.build(np.asarray(amps, dtype=float)[None, :], [peak])
    return stack(stack.lot(coeffs), slice(None), 0)
