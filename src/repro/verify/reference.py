"""The capture oracles: the uncompiled, whole-batch signature path.

:class:`~repro.loadboard.signature_path.SignatureTestBoard` runs every
capture as a compiled mixer-2 tape over cache-sized row blocks.  The
functions here run the same physics the plain way -- each stage over
the whole batch at once, the downconversion through the generic
envelope algebra (:func:`~repro.loadboard.signature_path.mix_envelope`)
-- and the board must equal them bit for bit.  They take a board and
read its configuration, plan cache, filter and digitizer, so a result
differs from the board's own only by how it was computed.

The digitizer's jitter step has its one-record oracle here too
(:func:`sample_jitter`).

The tuned DUT gain has its own oracle here: :class:`DescribingGains`
tabulates one record's describing gains on one grid and interpolates
them with :class:`RowInterpolator` (``np.interp`` per row), which
:class:`~repro.circuits.nonlinear.DescribingGainStack` must equal for
every record of its stack.

Only tests, :mod:`repro.verify.relations` and the capture benchmarks
call them; no production path does.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.circuits.device import RFDevice
from repro.circuits.nonlinear import (
    DESCRIBING_TABLE_POINTS,
    QuadratureCubes,
    _describing_table,
    quadrature_cubes,
    saturation_amplitudes,
)
from repro.dsp.units import undb20
from repro.dsp.waveform import Waveform
from repro.loadboard.envelope import EnvelopeSignal
from repro.loadboard.signature_path import (
    CapturePlan,
    RngList,
    SignatureTestBoard,
    Stimulus,
    _add_noise_rows,
    _noisy_rows,
    _wideband_terms,
    device_noise_sigmas,
    envelope_coefficients,
    mix_envelope,
    resolve_rng_streams,
)

__all__ = [
    "DescribingGains",
    "RowInterpolator",
    "add_device_noise",
    "add_device_noise_batch",
    "describing_gain_tables",
    "dut_response_batch",
    "interp_rows",
    "reference_front_matrix",
    "reference_signature_batch",
    "sample_jitter",
]


def add_device_noise(
    env: np.ndarray,
    devices: Sequence[RFDevice],
    gens: RngList,
    engine_rate: float,
) -> np.ndarray:
    """Each DUT's added thermal noise on its complex carrier envelope row.

    The complex envelope of bandpass noise occupying ``engine_rate``
    hertz around the carrier has independent gaussian quadratures of
    standard deviation equal to the real noise RMS in that band.  Row
    ``i`` of ``env`` (shape ``(N, n)``) gains ``sigma_i * (re + 1j im)``
    (:func:`~repro.loadboard.signature_path.device_noise_sigmas`) with
    ``re`` then ``im`` drawn from ``gens[i]`` -- the draw order of a
    one-device capture -- and rows without a generator or without added
    noise pass through untouched; a NaN sigma draws and turns its row
    NaN.  The result is a copy; with no noisy row, ``env`` itself comes
    back.
    """
    sigmas = device_noise_sigmas(devices, gens, engine_rate)
    rows = _noisy_rows(sigmas)
    if not len(rows):
        return env
    noisy = np.array(env, dtype=complex)
    _add_noise_rows(noisy, sigmas, gens, rows)
    return noisy


def add_device_noise_batch(
    board: SignatureTestBoard,
    dut_out: EnvelopeSignal,
    devices: Sequence[RFDevice],
    gens: RngList,
) -> EnvelopeSignal:
    """Inject each DUT's added thermal noise on the carrier band.

    :func:`add_device_noise` on harmonic 1; the other harmonics carry
    through untouched.
    """
    envs = dict(dut_out.envelopes)
    envs[1] = add_device_noise(
        dut_out.harmonic(1), devices, gens, board.config.engine_rate
    )
    return EnvelopeSignal(envs, dut_out.sample_rate, dut_out.carrier_freq)


def dut_response_batch(
    board: SignatureTestBoard, plan: CapturePlan, devices: Sequence[RFDevice]
) -> EnvelopeSignal:
    """DUT outputs for a batch: one ``(batch, n)`` envelope signal.

    Row ``i`` is bit-identical to pushing ``plan.dut_in`` through
    device ``i`` alone.
    """
    coeffs = envelope_coefficients(devices)
    return board._dut_rows(plan, coeffs, _wideband_terms(coeffs), slice(None), 0)


def reference_front_matrix(
    board: SignatureTestBoard,
    devices: Sequence[RFDevice],
    stimulus: Stimulus,
    gens: RngList,
) -> np.ndarray:
    """Filtered baseband for a batch, stopping short of the digitizer.

    The uncompiled analog front half of :func:`reference_signature_batch`:
    plan, DUT response, fixture output loss, device noise, mixer-2
    downconversion through :func:`mix_envelope` and the anti-alias LPF,
    each over the whole batch at once.
    """
    cfg = board.config
    plan = board.capture_plan(stimulus)
    dut_out = dut_response_batch(board, plan, devices)
    dut_out = board._envelope_bandwidth_batch(dut_out, devices)

    if cfg.output_loss_db > 0.0:
        dut_out = dut_out.scale(undb20(-cfg.output_loss_db))

    if cfg.include_device_noise and any(g is not None for g in gens):
        dut_out = add_device_noise_batch(board, dut_out, devices, gens)

    if cfg.random_path_phase:
        lo2 = board._random_lo2(gens, plan.n)
    else:
        lo2 = plan.lo2
    downconverted = mix_envelope(cfg.mixer2, dut_out, lo2, cfg.max_harmonic)

    baseband = downconverted.keep_harmonics([0]).baseband()
    return board._lpf.apply_fft_matrix(baseband)


def reference_signature_batch(
    board: SignatureTestBoard,
    devices: Sequence[RFDevice],
    stimulus: Stimulus,
    rng: Optional[np.random.Generator] = None,
    n_bins: Optional[int] = None,
    log_scale: bool = False,
    *,
    rngs: Optional[RngList] = None,
) -> np.ndarray:
    """The test oracle for ``board.signature_batch``: uncompiled algebra.

    Same arguments and, bit for bit, the same result as
    :meth:`~repro.loadboard.signature_path.SignatureTestBoard.signature_batch`,
    with the whole batch run through every stage at once and the
    mixer-2 downconversion run through the generic envelope algebra
    instead of the compiled program.
    """
    devices = list(devices)
    gens = resolve_rng_streams(rng, rngs, len(devices))
    filtered = reference_front_matrix(board, devices, stimulus, gens)
    return board._signature_rows(
        board.digitize_matrix(filtered, gens), n_bins, log_scale
    )


def sample_jitter(
    wf: Waveform,
    jitter_rms_seconds: float,
    rng: Optional[np.random.Generator] = None,
) -> Waveform:
    """Model sampling-clock jitter by resampling at perturbed instants.

    Each nominal sample instant is shifted by independent gaussian jitter
    and the record is linearly interpolated at the perturbed instants.
    The one-record oracle of the jitter step in
    :meth:`~repro.instruments.digitizer.BasebandDigitizer.capture_matrix`.
    """
    if jitter_rms_seconds < 0:
        raise ValueError("jitter must be non-negative")
    if jitter_rms_seconds == 0.0:
        return wf.copy()
    rng = rng if rng is not None else np.random.default_rng()
    t = wf.times()
    jittered = t + rng.normal(0.0, jitter_rms_seconds, size=len(wf))
    # keep instants inside the record so interpolation never extrapolates
    jittered = np.clip(jittered, t[0], t[-1])
    return Waveform(np.interp(jittered, t, wf.samples), wf.sample_rate, wf.t0)


# ----------------------------------------------------------------------
# the tuned DUT gain, one record at a time
# ----------------------------------------------------------------------
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
    sat = saturation_amplitudes(coeffs)

    def cube_cells(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        nonlocal cubes
        if cubes is None:
            cubes = quadrature_cubes(grid, sat)
        elif cols.min() < cubes.start or len(cubes.values) != len(grid) - cubes.start:
            raise ValueError("cubes do not cover the saturated cells of this grid")
        return cubes.values[cols - cubes.start]

    return _describing_table(coeffs, sat, grid, grid**2, cube_cells)


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
