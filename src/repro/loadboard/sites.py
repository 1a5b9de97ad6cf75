"""Multi-site insertions: N DUTs per handler touchdown on one load board.

The economics model (:class:`repro.runtime.economics.FlowEconomics`)
already prices multi-site test -- quad-site insertions quarter the
per-device tester seconds for a modest board-capital premium -- but the
signature path could only simulate one DUT per insertion.  This module
closes that gap with :class:`MultiSiteBoard`: a load board carrying
``n_sites`` copies of the signature path of Figure 2/3, captured in one
insertion, with the three degradations a real multi-site board adds:

* **site-to-site crosstalk** -- the per-site baseband traces share
  routing into the shared digitizer, so a fraction of every other
  occupied site's filtered baseband leaks into each site's record
  (scalar uniform coupling or a full per-pair matrix);
* **per-site fixture-loss skew** -- each site's socket/trace adds its
  own output loss on top of the base configuration;
* **shared-instrument contention** -- one LO and one digitizer serve
  all sites, so per-site readout and LO arbitration serialize; the
  insertion time grows with occupancy and the stream metrics can
  observe the arbitration overhead.

Determinism contract
--------------------
Devices are assigned round-robin: lot position ``i`` lands on site
``i % n_sites``, insertion ``i // n_sites``.  Each site's devices run
the *unchanged* single-site front end
(:meth:`~repro.loadboard.signature_path.SignatureTestBoard.filtered_baseband_matrix`)
of a per-site board, crosstalk couples the filtered-baseband rows of
co-inserted devices, and each site's records then pass through the
shared digitize stage with the same per-device RNG streams a serial
capture would use.  With zero coupling the coupling stage is skipped
entirely, so an N-site capture is bit-identical (``np.array_equal``) to
N independent single-site captures on the per-site boards -- the
``multisite-serial-equivalence`` relation in :mod:`repro.verify`
enforces exactly that on every executor backend.

Chunk alignment
---------------
Crosstalk groups are positional, so splitting a lot mid-insertion would
change the physics.  :attr:`MultiSiteBoard.chunk_alignment` publishes
``n_sites``; the executor layer (``_chunk_bounds``) rounds every chunk
boundary to a multiple of it, keeping streamed/chunked captures
bit-identical to the whole-lot capture.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.device import RFDevice
from repro.dsp.spectral import fft_magnitude_signature_matrix
from repro.dsp.waveform import PiecewiseLinearStimulus, Waveform
from repro.loadboard.signature_path import (
    RngList,
    SignaturePathConfig,
    SignatureTestBoard,
    resolve_rng_streams,
)

__all__ = ["MultiSiteConfig", "MultiSiteBoard"]


@dataclass
class MultiSiteConfig:
    """Degradations of an ``n_sites``-up load board.

    ``crosstalk_coupling`` is the linear fraction of every *other*
    occupied site's filtered baseband that leaks into each site's
    record (0 = perfect isolation); ``coupling_matrix`` overrides it
    with a full per-pair ``(n_sites, n_sites)`` matrix whose diagonal
    must be zero.  ``site_loss_skew_db`` adds per-site output fixture
    loss on top of the base configuration.  The contention fields model
    the shared-instrument arbitration: every occupied site pays one
    serialized digitizer readout, and each additional occupied site one
    LO retune.
    """

    n_sites: int = 4
    crosstalk_coupling: float = 0.0
    coupling_matrix: Optional[np.ndarray] = None
    site_loss_skew_db: Optional[Sequence[float]] = None
    lo_retune_seconds: float = 0.0
    digitizer_readout_seconds: float = 0.0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if self.lo_retune_seconds < 0 or self.digitizer_readout_seconds < 0:
            raise ValueError("contention times must be non-negative")
        if self.coupling_matrix is not None:
            mat = np.asarray(self.coupling_matrix, dtype=float)
            if mat.shape != (self.n_sites, self.n_sites):
                raise ValueError(
                    f"coupling_matrix must be ({self.n_sites}, {self.n_sites})"
                )
            if np.any(np.diag(mat) != 0.0):
                raise ValueError("coupling_matrix diagonal must be zero")
            self.coupling_matrix = mat
        if self.site_loss_skew_db is not None:
            skew = [float(s) for s in self.site_loss_skew_db]
            if len(skew) != self.n_sites:
                raise ValueError("need one loss-skew entry per site")
            if any(s < 0.0 for s in skew):
                raise ValueError("site loss skew must be non-negative dB")
            self.site_loss_skew_db = skew

    @property
    def has_crosstalk(self) -> bool:
        """True when any site-to-site coupling is configured."""
        if self.coupling_matrix is not None:
            return bool(np.any(self.coupling_matrix != 0.0))
        return self.crosstalk_coupling != 0.0


class MultiSiteBoard:
    """An ``n_sites``-up signature load board captured per insertion.

    One :class:`~repro.loadboard.signature_path.SignatureTestBoard` is
    built per site (sharing the base configuration, plus that site's
    loss skew), so a site's isolated physics is *exactly* the
    single-site board's.  The multi-site capture runs every site's
    analog front end, couples the co-inserted filtered-baseband rows,
    and digitizes through the per-site back ends.

    Exposes the same duck-typed surface the runtime layer dispatches on
    (``signature_batch`` / ``config`` / ``site_of``), so
    ``measure_signatures``, :class:`~repro.runtime.production.ProductionTestFlow`
    and the streaming service work unchanged.
    """

    def __init__(self, config: SignaturePathConfig, sites: MultiSiteConfig):
        self.sites = sites
        skew = sites.site_loss_skew_db or [0.0] * sites.n_sites
        self.site_boards: List[SignatureTestBoard] = [
            SignatureTestBoard(
                replace(config, output_loss_db=config.output_loss_db + skew[j])
            )
            for j in range(sites.n_sites)
        ]
        #: the base (site-0-skew-free) configuration; timing fields are
        #: shared by all sites, so runtime code may read it directly
        self.config = config

    # ------------------------------------------------------------------
    # lot geometry
    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        return self.sites.n_sites

    @property
    def chunk_alignment(self) -> int:
        """Executor chunk boundaries must be multiples of this.

        Crosstalk couples positional insertion groups of ``n_sites``
        devices; aligned chunks keep any chunking bit-identical to the
        whole-lot capture.
        """
        return self.sites.n_sites

    def site_of(self, lot_position: int) -> int:
        """The site testing the device at this (chunk-local) position."""
        return int(lot_position) % self.sites.n_sites

    def site_indices(self, n_devices: int) -> List[List[int]]:
        """Per-site lot positions for an ``n_devices`` lot (round-robin)."""
        return [
            list(range(j, n_devices, self.sites.n_sites))
            for j in range(self.sites.n_sites)
        ]

    # ------------------------------------------------------------------
    # shared-instrument contention (pure timing, no signal effect)
    # ------------------------------------------------------------------
    def insertion_test_time(self, occupied: Optional[int] = None) -> float:
        """Tester seconds for one insertion with ``occupied`` sites live.

        All sites capture concurrently (one stimulus replay), but the
        shared digitizer reads the sites out serially and the shared LO
        re-arbitrates between consecutive readouts: ``occupied``
        readouts plus ``occupied - 1`` retunes on top of the single-site
        setup + capture time.
        """
        occupied = self.sites.n_sites if occupied is None else int(occupied)
        if not (0 < occupied <= self.sites.n_sites):
            raise ValueError("occupied must be in 1..n_sites")
        cfg = self.config
        return (
            cfg.setup_time
            + cfg.capture_seconds
            + occupied * self.sites.digitizer_readout_seconds
            + (occupied - 1) * self.sites.lo_retune_seconds
        )

    def arbitration_seconds(self, occupied: Optional[int] = None) -> float:
        """Serialized-instrument overhead of one insertion.

        The extra tester seconds versus ``occupied`` ideal parallel
        single-site insertions sharing one setup -- what the per-site
        stream metrics report as contention wait.
        """
        occupied = self.sites.n_sites if occupied is None else int(occupied)
        single = self.sites.digitizer_readout_seconds
        return self.insertion_test_time(occupied) - (
            self.config.setup_time + self.config.capture_seconds + single
        )

    def device_test_time(self) -> float:
        """Amortized tester seconds per device at full occupancy."""
        return self.insertion_test_time() / self.sites.n_sites

    # ------------------------------------------------------------------
    # the coupled capture
    # ------------------------------------------------------------------
    def _couple_filtered(
        self, filtered_site: List[np.ndarray]
    ) -> List[np.ndarray]:
        """Mix co-inserted filtered-baseband rows site-to-site.

        Row ``k`` of each site's matrix is insertion ``k``; only sites
        occupied in the same insertion couple (partial final insertions
        leak only between their live sites).  Zero coupling returns the
        inputs untouched -- the bit-exactness guard behind the
        ``multisite-serial-equivalence`` relation.
        """
        sites = self.sites
        if not sites.has_crosstalk:
            return filtered_site
        lens = [f.shape[0] for f in filtered_site]
        if sites.coupling_matrix is None:
            c = sites.crosstalk_coupling
            max_rows = max(lens)
            n = filtered_site[0].shape[-1]
            totals = np.zeros((max_rows, n))
            for f in filtered_site:
                totals[: f.shape[0]] += f
            return [
                f + c * (totals[: f.shape[0]] - f) for f in filtered_site
            ]
        coupled = [np.array(f, copy=True) for f in filtered_site]
        for j, out in enumerate(coupled):
            for j2, f2 in enumerate(filtered_site):
                if j2 == j:
                    continue
                common = min(lens[j], lens[j2])
                out[:common] += sites.coupling_matrix[j, j2] * f2[:common]
        return coupled

    def _capture_matrix(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator],
        rngs: Optional[RngList],
    ) -> np.ndarray:
        """Digitized records for a lot, in lot order, crosstalk applied."""
        devices = list(devices)
        gens = resolve_rng_streams(rng, rngs, len(devices))
        per_site = self.site_indices(len(devices))

        filtered_site: List[np.ndarray] = []
        site_gens: List[List] = []
        for j, board in enumerate(self.site_boards):
            idx = per_site[j]
            f, g = board.filtered_baseband_matrix(
                [devices[i] for i in idx],
                stimulus,
                rngs=[gens[i] for i in idx],
            )
            filtered_site.append(f)
            site_gens.append(g)

        coupled = self._couple_filtered(filtered_site)

        out: Optional[np.ndarray] = None
        for j, board in enumerate(self.site_boards):
            mat_j = board.digitize_matrix(coupled[j], site_gens[j])
            if out is None:
                out = np.empty((len(devices), mat_j.shape[-1]))
            out[per_site[j]] = mat_j
        if out is None:  # unreachable: n_sites >= 1 is validated
            raise RuntimeError("multi-site board built with no sites")
        return out

    def capture_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        *,
        rngs: Optional[RngList] = None,
    ) -> List[Waveform]:
        """One digitized record per device, in lot order.

        With zero crosstalk, record ``i`` is bit-identical to capturing
        device ``i`` alone on ``site_boards[site_of(i)]`` with the same
        per-device generator.
        """
        mat = self._capture_matrix(devices, stimulus, rng, rngs)
        return [
            Waveform(row, self.config.digitizer_rate, 0.0) for row in mat
        ]

    def signature_batch(
        self,
        devices: Sequence[RFDevice],
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        n_bins: Optional[int] = None,
        log_scale: bool = False,
        *,
        rngs: Optional[RngList] = None,
    ) -> np.ndarray:
        """FFT-magnitude signatures for a lot, shape ``(batch, m)``.

        The duck-typed surface ``measure_signatures`` / the production
        flow / the streaming service dispatch on.  Empty lots yield
        ``(0, m)`` with the same bin count as any non-empty batch.
        """
        mat = self._capture_matrix(devices, stimulus, rng, rngs)
        return fft_magnitude_signature_matrix(
            mat, n_bins=n_bins, log_scale=log_scale
        )

    def capture(
        self,
        device: RFDevice,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
    ) -> Waveform:
        """One device on site 0 (an insertion with the other sites empty)."""
        return self.capture_batch([device], stimulus, rngs=[rng])[0]

    def signature(
        self,
        device: RFDevice,
        stimulus: Union[Waveform, PiecewiseLinearStimulus],
        rng: Optional[np.random.Generator] = None,
        n_bins: Optional[int] = None,
        log_scale: bool = False,
    ) -> np.ndarray:
        """One device on site 0 (an insertion with the other sites empty)."""
        return self.signature_batch(
            [device], stimulus, rngs=[rng], n_bins=n_bins, log_scale=log_scale
        )[0]

    def overdrive_snapshot(self) -> Tuple[float, np.ndarray]:
        """Worst per-site overdrive of the last capture (site order)."""
        peaks = []
        ratio_blocks = []
        for board in self.site_boards:
            peak, ratios = board.overdrive_snapshot()
            peaks.append(peak)
            ratio_blocks.append(np.asarray(ratios))
        return max(peaks), np.concatenate(ratio_blocks)

    def peak_drive(
        self, stimulus: Union[Waveform, PiecewiseLinearStimulus]
    ) -> float:
        """Site 0's peak DUT drive for this stimulus, without capturing.

        Site skew only adds output loss, so every site sees this drive.
        """
        return self.site_boards[0].peak_drive(stimulus)
