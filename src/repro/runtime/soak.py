"""Soak campaigns: sustained-load exercise of the streaming service.

``repro serve`` and ``repro soak`` (and the CI ``soak`` job behind
``make soak``) all run the same driver: build a small calibrated flow,
stream seeded wafer-map traffic through :class:`StreamingTestService`
for a wall-clock budget, drain records concurrently, and report the
floor metrics -- DUTs/sec, p50/p99 per-device latency, queue depth,
yield -- as one JSON-able payload.

The load is deterministic (every lot's devices and capture seeds derive
from the master seed) even though the *duration* is wall-clock bound:
a longer run simply consumes a longer prefix of the same campaign.
Each soak also re-runs its first lot through the offline
``ProductionTestFlow.run`` and asserts bit-equality, so a soak that
passes has exercised the correctness contract too, not just the
plumbing.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.circuits.device import SpecSet
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.signature_path import SignatureTestBoard, simulation_config
from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig
from repro.regression.linear import RidgeRegression
from repro.regression.pipeline import Pipeline
from repro.regression.scaling import StandardScaler
from repro.runtime.calibration import CalibrationModel, measure_signatures
from repro.runtime.executor import Executor, spawn_seeds
from repro.runtime.monitoring import StreamHealthMonitor
from repro.runtime.production import ProductionTestFlow
from repro.runtime.service import StreamingTestService
from repro.runtime.specs import lna_limits
from repro.runtime.stream import StreamRecord
from repro.runtime.trafficgen import TrafficGenerator, WaferMapProfile

__all__ = ["build_soak_flow", "run_soak"]


def build_soak_flow(
    seed: int,
    n_train: int = 32,
    profile: Optional[WaferMapProfile] = None,
    limits=None,
    sites: int = 1,
) -> ProductionTestFlow:
    """A small calibrated production flow, deterministic in ``seed``.

    Trains a plain standardize+ridge calibration (no model-zoo CV -- a
    soak measures the service, not the regressor) on ``n_train``
    wafer-map devices and returns a flow with datasheet limits wired
    in, ready for :class:`StreamingTestService`.

    With ``sites > 1`` the flow captures through a
    :class:`~repro.loadboard.sites.MultiSiteBoard` with mild crosstalk
    and shared-instrument contention, so the soak exercises the
    site-aligned chunking and the per-site stream metrics; calibration
    trains through the same multi-site path.
    """
    if n_train < 8:
        raise ValueError("need at least 8 training devices")
    if sites < 1:
        raise ValueError("sites must be >= 1")
    profile = profile if profile is not None else WaferMapProfile()
    stim_seq, train_seq, noise_seq = spawn_seeds(int(seed), 3)

    # the paper's Section 4.1 signature path, unchanged: soak DUTs/sec
    # numbers stay comparable with the capture hot-path benchmark
    if sites > 1:
        board = MultiSiteBoard(
            simulation_config(),
            MultiSiteConfig(
                n_sites=sites,
                crosstalk_coupling=0.01,
                lo_retune_seconds=1e-3,
                digitizer_readout_seconds=2e-3,
            ),
        )
    else:
        board = SignatureTestBoard(simulation_config())
    stim_rng = np.random.default_rng(stim_seq)
    stimulus = PiecewiseLinearStimulus(
        stim_rng.uniform(-0.3, 0.3, 8), board.config.capture_seconds
    )

    train_rng = np.random.default_rng(train_seq)
    devices: List = []
    while len(devices) < n_train:
        devices.extend(profile.wafer_devices(train_rng))
    devices = devices[:n_train]
    signatures = measure_signatures(
        board, stimulus, devices, np.random.default_rng(noise_seq)
    )
    spec_matrix = np.vstack([d.specs().as_vector() for d in devices])

    pipelines = {}
    for j, name in enumerate(SpecSet.NAMES):
        pipeline = Pipeline([StandardScaler(), RidgeRegression(alpha=1.0)])
        pipeline.fit(signatures, spec_matrix[:, j])
        pipelines[name] = pipeline
    calibration = CalibrationModel(
        spec_names=SpecSet.NAMES,
        pipelines=pipelines,
        chosen={name: "ridge_1" for name in SpecSet.NAMES},
        cv_scores={name: {"ridge_1": float("nan")} for name in SpecSet.NAMES},
    )
    return ProductionTestFlow(
        board,
        stimulus,
        calibration,
        limits=limits if limits is not None else lna_limits(),
    )


class _Drain(threading.Thread):
    """Concurrent record consumer: counts outcomes, keeps the first lot.

    Only ``run`` (the drain thread) writes the counters; the main
    thread reads them strictly after ``join()`` returns, so the join's
    happens-before edge replaces a lock.
    """

    def __init__(self, service: StreamingTestService):
        super().__init__(name="repro-soak-drain", daemon=True)
        self.service = service
        self.n_records = 0
        self.n_passed = 0
        self.n_judged = 0
        self.first_lot: List[StreamRecord] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            for stream_record in self.service.records():
                self.n_records += 1
                if stream_record.lot_id == 0:
                    self.first_lot.append(stream_record)
                passed = stream_record.record.passed
                if passed is not None:
                    self.n_judged += 1
                    self.n_passed += int(passed)
        except BaseException as exc:  # pragma: no cover - surfaced by caller
            self.error = exc


def _check_first_lot(
    flow: ProductionTestFlow, order, streamed: List[StreamRecord]
) -> bool:
    """Bit-equality of the soak's first lot against the offline flow."""
    offline = flow.run(order.devices, np.random.default_rng(order.seed))
    if len(streamed) != len(offline.records):
        return False
    for stream_record, reference in zip(streamed, offline.records):
        record = stream_record.record
        if record.device_id != reference.device_id:
            return False
        if not np.array_equal(record.signature, reference.signature):
            return False
        if not np.array_equal(
            record.predicted.as_vector(), reference.predicted.as_vector()
        ):
            return False
        if record.passed != reference.passed:
            return False
    return True


def run_soak(
    seed: int = 2002,
    seconds: float = 60.0,
    max_lots: Optional[int] = None,
    lot_size: int = 16,
    n_cells: int = 4,
    executor: Optional[Union[Executor, str]] = None,
    max_pending_lots: int = 8,
    chunksize: Optional[int] = None,
    n_train: int = 32,
    min_duts_per_second: float = 1.0,
    on_snapshot: Optional[Callable] = None,
    flow: Optional[ProductionTestFlow] = None,
    sanitize_locks: bool = False,
    sites: int = 1,
) -> Dict:
    """Run one soak campaign and return the metrics payload.

    Streams wafer-map lots into the service until the wall-clock budget
    ``seconds`` runs out (or ``max_lots`` lots were submitted), drains
    records concurrently, health-checks every snapshot, re-runs the
    first lot offline for bit-equality, and returns a JSON-able dict.

    ``on_snapshot`` (if given) receives a
    :class:`~repro.runtime.metrics.MetricsSnapshot` after every
    submitted lot -- the ``serve`` CLI uses it for live output.

    With ``sanitize_locks`` the whole campaign (flow construction,
    service, drain) runs under the runtime lock-order sanitizer: an
    inverted acquisition order raises
    :class:`~repro.verify.guards.LockOrderViolation`
    instead of deadlocking, and the payload gains a ``lock_sanitizer``
    entry with the observed order edges and worst hold times.  Pass
    ``flow=None`` in that mode so the flow's locks are instrumented too.
    """
    if sanitize_locks:
        from repro.verify.guards import lock_sanitizer

        with lock_sanitizer(fail_fast=True) as report:
            payload = _run_soak(
                seed=seed,
                seconds=seconds,
                max_lots=max_lots,
                lot_size=lot_size,
                n_cells=n_cells,
                executor=executor,
                max_pending_lots=max_pending_lots,
                chunksize=chunksize,
                n_train=n_train,
                min_duts_per_second=min_duts_per_second,
                on_snapshot=on_snapshot,
                flow=flow,
                sites=sites,
            )
            report.check()
        payload["lock_sanitizer"] = report.to_dict()
        return payload
    return _run_soak(
        seed=seed,
        seconds=seconds,
        max_lots=max_lots,
        lot_size=lot_size,
        n_cells=n_cells,
        executor=executor,
        max_pending_lots=max_pending_lots,
        chunksize=chunksize,
        n_train=n_train,
        min_duts_per_second=min_duts_per_second,
        on_snapshot=on_snapshot,
        flow=flow,
        sites=sites,
    )


def _run_soak(
    seed: int,
    seconds: float,
    max_lots: Optional[int],
    lot_size: int,
    n_cells: int,
    executor: Optional[Union[Executor, str]],
    max_pending_lots: int,
    chunksize: Optional[int],
    n_train: int,
    min_duts_per_second: float,
    on_snapshot: Optional[Callable],
    flow: Optional[ProductionTestFlow],
    sites: int = 1,
) -> Dict:
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    flow = (
        flow
        if flow is not None
        else build_soak_flow(seed, n_train=n_train, sites=sites)
    )
    traffic = TrafficGenerator(
        WaferMapProfile(), master_seed=int(seed) + 1, lot_size=lot_size,
        n_cells=n_cells,
    )
    monitor = StreamHealthMonitor(min_duts_per_second=min_duts_per_second)
    service = StreamingTestService(
        flow,
        executor=executor,
        max_pending_lots=max_pending_lots,
        chunksize=chunksize,
    )
    drain = _Drain(service)
    drain.start()

    first_order = None
    lots_submitted = 0
    start = time.monotonic()
    deadline = start + seconds
    for order in traffic.stream():
        if time.monotonic() >= deadline:
            break
        if max_lots is not None and lots_submitted >= max_lots:
            break
        if first_order is None:
            first_order = order
        service.submit(
            order.devices, np.random.default_rng(order.seed), cell_id=order.cell_id
        )
        lots_submitted += 1
        snapshot = service.metrics()
        if snapshot.devices_emitted:
            monitor.observe(snapshot)
        if on_snapshot is not None:
            on_snapshot(snapshot)
    service.close()
    drain.join()
    if drain.error is not None:  # pragma: no cover - propagated service bug
        raise drain.error
    wall_seconds = time.monotonic() - start

    final = service.metrics()
    if final.devices_emitted:
        monitor.observe(final)
    bit_identical = (
        _check_first_lot(flow, first_order, drain.first_lot)
        if first_order is not None
        else True
    )
    health = monitor.history[-1] if monitor.history else None
    return {
        "benchmark": "streaming_soak",
        "seed": int(seed),
        "requested_seconds": float(seconds),
        "wall_seconds": wall_seconds,
        "lot_size": int(lot_size),
        "n_cells": int(n_cells),
        "executor": service.executor.name,
        "sites": int(sites),
        "site_devices_tested": final.site_devices_emitted,
        "contention_wait_ms": final.contention_wait_s * 1e3,
        "max_pending_lots": int(max_pending_lots),
        "lots_submitted": lots_submitted,
        "lots_completed": final.lots_completed,
        "devices_tested": drain.n_records,
        "duts_per_second": final.duts_per_second,
        "duts_per_second_windowed": final.duts_per_second_windowed,
        "latency_p50_ms": final.latency_p50_s * 1e3,
        "latency_p99_ms": final.latency_p99_s * 1e3,
        "latency_worst_ms": final.latency_worst_s * 1e3,
        "queue_capacity": final.queue_capacity,
        "yield_fraction": (
            drain.n_passed / drain.n_judged if drain.n_judged else None
        ),
        "first_lot_bit_identical_to_offline": bit_identical,
        "healthy": monitor.healthy,
        "health_reasons": list(health.reasons) if health is not None else [],
        "unix_time": time.time(),
    }
