"""The benchmark's three workloads: what each runs, times and checks.

Every workload runs in one process on the serial executor.  Its inputs
derive from one integer seed, so a seed names one exact set of inputs.
A run repeats the workload's operation for ``seconds`` of wall time and
reports the median operation time at the reference machine speed (see
:mod:`.speed`).

* ``sim_experiment`` -- the paper's simulation experiment (GA stimulus
  search, Monte-Carlo capture, model-zoo calibration, validation).
* ``production_lot`` -- closed-loop ``ProductionTestFlow.run`` calls on
  1,000-device wafer-map lots.
* ``stream`` -- closed-loop campaigns of 16-device lots through a
  ``StreamingTestService``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.experiments import lna_simulation
from repro.loadboard.signature_path import SignatureTestBoard, simulation_config
from repro.runtime import calibration
from repro.runtime.production import ProductionTestFlow
from repro.runtime.service import StreamingTestService
from repro.runtime.specs import lna_limits
from repro.runtime.trafficgen import TrafficGenerator, WaferMapProfile

from .speed import SpeedProbe
from .trace import TARGETS, Span, Tracer, layer_stats

__all__ = [
    "DEFAULT_SEED",
    "PER_LAYER_METRICS",
    "REFERENCE_PATH",
    "WORKLOADS",
    "WorkloadRun",
    "check_reference",
    "run_workload",
]

DEFAULT_SEED = 2002
WORKLOADS = ("sim_experiment", "production_lot", "stream")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: run-level output checks of the simulation experiment, on the median
#: over the run's experiments (a single seed can dip: R2(iip3) 0.91 was
#: seen once in a few hundred); the NF bound is the paper's std(err)
EXPERIMENT_LIMITS = {
    "R2(gain_db)": (0.98, math.inf),
    "R2(iip3_dbm)": (0.95, math.inf),
    "std(err)(nf_db)": (0.0, lna_simulation.PAPER_STD_ERR["nf_db"]),
}

#: production flow shared by ``production_lot`` and ``stream``.  It is
#: calibrated from a fixed seed, like a released test program, and the
#: workload seed only draws the lots: the model families the calibration
#: picks set the per-device predict cost, which spans 0.16-0.30 s per
#: 1,000-device lot across calibration seeds
FLOW_SEED = 2002
N_TRAIN_DEVICES = 200
LOT_DEVICES = 1000
YIELD_RANGE = (0.5, 0.95)
PROFILE = WaferMapProfile()

#: one stream operation is a campaign of this many lots of this size,
#: submitted as fast as the service's backpressure admits them
STREAM_LOT_SIZE = 16
STREAM_LOTS_PER_OP = 64
STREAM_MAX_PENDING = 8

#: set-up runs five times, each repeat on its own seeds so an input-keyed
#: cache cannot make a later one look cheap: three before the measured
#: operations (the last, repeat 0, is the one measured) and two after
SETUP_BEFORE = (2, 1, 0)
SETUP_AFTER = (3, 4)

#: the experiment warms up on seeds ``seed + WARMUP_SEED_OFFSET + r``,
#: away from the measured seeds ``seed + k``
WARMUP_SEED_OFFSET = 100_000

_LAYER_NAMES = tuple(dict.fromkeys(t.name for t in TARGETS)) + ("bench.op",)
#: per-layer metrics of a traced run, in a fixed order
PER_LAYER_METRICS: Tuple[str, ...] = tuple(
    f"{name}.{stat}" for name in _LAYER_NAMES for stat in ("calls", "total_s", "self_s")
) + (
    "testgen.ga.evaluations",
    "loadboard.signature_batch.rows",
    "tracing_overhead_frac",
    "trace_coverage_frac",
)


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for one purpose (``key``) of the workload seed."""
    return np.random.default_rng([seed, *key])


@dataclass
class WorkloadRun:
    """What one run of one workload measured and found.

    Times are kept twice: as measured (``*_raw_s``) and divided by the
    machine's speed factor at the time (reference-speed seconds).
    """

    setup_s: List[float] = field(default_factory=list)
    setup_raw_s: List[float] = field(default_factory=list)
    #: seconds per untraced operation
    op_s: List[float] = field(default_factory=list)
    op_raw_s: List[float] = field(default_factory=list)
    attempted: int = 0
    #: operations (experiments, lots, campaigns) that failed a check
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: the first operation's outputs, for the reference check
    fingerprint: Optional[dict] = None
    layers: Dict[str, float] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    missing_targets: List[str] = field(default_factory=list)

    def fail(self, operation: str, errors: Sequence[str]) -> None:
        """Count ``operation`` as failed if it has any ``errors``."""
        if errors:
            self.failed += 1
            self.failures.extend(f"{operation}: {error}" for error in errors)

    def end_to_end(self) -> Dict[str, float]:
        """The untraced run's end-to-end metrics, memory aside."""
        return {
            "setup_s": statistics.median(self.setup_s),
            "op_ms": statistics.median(self.op_s) * 1e3,
        }

    def profile(self) -> str:
        """Operation time percentiles, for the human-readable output."""

        def points(values: Sequence[float]) -> str:
            return ", ".join(f"p{q} {_percentile(values, q) * 1e3:.4g}" for q in (10, 50, 90))

        return (
            f"{points(self.op_raw_s)} ms as measured; {points(self.op_s)} ms at reference "
            f"speed; {len(self.op_s)} operations; set-up median "
            f"{statistics.median(self.setup_raw_s):.4g} s as measured"
        )


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=float)))) for a in arrays)


def _column_sums(predicted: np.ndarray) -> List[float]:
    return [float(v) for v in np.asarray(predicted, dtype=float).sum(axis=0)]


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _timed(
    call: Callable[[], object],
    probe: SpeedProbe,
    exponent: float = 1.0,
    tracer: Optional[Tracer] = None,
):
    """Run ``call`` once, probing the machine's speed just before and after.

    Returns ``(output, wall seconds, reference-speed seconds)``; the
    reference-speed time divides the wall time by the mean of the two
    speed factors raised to ``exponent``, the workload's sensitivity to
    the machine's speed (see :attr:`_Batch.speed_exponent`).
    """
    with _span(tracer, "bench.probe"):
        before = probe.factor()
    with _span(tracer, "bench.op"):
        start = time.perf_counter()
        output = call()
        wall = time.perf_counter() - start
    with _span(tracer, "bench.probe"):
        after = probe.factor()
    return output, wall, wall / (0.5 * (before + after)) ** exponent


def _timed_setups(
    batch: _Batch,
    seed: int,
    repeats: Sequence[int],
    run: WorkloadRun,
    probe: SpeedProbe,
):
    """Time ``batch.setup`` once per repeat number; returns the last state."""
    state = None
    for repeat in repeats:
        state, wall, scaled = _timed(
            lambda r=repeat: batch.setup(seed, r), probe, batch.speed_exponent
        )
        run.setup_raw_s.append(wall)
        run.setup_s.append(scaled)
    return state


# ----------------------------------------------------------------------
# production flow (production_lot and stream)
# ----------------------------------------------------------------------
def _wafer_population(rng: np.random.Generator, n: int) -> list:
    """``n`` devices from consecutive wafers of the wafer-map profile."""
    devices: list = []
    while len(devices) < n:
        devices.extend(PROFILE.wafer_devices(rng))
    return devices[:n]


def _build_flow(repeat: int) -> ProductionTestFlow:
    """Random 8-level PWL stimulus, model-zoo calibration, LNA limits.

    Built from :data:`FLOW_SEED`, not the workload seed: see there.
    """
    board = SignatureTestBoard(simulation_config())
    stimulus = PiecewiseLinearStimulus(
        _rng(FLOW_SEED, 0, repeat, 0).uniform(-0.3, 0.3, 8), board.config.capture_seconds
    )
    devices = _wafer_population(_rng(FLOW_SEED, 0, repeat, 1), N_TRAIN_DEVICES)
    signatures = calibration.measure_signatures(
        board, stimulus, devices, _rng(FLOW_SEED, 0, repeat, 2)
    )
    specs = np.vstack([device.specs().as_vector() for device in devices])
    model = calibration.CalibrationSession().fit(
        signatures, specs, rng=_rng(FLOW_SEED, 0, repeat, 3)
    )
    return ProductionTestFlow(board, stimulus, model, limits=lna_limits(15.2, 2.6, 2.2))


def _lot_fingerprint(records) -> dict:
    predicted = np.vstack([r.predicted.as_vector() for r in records])
    return {
        "column_sums": _column_sums(predicted),
        "pass_count": sum(bool(r.passed) for r in records),
    }


# ----------------------------------------------------------------------
# the workloads: independent operations, timed one by one
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Batch:
    """A workload of independent operations, timed one by one."""

    setup: Callable[[int, int], object]  # (seed, repeat) -> state
    make_input: Callable[[int, int], object]  # (seed, k) -> input, untimed
    call: Callable[[object, object], object]  # (state, input) -> output
    check: Callable[[object, object], List[str]]  # (state, output) -> errors, untimed
    fingerprint: Callable[[object], dict]
    #: per-operation numbers whose run medians must meet ``limits``
    quality: Callable[[object], Dict[str, float]] = lambda output: {}
    limits: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    ga_evaluations: Callable[[object], int] = lambda output: 0
    #: how the workload's wall time moves with the probe's speed factor:
    #: wall ~ factor ** speed_exponent.  Fitted over four ten-run sets, in
    #: which the factor ranged 0.84 to 1.66: the spread of run medians was
    #: smallest at 0.8 for sim_experiment and at 0.9-1.0 for the others
    speed_exponent: float = 1.0


def _sim_experiment() -> _Batch:
    def run(seed: int):
        return lna_simulation.run_simulation_experiment(seed=seed, use_cache=False)

    def check(_state, result) -> List[str]:
        finite = _finite(
            result.predicted_specs,
            result.true_specs,
            list(result.r2.values()),
            list(result.std_errors.values()),
        )
        return [] if finite else ["non-finite experiment output"]

    return _Batch(
        setup=lambda seed, repeat: run(seed + WARMUP_SEED_OFFSET + repeat),
        make_input=lambda seed, k: seed + k,
        call=lambda state, op_seed: run(op_seed),
        check=check,
        fingerprint=lambda result: {"column_sums": _column_sums(result.predicted_specs)},
        quality=lambda result: {
            "R2(gain_db)": result.r2["gain_db"],
            "R2(iip3_dbm)": result.r2["iip3_dbm"],
            "std(err)(nf_db)": result.std_errors["nf_db"],
        },
        limits=EXPERIMENT_LIMITS,
        ga_evaluations=lambda result: (
            result.optimization.ga_result.evaluations if result.optimization else 0
        ),
        speed_exponent=0.8,
    )


def _lot_check(_flow, result) -> List[str]:
    errors = []
    if result.n_devices != LOT_DEVICES:
        errors.append(f"{result.n_devices} records, expected {LOT_DEVICES}")
    if not _finite(result.predicted_matrix(), [r.signature for r in result.records]):
        errors.append("non-finite record")
    lo, hi = YIELD_RANGE
    if not lo <= result.yield_fraction <= hi:
        errors.append(f"yield {result.yield_fraction:.3f} outside [{lo}, {hi}]")
    return errors


def _production_lot() -> _Batch:
    def setup(seed: int, repeat: int) -> ProductionTestFlow:
        flow = _build_flow(repeat)
        flow.run(_wafer_population(_rng(seed, 3, repeat), LOT_DEVICES), _rng(seed, 4, repeat))
        return flow

    return _Batch(
        setup=setup,
        make_input=lambda seed, k: (
            _wafer_population(_rng(seed, 1, k), LOT_DEVICES),
            _rng(seed, 2, k),
        ),
        call=lambda flow, lot: flow.run(*lot),
        check=_lot_check,
        fingerprint=lambda result: _lot_fingerprint(result.records),
    )


@dataclass(frozen=True)
class _Campaign:
    """One stream operation's lot orders, and what the service returned."""

    #: the operation number ``k``
    index: int
    orders: list
    lots: list = field(default_factory=list)
    records: list = field(default_factory=list)

    def first_lot_records(self) -> list:
        """The first lot's device records, in device order."""
        return sorted(
            (r.record for r in self.records if r.lot_id == self.lots[0].lot_id),
            key=lambda record: record.device_id,
        )


def _stream_campaign(flow: ProductionTestFlow, campaign: _Campaign) -> _Campaign:
    """Submit every order to a fresh service and collect every record.

    Lots go in as fast as backpressure admits them (closed loop).  The
    records are read after ``close``, so no drain thread competes for the
    interpreter with the service's dispatcher.
    """
    with StreamingTestService(flow, max_pending_lots=STREAM_MAX_PENDING) as service:
        lots = [
            service.submit(order.devices, np.random.default_rng(order.seed), cell_id=order.cell_id)
            for order in campaign.orders
        ]
    return replace(campaign, lots=lots, records=list(service.records()))


def _same_records(streamed: list, offline: list) -> bool:
    """Streamed and offline records of one lot are bit-identical."""
    return len(streamed) == len(offline) and all(
        s.device_id == o.device_id
        and np.array_equal(s.signature, o.signature)
        and np.array_equal(s.predicted.as_vector(), o.predicted.as_vector())
        and s.passed == o.passed
        for s, o in zip(streamed, offline)
    )


def _stream_check(flow: ProductionTestFlow, campaign: _Campaign) -> List[str]:
    """Every device emitted exactly once; campaign 0's first lot equals ``flow.run``.

    Only campaign 0 is replayed offline: it always runs untraced, so the
    replay adds no spans to a traced run's layers.
    """
    emitted: Dict[int, List[int]] = {}
    for stream_record in campaign.records:
        emitted.setdefault(stream_record.lot_id, []).append(stream_record.device_id)
    errors = [
        f"lot {lot.lot_id}: emitted device ids {sorted(emitted.get(lot.lot_id, []))}, "
        "expected each once"
        for lot in campaign.lots
        if sorted(emitted.get(lot.lot_id, [])) != list(range(len(lot)))
    ]
    if campaign.index == 0:
        first = campaign.orders[0]
        offline = flow.run(first.devices, np.random.default_rng(first.seed))
        if not _same_records(campaign.first_lot_records(), offline.records):
            errors.append("first lot: streamed records differ from ProductionTestFlow.run")
    return errors


def _stream_orders(seed: int, k: int) -> _Campaign:
    """Campaign ``k``: its own replayable traffic, cut into 16-device lots."""
    traffic = TrafficGenerator(
        PROFILE,
        master_seed=np.random.SeedSequence([seed, k]),
        lot_size=STREAM_LOT_SIZE,
        n_cells=4,
    )
    return _Campaign(index=k, orders=list(traffic.lots(STREAM_LOTS_PER_OP)))


def _stream() -> _Batch:
    def setup(seed: int, repeat: int) -> ProductionTestFlow:
        flow = _build_flow(repeat)
        with StreamingTestService(flow, max_pending_lots=STREAM_MAX_PENDING) as service:
            service.submit(
                _wafer_population(_rng(seed, 3, repeat), STREAM_LOT_SIZE), _rng(seed, 4, repeat)
            )
        return flow

    return _Batch(
        setup=setup,
        make_input=_stream_orders,
        call=_stream_campaign,
        check=_stream_check,
        fingerprint=lambda campaign: _lot_fingerprint(campaign.first_lot_records()),
    )


# ----------------------------------------------------------------------
# running a workload
# ----------------------------------------------------------------------
def _run_ops(
    batch: _Batch,
    state,
    seed: int,
    first: int,
    seconds: float,
    run: WorkloadRun,
    quality: Dict[str, List[float]],
    probe: SpeedProbe,
    tracer: Optional[Tracer],
) -> Tuple[List[float], List[float], int]:
    """Run operations ``first, first + 1, ...`` for ``seconds`` (at least one).

    Returns the reference-speed and wall seconds per operation, and the
    GA evaluations they made.
    """
    scaled: List[float] = []
    wall: List[float] = []
    evaluations = 0
    deadline = time.perf_counter() + seconds
    k = first
    while not scaled or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.set_request(k)
        with _span(tracer, "bench.inputs"):
            op_input = batch.make_input(seed, k)
        output, op_wall, op_scaled = _timed(
            lambda: batch.call(state, op_input), probe, batch.speed_exponent, tracer
        )
        scaled.append(op_scaled)
        wall.append(op_wall)
        run.attempted += 1
        with _span(tracer, "bench.check"):
            run.fail(f"op {k}", batch.check(state, output))
        if k == 0:
            run.fingerprint = batch.fingerprint(output)
        for key, value in batch.quality(output).items():
            quality.setdefault(key, []).append(value)
        evaluations += batch.ga_evaluations(output)
        k += 1
    return scaled, wall, evaluations


def _run_batch(batch: _Batch, seed: int, seconds: float, trace: bool) -> WorkloadRun:
    run = WorkloadRun()
    probe = SpeedProbe()
    state = _timed_setups(batch, seed, SETUP_BEFORE, run, probe)
    # a traced run times its first half untraced, for the overhead ratio
    untraced_seconds = seconds / 2 if trace else seconds
    quality: Dict[str, List[float]] = {}
    run.op_s, run.op_raw_s, _ = _run_ops(
        batch, state, seed, 0, untraced_seconds, run, quality, probe, None
    )
    if trace:
        tracer = Tracer()
        tracer.patch()
        try:
            start = time.perf_counter()
            traced_s, _, evaluations = _run_ops(
                batch, state, seed, len(run.op_s), seconds / 2, run, quality, probe, tracer
            )
            traced_wall = time.perf_counter() - start
        finally:
            tracer.unpatch()
        run.spans = tracer.spans()
        run.missing_targets = tracer.missing
        run.layers = _layer_metrics(
            run.spans,
            n_traced=len(traced_s),
            overhead=statistics.median(traced_s) / statistics.median(run.op_s),
            traced_wall=traced_wall,
            ga_evaluations=evaluations,
        )
    for key, (lo, hi) in batch.limits.items():
        median = statistics.median(quality[key])
        if not lo <= median <= hi:
            run.fail("run", [f"median {key} {median:.4f} outside [{lo}, {hi}]"])
    del state  # peak memory is the measured state's, not two at once
    _timed_setups(batch, seed, SETUP_AFTER, run, probe)
    return run


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _layer_metrics(
    spans: Sequence[Span],
    n_traced: int,
    overhead: float,
    traced_wall: float,
    ga_evaluations: int = 0,
) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per traced operation.

    Dividing by the traced operation count (experiments, lots or
    campaigns) keeps the numbers comparable however many operations a
    run traced.  The coverage is the share of the traced wall time that
    the main thread's top-level spans account for.
    """
    stats = layer_stats(spans)
    out: Dict[str, float] = {}
    for name in _LAYER_NAMES:
        s = stats.get(name)
        out[f"{name}.calls"] = s.calls / n_traced if s else 0.0
        out[f"{name}.total_s"] = s.total_s / n_traced if s else 0.0
        out[f"{name}.self_s"] = s.self_s / n_traced if s else 0.0
    rows = stats.get("loadboard.signature_batch")
    main_top = sum(
        span.duration for span in spans if span.parent is None and span.thread == "MainThread"
    )
    out.update(
        {
            "testgen.ga.evaluations": ga_evaluations / n_traced,
            "loadboard.signature_batch.rows": rows.size / n_traced if rows else 0.0,
            "tracing_overhead_frac": overhead,
            "trace_coverage_frac": main_top / traced_wall,
        }
    )
    return out


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
_BATCHES: Dict[str, Callable[[], _Batch]] = {
    "sim_experiment": _sim_experiment,
    "production_lot": _production_lot,
    "stream": _stream,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> WorkloadRun:
    """Set up and measure one workload (see the module docstring)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return _run_batch(_BATCHES[name](), seed, seconds, trace)


def check_reference(name: str, fingerprint: dict, path: str = REFERENCE_PATH) -> List[str]:
    """Compare the first operation's outputs with the committed reference.

    Column sums of the predicted specs (gain, NF, IIP3) must match to
    ``rtol=1e-6``, the golden-corpus tolerance; pass counts exactly.
    """
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"].get(name)
    if reference is None:
        return [f"no reference for {name} in {os.path.basename(path)}"]
    errors = []
    if not np.allclose(fingerprint["column_sums"], reference["column_sums"], rtol=1e-6, atol=0.0):
        errors.append(
            f"column sums {fingerprint['column_sums']} != reference {reference['column_sums']}"
        )
    if fingerprint.get("pass_count") != reference.get("pass_count"):
        errors.append(
            f"pass count {fingerprint.get('pass_count')} != reference {reference.get('pass_count')}"
        )
    return errors
