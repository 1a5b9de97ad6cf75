"""Streaming service overhead: the factory-floor claim, measured.

The streaming layer must not tax the capture engine it wraps: ingest
queueing, chunk-wave dispatch, and incremental record emission all ride
on top of the same ``signature_batch`` hot path the offline
``ProductionTestFlow.run`` uses.  This benchmark streams a fixed
wafer-map campaign through :class:`StreamingTestService` and times the
identical lots through the offline flow, recording the *normalized*
ratio ``streamed_seconds / offline_seconds`` (which cancels machine
speed) plus the floor metrics (DUTs/sec, p50/p99 per-device latency)
as JSON under ``benchmarks/results/``.

The committed ``streaming_throughput.json`` is the regression
baseline: CI re-runs this benchmark and fails if the fresh ratio is
more than 20% worse than the committed one (``make bench-check``), so
a change that quietly bloats the service's overhead cannot land
unnoticed.  Both paths are also checked bit-identical end to end --
the ``streaming-offline-equivalence`` relation's contract on the real
benchmark lot.
"""

import json
import os
import time

import numpy as np

from repro.runtime.service import StreamingTestService
from repro.runtime.soak import build_soak_flow
from repro.runtime.trafficgen import TrafficGenerator, WaferMapProfile

N_LOTS = 12
LOT_SIZE = 16
FLOW_SEED = 2002
TRAFFIC_SEED = 2003
#: streamed wall time may cost at most this factor over the offline flow
OVERHEAD_LIMIT = 1.5
RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "streaming_throughput.json"
)


def _campaign():
    flow = build_soak_flow(FLOW_SEED, n_train=24)
    traffic = TrafficGenerator(
        WaferMapProfile(), master_seed=TRAFFIC_SEED, lot_size=LOT_SIZE, n_cells=4
    )
    return flow, list(traffic.lots(N_LOTS))


def _best_of_interleaved(fns, repeats=5):
    """Best-of-``repeats`` wall time of each of ``fns``, and its last result.

    The repeats alternate between the functions, so drift in the host's
    speed during the measurement lands on every side of the ratio alike
    instead of on whichever function happened to run during a slow
    spell.
    """
    best = [np.inf] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(best, results))


def test_bench_streaming_throughput(benchmark, report):
    flow, orders = _campaign()
    n_devices = sum(len(o.devices) for o in orders)

    def offline():
        results = []
        for order in orders:
            results.append(flow.run(order.devices, np.random.default_rng(order.seed)))
        return results

    def streamed():
        with StreamingTestService(flow, executor=None) as service:
            for order in orders:
                service.submit(
                    order.devices,
                    np.random.default_rng(order.seed),
                    cell_id=order.cell_id,
                )
            service.close()
            records = list(service.records())
        return records, service.metrics()

    (offline_s, offline_results), (streamed_s, (stream_records, metrics)) = (
        _best_of_interleaved([offline, streamed])
    )

    # the streaming contract, end to end on the real campaign
    offline_records = [r for res in offline_results for r in res.records]
    assert len(stream_records) == len(offline_records) == n_devices
    for stream_record, reference in zip(stream_records, offline_records):
        assert stream_record.record.device_id == reference.device_id
        assert np.array_equal(stream_record.record.signature, reference.signature)
        assert np.array_equal(
            stream_record.record.predicted.as_vector(),
            reference.predicted.as_vector(),
        )
        assert stream_record.record.passed == reference.passed

    ratio = streamed_s / offline_s
    payload = {
        "benchmark": "streaming_throughput",
        "n_lots": N_LOTS,
        "lot_size": LOT_SIZE,
        "n_devices": n_devices,
        "offline_seconds": offline_s,
        "streamed_seconds": streamed_s,
        "streamed_over_offline_ratio": ratio,
        "duts_per_second": n_devices / streamed_s,
        "latency_p50_ms": metrics.latency_p50_s * 1e3,
        "latency_p99_ms": metrics.latency_p99_s * 1e3,
        "overhead_limit": OVERHEAD_LIMIT,
        "unix_time": time.time(),
    }
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    with report("Streaming service -- 12-lot wafer-map campaign") as p:
        p(f"offline ProductionTestFlow.run:  {offline_s * 1e3:8.1f} ms")
        p(f"StreamingTestService:            {streamed_s * 1e3:8.1f} ms "
          f"({ratio:.3f}x offline)")
        p(f"throughput: {n_devices / streamed_s:8.1f} DUTs/s   "
          f"p99 latency: {metrics.latency_p99_s * 1e3:.1f} ms")
        p(f"recorded: {os.path.relpath(RESULTS_PATH)}")

    assert ratio <= OVERHEAD_LIMIT, (
        f"streaming the campaign cost {ratio:.3f}x the offline flow "
        f"(limit {OVERHEAD_LIMIT}x): the service layer got expensive"
    )

    benchmark(lambda: streamed()[1].devices_emitted)
