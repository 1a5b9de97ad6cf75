"""Compiled capture program: the fused whole-lot program claim, measured.

Runs the same 64-device lot four ways and records the wall-clock
numbers as JSON under ``benchmarks/results/``:

* one-device-at-a-time through the uncompiled reference oracle
  (``_reference_signature_batch``) with the plan cache cleared before
  every capture -- the pre-batching signature path, which recomputed the
  device-independent front half per capture;
* the same one-device-at-a-time loop with a warm plan cache;
* one ``_reference_signature_batch`` call over the whole lot (the
  uncompiled batched envelope algebra);
* one ``signature_batch`` call through the **compiled** whole-lot
  program: the mixer-2 downconversion lowered to a DCE'd op tape over
  preallocated workspaces.

All four are checked bit-identical (the batching + compilation
contract); the speedup gates compare the compiled program against the
per-device path it replaced -- cold plans and warm plans separately --
and the per-stage breakdown of the compiled capture is recorded for
``make bench-profile`` and the CI stage table.

The committed ``capture_hotpath.json`` is the regression baseline: CI
re-runs this benchmark and fails if a *normalized* capture-time ratio
(compiled / per-device and reference-batched / per-device, which
cancel machine speed) regresses by more than 20% against the committed
ratio (``make bench-check``).
"""

import json
import os
import time

import numpy as np

from repro.circuits.behavioral import BehavioralAmplifier
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.signature_path import SignatureTestBoard, simulation_config
from repro.parallel import spawn_generators

N_DEVICES = 64
LOT_SEED = 2002
COLD_SPEEDUP_TARGET = 10.0
WARM_SPEEDUP_TARGET = 6.0
RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "capture_hotpath.json"
)


def _lot():
    rng = np.random.default_rng(42)
    return [
        BehavioralAmplifier(
            900e6,
            16.0 + rng.normal(0.0, 0.5),
            2.0 + abs(rng.normal(0.0, 0.2)),
            10.0 + rng.normal(0.0, 1.0),
        )
        for _ in range(N_DEVICES)
    ]


def _best_of(fn, repeats=7):
    best = np.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_capture_hotpath(benchmark, report):
    board = SignatureTestBoard(simulation_config())
    lot = _lot()
    stim = PiecewiseLinearStimulus(
        np.random.default_rng(9).uniform(-0.25, 0.25, 16), 5e-6, 0.4
    )

    def per_device_uncached():
        gens = spawn_generators(np.random.default_rng(LOT_SEED), len(lot))
        rows = []
        for device, gen in zip(lot, gens):
            # the pre-batching engine rebuilt the stimulus front half
            # (mixers, LO envelopes, drive powers) on every capture
            board.clear_plan_cache()
            rows.append(board._reference_signature_batch([device], stim, rngs=[gen]))
        return np.vstack(rows)

    def per_device_warm():
        gens = spawn_generators(np.random.default_rng(LOT_SEED), len(lot))
        return np.vstack(
            [
                board._reference_signature_batch([d], stim, rngs=[g])
                for d, g in zip(lot, gens)
            ]
        )

    def reference_batched():
        return board._reference_signature_batch(
            lot, stim, rng=np.random.default_rng(LOT_SEED)
        )

    def compiled():
        return board.signature_batch(lot, stim, rng=np.random.default_rng(LOT_SEED))

    uncached_s, uncached_sigs = _best_of(per_device_uncached)
    warm_s, warm_sigs = _best_of(per_device_warm)
    batched_s, batched_sigs = _best_of(reference_batched)
    compiled_s, compiled_sigs = _best_of(compiled)
    stage_seconds = dict(board.last_stage_seconds)

    # the batching + compilation contract, end to end on the real lot
    assert np.array_equal(uncached_sigs, compiled_sigs)
    assert np.array_equal(warm_sigs, compiled_sigs)
    assert np.array_equal(batched_sigs, compiled_sigs)

    speedup = uncached_s / batched_s
    compiled_speedup = uncached_s / compiled_s
    compiled_warm_speedup = warm_s / compiled_s
    payload = {
        "benchmark": "capture_hotpath",
        "n_devices": N_DEVICES,
        "per_device_seconds": uncached_s,
        "per_device_warm_cache_seconds": warm_s,
        "batched_seconds": batched_s,
        "compiled_seconds": compiled_s,
        "speedup": speedup,
        "compiled_speedup": compiled_speedup,
        "compiled_warm_speedup": compiled_warm_speedup,
        "batched_over_per_device_ratio": batched_s / uncached_s,
        "compiled_over_per_device_ratio": compiled_s / uncached_s,
        "cold_speedup_target": COLD_SPEEDUP_TARGET,
        "warm_speedup_target": WARM_SPEEDUP_TARGET,
        "stage_seconds": stage_seconds,
        "unix_time": time.time(),
    }
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    with open(RESULTS_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    with report("Compiled capture -- 64-device signature lot") as p:
        p(f"per-device, cold plans:    {uncached_s * 1e3:8.1f} ms")
        p(f"per-device, warm plans:    {warm_s * 1e3:8.1f} ms")
        p(f"reference signature_batch: {batched_s * 1e3:8.1f} ms "
          f"({speedup:.2f}x)")
        p(f"compiled signature_batch:  {compiled_s * 1e3:8.1f} ms "
          f"({compiled_speedup:.2f}x cold, "
          f"{compiled_warm_speedup:.2f}x warm)")
        total = sum(stage_seconds.values())
        for name, seconds in sorted(
            stage_seconds.items(), key=lambda kv: -kv[1]
        ):
            p(f"  stage {name:<13} {seconds * 1e3:8.3f} ms "
              f"({seconds / total:5.1%})")
        p(f"recorded: {os.path.relpath(RESULTS_PATH)}")

    assert compiled_speedup >= COLD_SPEEDUP_TARGET, (
        f"compiled capture only reached {compiled_speedup:.2f}x over the "
        f"cold per-device loop (target {COLD_SPEEDUP_TARGET}x)"
    )
    assert compiled_warm_speedup >= WARM_SPEEDUP_TARGET, (
        f"compiled capture only reached {compiled_warm_speedup:.2f}x over "
        f"the warm per-device loop (target {WARM_SPEEDUP_TARGET}x)"
    )

    benchmark(compiled)
