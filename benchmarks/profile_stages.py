"""Per-stage profile of the compiled capture program, as markdown.

Reads the stage breakdown that ``test_bench_capture_hotpath`` records
in ``benchmarks/results/capture_hotpath.json`` (the wall time of each
pipeline stage -- plan, nonlinearity, noise, mix, filter, digitize,
fft -- for one compiled 64-device capture) and prints it as a markdown
table.  ``make bench-profile`` runs the benchmark first and then this
report; CI appends the same table to the job summary.

The benchmark times the stages from the outside: the span tracer of
``benchmarks/e2e/trace.py``, patched at the one callable of each stage
in :data:`STAGES`, wraps one extra compiled capture.  A stage whose
callable was renamed records nothing, so this report exits 1 when any
stage of :data:`STAGES` is missing from the table.
"""

import json
import os
import sys

__all__ = ["STAGES"]

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results", "capture_hotpath.json")

#: each capture stage and the one callable (a tracer ``"module:attr"``
#: path) it runs per row block.  The FFT stage is timed at the module
#: function the row blocks, the base ``SignaturePath.signature_batch``
#: and the uncompiled oracle all call by its module-level name, so the
#: tracer's patch reaches every one of them.
STAGES = {
    "plan": "repro.loadboard.signature_path:SignatureTestBoard.capture_plan",
    "nonlinearity": "repro.loadboard.signature_path:SignatureTestBoard._dut_block",
    "noise": "repro.loadboard.signature_path:_add_noise_rows",
    "mix": "repro.loadboard.capture_compiler:CompiledCaptureProgram.execute",
    "filter": "repro.dsp.filters:ButterworthLowpass.apply_fft_matrix",
    "digitize": "repro.loadboard.signature_path:SignatureTestBoard.digitize_matrix",
    "fft": "repro.loadboard.signature_path:fft_magnitude_signature_matrix",
}


def _main(path=RESULTS):
    with open(path) as fh:
        payload = json.load(fh)
    stages = payload.get("stage_seconds", {})
    missing = [name for name in STAGES if name not in stages]
    if missing:
        print(
            f"bench-profile: no time recorded for stage(s) {', '.join(missing)}; "
            "run `make bench-profile` to regenerate",
            file=sys.stderr,
        )
        return 1
    total = sum(stages.values())
    compiled_ms = payload["compiled_seconds"] * 1e3
    print(
        f"### Compiled capture stages "
        f"({payload['n_devices']} devices, {compiled_ms:.2f} ms)"
    )
    print()
    print("| stage | ms | share |")
    print("|---|---:|---:|")
    for name, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
        print(f"| {name} | {seconds * 1e3:.3f} | {seconds / total:.1%} |")
    print(f"| **total** | **{total * 1e3:.3f}** | |")
    print()
    print(
        f"cold speedup {payload['compiled_speedup']:.2f}x "
        f"(target {payload['cold_speedup_target']:.0f}x), "
        f"warm speedup {payload['compiled_warm_speedup']:.2f}x "
        f"(target {payload['warm_speedup_target']:.0f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1] if len(sys.argv) > 1 else RESULTS))
