"""End-to-end benchmark of the paper's workloads.

Run from the repository root::

    python benchmarks/e2e/run.py                      # all three workloads, untraced
    python benchmarks/e2e/run.py --trace              # all three, traced (per-layer)
    python benchmarks/e2e/run.py --workload stream --seed 7 --seconds 30 --trace 0

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the end-to-end metrics when
untraced, the per-layer metrics when traced.  Without it, every workload
runs in its own subprocess, ``--repeat`` times with seeds ``seed``,
``seed + 1``, ..., and the results go to ``results/latest.json``
(or ``--out``).  The exit code is 0 only when every output check
passed; 2 means the package under test could not be imported.
"""

from __future__ import annotations

import os
import sys

# BLAS thread pools are pinned before numpy is imported: a pool's cold
# start costs about a second on the first SVDs of a process, and a
# second thread would contend with the streaming service's dispatcher
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402

__all__ = ["END_TO_END_UNITS", "main", "per_layer_unit", "run_all", "run_one"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS_DIR = os.path.join(HERE, "results")

#: the end-to-end metrics every untraced run reports, with their units
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
}

#: a child run that takes longer than this is counted as failed
CHILD_TIMEOUT_S = 900


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def _import_workloads():
    """The workloads module, importing ``repro`` from this checkout's ``src``."""
    src = os.path.join(ROOT, "src")
    # this directory's modules are imported as the package benchmarks.e2e,
    # never as top-level names (trace.py would shadow the standard library)
    sys.path[:] = [src, ROOT] + [
        p for p in sys.path if os.path.abspath(p or os.curdir) not in (HERE, src, ROOT)
    ]
    import repro

    if os.path.commonpath([os.path.abspath(repro.__file__), src]) != src:
        raise ImportError(f"repro was imported from {repro.__file__}, not from {src}")
    from benchmarks.e2e import workloads

    return workloads


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_spans(name: str, seed: int, spans) -> str:
    """One span file per workload; times in microseconds from the first span."""
    os.makedirs(os.path.join(RESULTS_DIR, "spans"), exist_ok=True)
    path = os.path.join(RESULTS_DIR, "spans", f"{name}.json")
    origin = min((s.start for s in spans), default=0.0)
    rows = [
        [
            s.span_id,
            s.name,
            round((s.start - origin) * 1e6, 1),
            round((s.end - origin) * 1e6, 1),
            s.parent,
            s.request,
            s.thread,
            s.size,
        ]
        for s in spans
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "columns": ["id", "name", "start_us", "end_us", "parent", "request", "thread", "size"],
                "spans": rows,
            },
            fh,
            separators=(",", ":"),
        )
    return path


def run_one(
    workloads, name: str, seed: int, seconds: float, trace: bool, update_reference: bool
) -> int:
    """Run one workload here; print its metrics and the result line."""
    run = workloads.run_workload(name, seed, seconds, trace)
    if update_reference:
        _update_reference(workloads.REFERENCE_PATH, name, run.fingerprint)
    elif seed == workloads.DEFAULT_SEED:
        run.fail("reference", workloads.check_reference(name, run.fingerprint))

    if trace:
        values = run.layers
        units = {metric: per_layer_unit(metric) for metric in workloads.PER_LAYER_METRICS}
        print(f"{name}: spans written to {os.path.relpath(_write_spans(name, seed, run.spans))}")
        for missing in run.missing_targets:
            print(f"{name}: trace target missing: {missing}")
    else:
        values = dict(run.end_to_end(), peak_rss_mb=_peak_rss_mb())
        units = END_TO_END_UNITS
        print(f"{name}: operation times {run.profile()}")
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    for failure in run.failures:
        print(f"{name} FAILED {failure}")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": min(run.failed, run.attempted),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _update_reference(path: str, name: str, fingerprint: dict) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {"workloads": {}}
    reference["workloads"][name] = fingerprint
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_all(seed: int, seconds: float, trace: bool, repeat: int, out: str, names) -> int:
    """Run each workload in its own subprocess and write a results file."""
    runs = []
    for index in range(repeat):
        for name in names:
            cmd = [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(seed + index),
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
            ]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
                )
                stdout, code = proc.stdout, proc.returncode
                sys.stderr.write(proc.stderr)
            except subprocess.TimeoutExpired:
                stdout, code = "", None
            lines = stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line, flush=True)
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            if result is None:
                print(f"{name}: no result (exit code {code})", flush=True)
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            runs.append(
                dict(result, workload=name, seed=seed + index, trace=int(trace), exit_code=code)
            )
    payload = {
        "benchmark": "e2e",
        "seconds": seconds,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "runs": runs,
    }
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"results written to {os.path.relpath(out)}")
    return 0 if all(r["correct"] and r["exit_code"] == 0 for r in runs) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="wall seconds of measured operations per run (set-up not included)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): report per-layer metrics from a traced run",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (all-workload mode)")
    parser.add_argument("--out", default=os.path.join(RESULTS_DIR, "latest.json"))
    parser.add_argument(
        "--update-reference", action="store_true",
        help="record this run's first outputs in reference.json instead of checking them",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be positive and --repeat at least 1")
    if args.update_reference and (args.workload is None or args.seed != 2002):
        parser.error("--update-reference needs --workload and the default seed")
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        print(f"cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    try:
        if args.workload:
            return run_one(
                workloads, args.workload, args.seed, args.seconds, bool(args.trace),
                args.update_reference,
            )
        return run_all(
            args.seed, args.seconds, bool(args.trace), args.repeat, args.out, workloads.WORKLOADS
        )
    except BrokenPipeError:
        return 141


if __name__ == "__main__":
    sys.exit(main())
