"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage, from the repository root::

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json
    python benchmarks/e2e/compare.py \\
        benchmarks/e2e/results/baseline.json#untraced_1 \\
        benchmarks/e2e/results/baseline.json#untraced_2

Each argument is a results file written by ``run.py`` (``--repeat`` runs
per workload), or ``FILE#SET`` for one named set of a file that holds
several, like ``baseline.json``.  Every end-to-end metric declared in
``BENCHMARK.json`` is judged on every workload against its bound:

* ``unresolved`` -- fewer than two runs on a side, or a side's spread
  (distance between the quartiles over the median) wider than the
  bound, unless every change run reads better than every parent run;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound;
* ``improved`` -- the change wins at least nine tenths of the run pairs
  (same seed, else same position) and the medians differ by more than
  the parent's quartile distance;
* ``unchanged`` -- anything else.

Operations that failed a check are compared too: any more failures
than the parent counts as ``regressed``.  The exit code is 1 when
anything regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

__all__ = ["compare", "judge", "load_runs", "main"]

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")


def load_runs(spec: str) -> List[dict]:
    """The untraced runs of ``FILE`` or ``FILE#SET``."""
    path, _, set_name = spec.partition("#")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if set_name:
        data = data["sets"][set_name]
    return [run for run in data["runs"] if not run.get("trace")]


def _pairs(parent: List[dict], change: List[dict], metric: str) -> List[Tuple[float, float]]:
    """Parent/change values of one metric, paired by seed or else by position."""
    by_seed = {run["seed"]: run for run in change}
    if all(run["seed"] in by_seed for run in parent):
        matched = [(run, by_seed[run["seed"]]) for run in parent]
    else:
        matched = list(zip(parent, change))
    return [
        (a["metrics"][metric]["value"], b["metrics"][metric]["value"])
        for a, b in matched
        if metric in a["metrics"] and metric in b["metrics"]
    ]


def judge(a: List[float], b: List[float], pairs, bound: float, higher_is_better: bool) -> dict:
    """Verdict for one metric on one workload (see the module docstring)."""
    if len(a) < 2 or len(b) < 2:
        return {"verdict": "unresolved", "why": "fewer than two runs on a side"}
    sign = -1.0 if higher_is_better else 1.0
    a_q1, a_med, a_q3 = statistics.quantiles(a, n=4)
    b_q1, b_med, b_q3 = statistics.quantiles(b, n=4)
    spread_a = (a_q3 - a_q1) / abs(a_med)
    spread_b = (b_q3 - b_q1) / abs(b_med)
    worse = sign * (b_med - a_med) / abs(a_med)
    row = {
        "parent": [a_q1, a_med, a_q3],
        "change": [b_q1, b_med, b_q3],
        "worse_frac": worse,
        "spread": [spread_a, spread_b],
    }
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if max(spread_a, spread_b) > bound and not all_better:
        return dict(row, verdict="unresolved", why="spread wider than the bound")
    if worse > bound:
        return dict(row, verdict="regressed", why=f"median worse by more than {bound:.0%}")
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and -worse * abs(a_med) > a_q3 - a_q1:
        return dict(row, verdict="improved", why=f"won {wins}/{len(pairs)} pairs")
    return dict(row, verdict="unchanged", why="")


def compare(parent: List[dict], change: List[dict], benchmark: dict) -> List[dict]:
    """One row per (workload, metric), plus one failure row per workload."""
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        a_runs = [r for r in parent if r["workload"] == workload]
        b_runs = [r for r in change if r["workload"] == workload]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs if name in r["metrics"]]
            row = judge(
                a, b, _pairs(a_runs, b_runs, name), metric["bound"], metric["better"] == "higher"
            )
            rows.append(dict(row, workload=workload, metric=name, unit=metric["unit"]))
        a_fail = sum(r["failed"] for r in a_runs) / max(1, sum(r["attempted"] for r in a_runs))
        b_fail = sum(r["failed"] for r in b_runs) / max(1, sum(r["attempted"] for r in b_runs))
        rows.append(
            {
                "workload": workload,
                "metric": "error_rate",
                "unit": "failed/attempted",
                "parent": [a_fail] * 3,
                "change": [b_fail] * 3,
                "verdict": "regressed" if b_fail > a_fail else "unchanged",
                "why": "",
            }
        )
    return rows


def _format(row: dict) -> str:
    if "parent" not in row:
        return f"{row['workload']:<15} {row['metric']:<12} {row['verdict']:<11} {row['why']}"
    a, b = row["parent"], row["change"]
    change = (b[1] - a[1]) / abs(a[1]) if a[1] else 0.0
    return (
        f"{row['workload']:<15} {row['metric']:<12} "
        f"{a[1]:>12.5g} [{a[0]:.5g}, {a[2]:.5g}] -> {b[1]:>12.5g} [{b[0]:.5g}, {b[2]:.5g}] "
        f"{change:+7.2%} {row['unit']:<8} {row['verdict']:<11} {row['why']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="results of the parent commit (FILE or FILE#SET)")
    parser.add_argument("change", help="results of the change (FILE or FILE#SET)")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    rows = compare(load_runs(args.parent), load_runs(args.change), benchmark)
    print("workload        metric       parent median [q1, q3] -> change median [q1, q3]  change  verdict")
    for row in rows:
        print(_format(row))
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{n} {verdict}" for verdict, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
