"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  The
tracer tests use an injected clock; the smoke tests run each workload
briefly through ``run.py`` and check that it reports every metric
``BENCHMARK.json`` declares.
"""

import json
import os
import subprocess
import sys
import threading
import types

import pytest

from . import workloads
from .compare import judge
from .speed import SpeedProbe
from .trace import TARGETS, Target, Tracer, layer_stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _clock(*times):
    """A fake clock returning ``times`` in order, one per reading."""
    readings = iter(times)
    return lambda: next(readings)


class TestSelfTime:
    def test_nested_spans(self):
        tracer = Tracer(clock=_clock(0.0, 1.0, 3.0, 4.0, 5.0, 10.0))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        stats = layer_stats(tracer.spans())
        assert stats["outer"].calls == 1
        assert stats["outer"].total_s == pytest.approx(10.0)
        assert stats["outer"].self_s == pytest.approx(7.0)
        assert stats["inner"].calls == 2
        assert stats["inner"].total_s == pytest.approx(3.0)
        assert stats["inner"].self_s == pytest.approx(3.0)

    def test_reentered_name_is_totalled_once(self):
        tracer = Tracer(clock=_clock(0.0, 2.0, 5.0, 10.0))
        with tracer.span("f"):
            with tracer.span("f"):
                pass
        stats = layer_stats(tracer.spans())["f"]
        assert (stats.calls, stats.total_s, stats.self_s) == (2, pytest.approx(10.0), pytest.approx(10.0))

    def test_spans_of_another_thread_are_not_children(self):
        tracer = Tracer(clock=_clock(0.0, 2.0, 8.0, 10.0))

        def work():
            with tracer.span("worker"):
                pass

        with tracer.span("main"):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
        spans = {span.name: span for span in tracer.spans()}
        assert spans["worker"].parent is None
        assert spans["worker"].thread != spans["main"].thread
        stats = layer_stats(list(spans.values()))
        assert stats["main"].self_s == pytest.approx(10.0)
        assert stats["worker"].self_s == pytest.approx(6.0)

    def test_request_ids_and_parents(self):
        tracer = Tracer(clock=_clock(0.0, 1.0, 2.0, 3.0))
        tracer.set_request(7)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        a, b = tracer.spans()
        assert (a.request, b.request) == (7, 7)
        assert (a.parent, b.parent) == (None, a.span_id)

    def test_a_new_thread_inherits_the_latest_request(self):
        tracer = Tracer(clock=_clock(0.0, 1.0))
        tracer.set_request(3)

        def work():
            with tracer.span("worker"):
                pass

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        (span,) = tracer.spans()
        assert span.request == 3


class _FixedProbe:
    """Stands in for the speed probe: returns the given factors in order."""

    def __init__(self, *factors):
        self._factors = iter(factors)

    def factor(self):
        return next(self._factors)


class TestSpeedScaling:
    @pytest.mark.parametrize("exponent", [1.0, 0.8])
    def test_wall_time_is_divided_by_the_mean_surrounding_factor(self, exponent):
        output, wall, scaled = workloads._timed(lambda: "out", _FixedProbe(1.0, 2.0), exponent)
        assert output == "out"
        assert wall > 0.0
        assert scaled == pytest.approx(wall / 1.5**exponent)

    def test_probe_factor_is_positive(self):
        factor = SpeedProbe().factor()
        assert 0.0 < factor < 100.0


class _Base:
    def inherited(self):
        return "base"


class _Owner(_Base):
    def method(self, x):
        return 2 * x


def _function(x):
    return x + 1


class TestPatching:
    @pytest.fixture
    def fake_module(self, monkeypatch):
        module = types.ModuleType("e2e_fake_layer")
        module.Owner = _Owner
        module.function = _function
        monkeypatch.setitem(sys.modules, module.__name__, module)
        return module

    def test_round_trip_restores_identical_objects(self, fake_module):
        original_method = vars(_Owner)["method"]
        tracer = Tracer(clock=_clock(*range(100)))
        tracer.patch(
            [
                Target("fake.method", "e2e_fake_layer:Owner.method"),
                Target("fake.inherited", "e2e_fake_layer:Owner.inherited"),
                Target("fake.function", "e2e_fake_layer:function", size=lambda args: args[0]),
                Target("fake.deleted", "e2e_fake_layer:Owner.deleted"),
                Target("fake.no_module", "e2e_no_such_module:function"),
            ]
        )
        try:
            assert vars(_Owner)["method"] is not original_method
            assert _Owner().method(3) == 6
            assert _Owner().inherited() == "base"
            assert fake_module.function(4) == 5
        finally:
            tracer.unpatch()
        assert vars(_Owner)["method"] is original_method
        assert "inherited" not in vars(_Owner)
        assert fake_module.function is _function
        assert [m.split(" ")[0] for m in tracer.missing] == ["fake.deleted", "fake.no_module"]
        stats = layer_stats(tracer.spans())
        assert {name: s.calls for name, s in stats.items()} == {
            "fake.method": 1,
            "fake.inherited": 1,
            "fake.function": 1,
        }
        assert stats["fake.function"].size == 4

    def test_round_trip_on_the_real_targets(self):
        tracer = Tracer()
        tracer.patch(TARGETS)
        patched = list(tracer._patches)
        tracer.unpatch()
        assert patched, "no target resolved"
        for owner, attr, original, defined in patched:
            assert getattr(owner, attr) is original
            assert (attr in vars(owner)) == defined


class TestCompare:
    def test_verdicts(self):
        same = [100.0, 101.0, 99.0, 100.5, 99.5]
        assert judge(same, same, list(zip(same, same)), 0.1, False)["verdict"] == "unchanged"
        slower = [v * 1.2 for v in same]
        assert judge(same, slower, list(zip(same, slower)), 0.1, False)["verdict"] == "regressed"
        faster = [v * 0.8 for v in same]
        assert judge(same, faster, list(zip(same, faster)), 0.1, False)["verdict"] == "improved"
        assert judge(same, faster, list(zip(same, faster)), 0.1, True)["verdict"] == "regressed"
        noisy = [50.0, 100.0, 150.0, 100.0, 60.0]
        assert judge(noisy, same, list(zip(noisy, same)), 0.1, False)["verdict"] == "unresolved"
        assert judge(same[:1], same[:1], [], 0.1, False)["verdict"] == "unresolved"


def _benchmark_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark_metrics("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
