"""Tests for the runtime lock-order sanitizer.

An inverted acquisition order raises with the cycle named *before* the
program can deadlock, a clean workload stays clean (including
``Condition`` waits and reentrant ``RLock`` use on real threads), and
hold-time budgets turn convoy locks into reported violations.
"""

import threading
import time

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.circuits.parameters import ParameterSpace, ProcessParameter
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.runtime.calibration import CalibrationSession
from repro.runtime.production import ProductionTestFlow
from repro.runtime.service import StreamingTestService
from repro.runtime.specs import lna_limits
from repro.testgen.pwl import StimulusEncoding
from repro.verify.guards import (
    LockOrderViolation,
    SanitizedLock,
    SanitizedRLock,
    lock_sanitizer,
)

# this module opens its own sanitizer windows; keep the suite-level
# REPRO_SANITIZE_LOCKS window from double-patching threading.Lock
pytestmark = pytest.mark.no_lock_sanitizer


class MiniService:
    """An inverted two-lock service shape.

    ``submit`` orders jobs -> metrics; ``metrics`` orders metrics ->
    jobs.  The sanitizer must catch the inversion live.
    """

    def __init__(self):
        self._jobs_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self.pending = 0
        self.emitted = 0

    def submit(self, item):
        with self._jobs_lock:
            with self._metrics_lock:
                self.pending += 1

    def metrics(self):
        with self._metrics_lock:
            with self._jobs_lock:
                return (self.pending, self.emitted)


class TestLockOrderDetection:
    def test_inversion_raises_with_cycle_named(self):
        with lock_sanitizer(fail_fast=True) as report:
            service = MiniService()
            service.submit("x")
            with pytest.raises(LockOrderViolation) as excinfo:
                service.metrics()
        assert len(excinfo.value.cycle) == 3
        assert "lock order cycle" in str(excinfo.value)
        assert "deadlock" in str(excinfo.value)
        # both lock names (creation sites in this file) appear
        for name in excinfo.value.cycle:
            assert "test_lock_sanitizer.py" in name
        assert report.violations

    def test_failed_acquire_unwinds_cleanly(self):
        with lock_sanitizer(fail_fast=True):
            service = MiniService()
            service.submit("x")
            with pytest.raises(LockOrderViolation):
                service.metrics()
            # the with-statements unwound: nothing is still held, and
            # the consistent order keeps working
            assert not service._jobs_lock.locked()
            assert not service._metrics_lock.locked()
            service.submit("y")
            assert service.pending == 2

    def test_fail_fast_off_records_for_check(self):
        with lock_sanitizer(fail_fast=False) as report:
            service = MiniService()
            service.submit("x")
            service.metrics()  # inversion recorded, not raised
        assert len(report.violations) == 1
        with pytest.raises(LockOrderViolation):
            report.check()

    def test_cycle_closed_by_a_second_thread(self):
        with lock_sanitizer(fail_fast=True) as report:
            service = MiniService()
            errors = []

            def worker():
                try:
                    service.submit("x")
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert not errors
            with pytest.raises(LockOrderViolation):
                service.metrics()
        assert ("order_edges" in report.to_dict()) and report.edges

    def test_consistent_order_is_clean(self):
        with lock_sanitizer(fail_fast=True) as report:
            a = threading.Lock()
            b = threading.Lock()

            def worker():
                for _ in range(50):
                    with a:
                        with b:
                            pass

            threads = [threading.Thread(target=worker) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert report.violations == []
        # a, b, plus each Thread's internal started-event lock
        assert report.n_locks >= 2
        assert len(report.edges) == 1
        report.check()  # must not raise


class TestHoldBudget:
    def test_long_hold_is_reported(self):
        with lock_sanitizer(fail_fast=False, max_hold_seconds=0.005) as report:
            lock = threading.Lock()
            with lock:
                time.sleep(0.02)
        assert any("held for" in v for v in report.violations)
        worst = dict(report.worst_holds())
        assert max(worst.values()) >= 0.02
        with pytest.raises(LockOrderViolation):
            report.check()

    def test_fast_hold_is_within_budget(self):
        with lock_sanitizer(fail_fast=False, max_hold_seconds=5.0) as report:
            lock = threading.Lock()
            with lock:
                pass
        assert report.violations == []


class TestSanitizedPrimitives:
    def test_patched_constructors_return_wrappers(self):
        with lock_sanitizer():
            assert isinstance(threading.Lock(), SanitizedLock)
            assert isinstance(threading.RLock(), SanitizedRLock)
        # restored on exit
        assert not isinstance(threading.Lock(), SanitizedLock)
        assert not isinstance(threading.RLock(), SanitizedRLock)

    def test_rlock_reentrancy_is_not_an_edge(self):
        with lock_sanitizer(fail_fast=True) as report:
            rlock = threading.RLock()
            with rlock:
                with rlock:
                    pass
        assert report.edges == []
        assert report.violations == []

    def test_condition_wait_across_threads(self):
        # Condition() builds on threading.RLock() -> SanitizedRLock;
        # wait() goes through _release_save/_acquire_restore
        with lock_sanitizer(fail_fast=True) as report:
            cond = threading.Condition()
            ready = []

            def worker():
                with cond:
                    while not ready:
                        cond.wait(timeout=5.0)

            t = threading.Thread(target=worker)
            t.start()
            time.sleep(0.01)
            with cond:
                ready.append(True)
                cond.notify_all()
            t.join(timeout=5.0)
            assert not t.is_alive()
        assert report.violations == []

    def test_nonblocking_acquire_never_raises(self):
        with lock_sanitizer(fail_fast=True) as report:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            with b:
                # non-blocking try-acquire cannot deadlock: recorded as
                # a violation but not raised
                assert a.acquire(blocking=False)
                a.release()
        assert len(report.violations) == 1


class TestServiceUnderSanitizer:
    @pytest.fixture(scope="class")
    def flow(self):
        """A tiny calibrated flow (built outside the sanitizer window)."""
        rng = np.random.default_rng(7)
        space = ParameterSpace(
            [
                ProcessParameter("gain_db", 16.0, 0.08),
                ProcessParameter("nf_db", 2.2, 0.10),
                ProcessParameter("iip3_dbm", 3.0, 0.10),
            ]
        )

        def factory(params):
            return BehavioralAmplifier(
                900e6, params["gain_db"], params["nf_db"], params["iip3_dbm"]
            )

        config = SignaturePathConfig(
            digitizer_noise_vrms=1e-3,
            digitizer_bits=None,
            include_device_noise=False,
        )
        board = SignatureTestBoard(config)
        stim = StimulusEncoding(8, config.capture_seconds, 0.4).decode(
            np.array([-0.2, -0.1, 0.0, 0.1, 0.2, 0.15, 0.05, -0.15])
        )
        points = space.sample(rng, 16)
        devices = [factory(space.to_dict(p)) for p in points]
        specs = np.vstack([d.specs().as_vector() for d in devices])
        sigs = np.vstack([board.signature(d, stim, rng=rng) for d in devices])
        calibration = CalibrationSession().fit(sigs, specs, rng=rng)
        flow = ProductionTestFlow(board, stim, calibration, limits=lna_limits())
        return space, factory, flow

    def test_streaming_lifecycle_is_clean(self, flow):
        space, factory, production_flow = flow
        rng = np.random.default_rng(99)
        devices = [
            factory(space.to_dict(p)) for p in space.sample(rng, 6)
        ]
        with lock_sanitizer(fail_fast=True) as report:
            service = StreamingTestService(production_flow, executor="thread:2")
            service.submit(devices, np.random.default_rng(123))
            service.close()
            records = list(service.records())
        assert len(records) == len(devices)
        assert report.violations == []
        # the service and its queues really were instrumented
        assert report.n_locks >= 2
        report.check()
