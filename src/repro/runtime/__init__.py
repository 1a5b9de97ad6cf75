"""Production-test runtime: the paper's FASTest Runtime System (Figure 5).

* :mod:`repro.runtime.specs` -- datasheet limits and pass/fail binning.
* :mod:`repro.runtime.calibration` -- one-time training: measure specs on
  the RF ATE and signatures on the low-cost tester for the training
  devices, fit normalized regression relationships.
* :mod:`repro.runtime.production` -- the production flow: signature
  capture on the low-cost tester, spec prediction, binning, throughput
  accounting.
* :mod:`repro.runtime.economics` -- test-time and test-cost comparison of
  the conventional and signature flows.
* :mod:`repro.runtime.executor` -- pluggable serial / thread / process
  batch backends with deterministic per-task RNG streams (re-exported as
  :mod:`repro.parallel`).
* :mod:`repro.runtime.service` -- the streaming front end: a
  long-running, bounded-queue lot ingester over the same flow, with
  live metrics (:mod:`repro.runtime.metrics`), stream health monitoring
  (:mod:`repro.runtime.monitoring`) and a seeded wafer-map traffic
  generator (:mod:`repro.runtime.trafficgen`) for soak tests.
"""

from repro.runtime.specs import SpecificationLimit, SpecificationLimits
from repro.runtime.calibration import (
    CalibrationModel,
    CalibrationSession,
    measure_signatures,
)
from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SeedBlock,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    spawn_generators,
    spawn_seeds,
)
from repro.runtime.production import (
    DeviceTestRecord,
    ProductionRunResult,
    ProductionTestFlow,
)
from repro.runtime.economics import (
    TesterCostModel,
    FlowEconomics,
    compare_flows,
)
from repro.runtime.binning import (
    BinningReport,
    confusion,
    guard_banded_limits,
    sweep_guard_band,
)
from repro.runtime.outlier import OutlierScore, SignatureOutlierScreen
from repro.runtime.normalization import GoldenDeviceNormalizer
from repro.runtime.monitoring import (
    GoldenSignatureMonitor,
    MonitorState,
    StreamHealth,
    StreamHealthMonitor,
)
from repro.runtime.metrics import LatencyTracker, MetricsSnapshot, ThroughputMeter
from repro.runtime.stream import Lot, ServiceClosed, StreamRecord, SubmitTimeout
from repro.runtime.service import StreamingTestService
from repro.runtime.trafficgen import LotOrder, TrafficGenerator, WaferMapProfile
from repro.runtime.diagnosis import ParameterDiagnosis, ParameterDiagnosisModel
from repro.runtime.compaction import CompactionResult, compact_test_set
from repro.runtime.artifacts import (
    TestProgram,
    load_test_program,
    save_test_program,
)

__all__ = [
    "SpecificationLimit",
    "SpecificationLimits",
    "CalibrationModel",
    "CalibrationSession",
    "measure_signatures",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "SeedBlock",
    "get_executor",
    "spawn_generators",
    "spawn_seeds",
    "DeviceTestRecord",
    "ProductionRunResult",
    "ProductionTestFlow",
    "TesterCostModel",
    "FlowEconomics",
    "compare_flows",
    "BinningReport",
    "confusion",
    "guard_banded_limits",
    "sweep_guard_band",
    "OutlierScore",
    "SignatureOutlierScreen",
    "GoldenDeviceNormalizer",
    "GoldenSignatureMonitor",
    "MonitorState",
    "StreamHealth",
    "StreamHealthMonitor",
    "LatencyTracker",
    "MetricsSnapshot",
    "ThroughputMeter",
    "Lot",
    "ServiceClosed",
    "StreamRecord",
    "SubmitTimeout",
    "StreamingTestService",
    "LotOrder",
    "TrafficGenerator",
    "WaferMapProfile",
    "ParameterDiagnosis",
    "ParameterDiagnosisModel",
    "CompactionResult",
    "compact_test_set",
    "TestProgram",
    "save_test_program",
    "load_test_program",
]
