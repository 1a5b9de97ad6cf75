"""Load-board signature test path (Figures 2 and 3 of the paper).

The load board carries the two mixers, the RF carrier distribution and the
low-pass filter that convert a baseband test stimulus to RF and the DUT
response back to a baseband signature.  Two simulation engines exist:

* :mod:`repro.loadboard.envelope` -- exact harmonic-envelope algebra that
  tracks the signal's complex envelope at every carrier harmonic; fast
  enough to sit inside the genetic optimizer's fitness loop.
* :mod:`repro.dsp.passband` -- brute-force sampled-carrier simulation used
  to cross-validate the envelope engine (see
  ``tests/loadboard/test_envelope_vs_passband.py``).
"""

from repro.loadboard.capture_compiler import CompiledCaptureProgram
from repro.loadboard.envelope import EnvelopeSignal, one_pole_lowpass
from repro.loadboard.scenario_paths import (
    AbmAccessPath,
    AbmPathConfig,
    BistPathConfig,
    BistSignaturePath,
)
from repro.loadboard.signature_path import (
    CapturePlan,
    SignaturePathConfig,
    SignatureTestBoard,
    simulation_config,
    hardware_config,
)
from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig

__all__ = [
    "AbmAccessPath",
    "AbmPathConfig",
    "BistPathConfig",
    "BistSignaturePath",
    "CapturePlan",
    "CompiledCaptureProgram",
    "EnvelopeSignal",
    "MultiSiteBoard",
    "MultiSiteConfig",
    "SignaturePathConfig",
    "SignatureTestBoard",
    "one_pole_lowpass",
    "simulation_config",
    "hardware_config",
]
