"""Signal-processing substrate for the signature-test framework.

This package provides the low-level signal machinery that the load board,
instruments and experiments are built from:

* :mod:`repro.dsp.waveform` -- sampled-waveform container and PWL stimuli.
* :mod:`repro.dsp.sources` -- tones, two-tone sets, chirps, noise records.
* :mod:`repro.dsp.filters` -- from-scratch Butterworth/FIR design and
  application.
* :mod:`repro.dsp.mixer` -- behavioral RF mixer with harmonic cross products.
* :mod:`repro.dsp.spectral` -- windows, spectra and FFT-magnitude signatures.
* :mod:`repro.dsp.units` -- the designated dB <-> linear conversion
  helpers (all log-domain arithmetic lives here; enforced by
  :mod:`repro.analysis.units`).
* :mod:`repro.dsp.noise` -- additive noise, quantization and kTB helpers.
* :mod:`repro.dsp.passband` -- brute-force passband simulator used to
  cross-validate the fast envelope engine in
  :mod:`repro.loadboard.signature_path`.
"""

from repro.dsp.waveform import Waveform, PiecewiseLinearStimulus
from repro.dsp.sources import (
    tone,
    two_tone,
    chirp,
    white_noise,
    silence,
    dc,
)
from repro.dsp.filters import (
    ButterworthLowpass,
    FIRLowpass,
    butterworth_poles,
    butterworth_sos,
)
from repro.dsp.mixer import Mixer, MixerHarmonics
from repro.dsp.spectral import (
    Spectrum,
    amplitude_spectrum,
    fft_magnitude_signature,
    tone_amplitude,
    window,
)
from repro.dsp.noise import (
    add_awgn,
    quantize,
)
from repro.dsp.units import (
    db,
    undb,
    db20,
    undb20,
    watts_to_dbm,
    dbm_to_watts,
)

__all__ = [
    "Waveform",
    "PiecewiseLinearStimulus",
    "tone",
    "two_tone",
    "chirp",
    "white_noise",
    "silence",
    "dc",
    "ButterworthLowpass",
    "FIRLowpass",
    "butterworth_poles",
    "butterworth_sos",
    "Mixer",
    "MixerHarmonics",
    "Spectrum",
    "amplitude_spectrum",
    "fft_magnitude_signature",
    "tone_amplitude",
    "window",
    "add_awgn",
    "quantize",
    "db",
    "undb",
    "db20",
    "undb20",
    "watts_to_dbm",
    "dbm_to_watts",
]
