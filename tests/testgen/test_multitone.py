"""Tests for repro.testgen.multitone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.spectral import amplitude_spectrum
from repro.testgen.multitone import MultitoneEncoding, MultitoneStimulus


class TestMultitoneStimulus:
    def test_tones_land_on_their_frequencies(self):
        stim = MultitoneStimulus(
            amplitudes=np.array([0.1, 0.05]),
            phases=np.zeros(2),
            frequencies=np.array([1e6, 3e6]),
            duration=10e-6,
            v_limit=0.4,
        )
        wf = stim.to_waveform(40e6)
        spec = amplitude_spectrum(wf)
        assert spec.amplitude_at(1e6) == pytest.approx(0.1, rel=0.02)
        assert spec.amplitude_at(3e6) == pytest.approx(0.05, rel=0.02)

    def test_amplitude_sum_capped_at_v_limit(self):
        stim = MultitoneStimulus(
            amplitudes=np.array([0.5, 0.5]),
            phases=np.zeros(2),
            frequencies=np.array([1e6, 2e6]),
            duration=10e-6,
            v_limit=0.4,
        )
        assert stim.peak_bound() == pytest.approx(0.4)
        wf = stim.to_waveform(40e6)
        assert wf.peak() <= 0.4 + 1e-9

    def test_newman_phases_lower_crest(self):
        n = 8
        freqs = (1 + 2 * np.arange(n)) / 10e-6
        amps = np.full(n, 0.04)
        k = np.arange(n)
        zero_phase = MultitoneStimulus(amps, np.zeros(n), freqs, 10e-6, 1.0)
        newman = MultitoneStimulus(amps, np.pi * k**2 / n, freqs, 10e-6, 1.0)
        fs = 40e6
        assert newman.crest_factor(fs) < zero_phase.crest_factor(fs)

    def test_all_zero_amplitudes_render_silence(self):
        # the v_limit normalization divides by the amplitude sum; a silent
        # stimulus must skip it rather than compute 0/0 (the autouse FP
        # sanitizer turns any NaN/Inf creation into FloatingPointError)
        stim = MultitoneStimulus(
            np.zeros(3), np.zeros(3), np.array([1e6, 2e6, 3e6]), 10e-6, 0.4
        )
        assert np.array_equal(stim.amplitudes, np.zeros(3))
        assert stim.peak_bound() == 0.0
        wf = stim.to_waveform(40e6)
        assert wf.peak() == 0.0
        assert stim.crest_factor(40e6) == np.inf

    def test_nyquist_guard(self):
        stim = MultitoneStimulus(
            np.array([0.1]), np.zeros(1), np.array([10e6]), 1e-5, 1.0
        )
        with pytest.raises(ValueError, match="Nyquist"):
            stim.to_waveform(15e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultitoneStimulus(np.array([-0.1]), np.zeros(1), np.array([1e6]), 1e-5, 1.0)
        with pytest.raises(ValueError):
            MultitoneStimulus(np.zeros(0), np.zeros(0), np.zeros(0), 1e-5, 1.0)
        with pytest.raises(ValueError):
            MultitoneStimulus(np.array([0.1, 0.1]), np.zeros(1), np.array([1e6]), 1e-5, 1.0)


class TestMultitoneEncoding:
    def test_frequencies_on_bin_grid(self):
        enc = MultitoneEncoding(n_tones=4, duration=5e-6, first_bin=1, bin_step=2)
        freqs = enc.frequencies()
        bins = freqs * 5e-6
        assert np.allclose(bins, np.round(bins))
        assert np.allclose(bins, [1, 3, 5, 7])

    def test_codec_roundtrip(self):
        enc = MultitoneEncoding(n_tones=4, duration=5e-6, v_limit=0.4)
        gene = np.concatenate(
            [np.array([0.05, 0.02, 0.03, 0.01]), np.array([0.1, 1.0, 2.0, 3.0])]
        )
        stim = enc.decode(gene)
        back = enc.encode(stim)
        assert np.allclose(back, gene)

    def test_gene_length(self):
        enc = MultitoneEncoding(n_tones=6)
        assert enc.n_breakpoints == 12
        lower, upper = enc.bounds()
        assert len(lower) == len(upper) == 12
        assert np.all(upper[:6] == enc.v_limit)
        assert np.all(upper[6:] == pytest.approx(2 * np.pi))

    def test_decode_validates_length(self):
        enc = MultitoneEncoding(n_tones=4)
        with pytest.raises(ValueError):
            enc.decode(np.zeros(7))

    @given(n=st.integers(min_value=1, max_value=12))
    @settings(max_examples=20, deadline=None)
    def test_seeds_decode_within_limits(self, n):
        enc = MultitoneEncoding(n_tones=n, duration=5e-6, v_limit=0.4)
        seeds = enc.seed_genes(np.random.default_rng(n))
        for gene in seeds:
            stim = enc.decode(gene)
            assert stim.peak_bound() <= 0.4 + 1e-9


class TestBoardIntegration:
    def test_board_accepts_multitone(self):
        from repro.circuits.behavioral import BehavioralAmplifier
        from repro.loadboard.signature_path import (
            SignaturePathConfig,
            SignatureTestBoard,
        )

        enc = MultitoneEncoding(n_tones=4, duration=5e-6, v_limit=0.3)
        gene = np.concatenate([np.full(4, 0.05), np.zeros(4)])
        stim = enc.decode(gene)
        cfg = SignaturePathConfig(
            digitizer_noise_vrms=0.0, digitizer_bits=None, include_device_noise=False
        )
        board = SignatureTestBoard(cfg)
        device = BehavioralAmplifier(900e6, 16.0, 2.0, 3.0)
        sig = board.signature(device, stim)
        assert np.linalg.norm(sig) > 0

    def test_optimizer_accepts_multitone_encoding(self):
        from repro.circuits.behavioral import BehavioralAmplifier
        from repro.circuits.parameters import ParameterSpace, ProcessParameter
        from repro.loadboard.signature_path import SignaturePathConfig
        from repro.testgen.genetic import GAConfig
        from repro.testgen.optimizer import SignatureStimulusOptimizer

        space = ParameterSpace(
            [
                ProcessParameter("gain_db", 16.0, 0.08),
                ProcessParameter("nf_db", 2.5, 0.10),
                ProcessParameter("iip3_dbm", 3.0, 0.10),
            ]
        )

        def factory(params):
            return BehavioralAmplifier(
                900e6, params["gain_db"], params["nf_db"], params["iip3_dbm"]
            )

        opt = SignatureStimulusOptimizer(
            board_config=SignaturePathConfig(
                digitizer_noise_vrms=1e-3,
                digitizer_bits=None,
                include_device_noise=False,
            ),
            device_factory=factory,
            space=space,
            encoding=MultitoneEncoding(n_tones=4, duration=5e-6, v_limit=0.4),
            ga_config=GAConfig(population_size=8, generations=1),
            rel_step=0.03,
        )
        result = opt.optimize(np.random.default_rng(0))
        assert result.objective_value >= 0
        assert result.stimulus.n_tones == 4
