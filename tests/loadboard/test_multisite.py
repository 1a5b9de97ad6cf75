"""Property and edge-case tests for the multi-site load board.

The isolation contract: with zero crosstalk an N-site capture is
bit-identical (``np.array_equal``) to N independent single-site
captures on the per-site boards -- crosstalk then layers on top as a
strictly |coupling|-monotone deviation that only mixes co-inserted
devices.  Edge cases pin the lot geometry: empty and single-device
lots and lot sizes not divisible by the site count.
"""

import numpy as np
import pytest

from repro.circuits.behavioral import BehavioralAmplifier
from repro.dsp.waveform import PiecewiseLinearStimulus
from repro.loadboard.signature_path import SignaturePathConfig, SignatureTestBoard
from repro.loadboard.sites import MultiSiteBoard, MultiSiteConfig
from repro.parallel import spawn_generators


def _cfg(**overrides):
    """A small noisy signature path: 128-sample captures."""
    base = dict(
        carrier_freq=900e6,
        carrier_power_dbm=10.0,
        lpf_cutoff_hz=0.45e6,
        lpf_order=5,
        digitizer_rate=2e6,
        digitizer_noise_vrms=1e-3,
        capture_seconds=64e-6,
        envelope_oversample=2,
        dut_coupling="tuned",
    )
    base.update(overrides)
    return SignaturePathConfig(**base)


def _lot(n, seed=3):
    rng = np.random.default_rng(seed)
    return [
        BehavioralAmplifier(
            900e6,
            float(rng.uniform(8.0, 18.0)),
            float(rng.uniform(0.5, 3.5)),
            float(rng.uniform(-12.0, -2.0)),
        )
        for _ in range(n)
    ]


@pytest.fixture
def stim():
    rng = np.random.default_rng(5)
    return PiecewiseLinearStimulus(rng.uniform(-0.7, 0.7, 6), 64e-6)


def _gens(n, seed=11):
    return spawn_generators(np.random.default_rng(seed), n)


class TestIsolationBitExactness:
    @pytest.mark.parametrize("n_devices", [3, 4, 7, 8])
    def test_zero_coupling_equals_per_site_serial(self, stim, n_devices):
        board = MultiSiteBoard(
            _cfg(),
            MultiSiteConfig(
                n_sites=4,
                crosstalk_coupling=0.0,
                site_loss_skew_db=[0.0, 0.3, 0.6, 0.9],
            ),
        )
        devices = _lot(n_devices)
        multi = board.signature_batch(devices, stim, rngs=_gens(n_devices))
        gens = _gens(n_devices)
        for j, site_board in enumerate(board.site_boards):
            idx = list(range(j, n_devices, 4))
            serial = site_board.signature_batch(
                [devices[i] for i in idx], stim, rngs=[gens[i] for i in idx]
            )
            assert np.array_equal(multi[idx], serial)

    def test_single_device_is_site_zero_solo(self, stim):
        board = MultiSiteBoard(_cfg(), MultiSiteConfig(n_sites=4))
        device = _lot(1)[0]
        multi = board.signature(device, stim, rng=np.random.default_rng(17))
        solo = board.site_boards[0].signature(
            device, stim, rng=np.random.default_rng(17)
        )
        assert np.array_equal(multi, solo)

    def test_single_site_board_equals_plain_board(self, stim):
        cfg = _cfg()
        board = MultiSiteBoard(cfg, MultiSiteConfig(n_sites=1))
        plain = SignatureTestBoard(cfg)
        devices = _lot(3)
        assert np.array_equal(
            board.signature_batch(devices, stim, rngs=_gens(3)),
            plain.signature_batch(devices, stim, rngs=_gens(3)),
        )



class TestCrosstalkProperties:
    def _deviation(self, stim, coupling, n_devices=4):
        devices = _lot(n_devices)
        clean = MultiSiteBoard(
            _cfg(), MultiSiteConfig(n_sites=4, crosstalk_coupling=0.0)
        ).signature_batch(devices, stim, rngs=_gens(n_devices))
        coupled = MultiSiteBoard(
            _cfg(), MultiSiteConfig(n_sites=4, crosstalk_coupling=coupling)
        ).signature_batch(devices, stim, rngs=_gens(n_devices))
        return float(np.linalg.norm(coupled - clean) / np.linalg.norm(clean))

    def test_deviation_strictly_monotone_in_coupling_magnitude(self, stim):
        deviations = [self._deviation(stim, c) for c in (0.01, 0.05, 0.2)]
        assert 0.0 < deviations[0] < deviations[1] < deviations[2]

    def test_negative_coupling_also_couples(self, stim):
        assert self._deviation(stim, -0.05) > 0.0

    def test_matrix_coupling_matches_uniform_scalar(self, stim):
        devices = _lot(4)
        c = 0.04
        mat = np.full((2, 2), c)
        np.fill_diagonal(mat, 0.0)
        scalar = MultiSiteBoard(
            _cfg(), MultiSiteConfig(n_sites=2, crosstalk_coupling=c)
        ).signature_batch(devices, stim, rngs=_gens(4))
        matrix = MultiSiteBoard(
            _cfg(), MultiSiteConfig(n_sites=2, coupling_matrix=mat)
        ).signature_batch(devices, stim, rngs=_gens(4))
        # same physics, different summation order: the scalar path forms
        # c*(total - self), the matrix path accumulates c*other per pair
        assert np.allclose(matrix, scalar, rtol=1e-9, atol=1e-12)

    def test_permutation_within_insertion_only_permutes_records(self, stim):
        # identical sites (uniform coupling, no skew): swapping two
        # devices of the same insertion swaps their records bit for bit
        devices = _lot(4)
        gens_seed = 29
        board = MultiSiteBoard(
            _cfg(), MultiSiteConfig(n_sites=4, crosstalk_coupling=0.05)
        )
        base = board.signature_batch(
            devices, stim, rngs=_gens(4, seed=gens_seed)
        )
        perm = [2, 1, 0, 3]  # swap sites 0 and 2 within the insertion
        gens = _gens(4, seed=gens_seed)
        permuted = board.signature_batch(
            [devices[i] for i in perm], stim, rngs=[gens[i] for i in perm]
        )
        # the crosstalk accumulator sums sites in order, so a permuted
        # lot rounds differently in the last bit; the physics is
        # permutation-equivariant, the float sum is only nearly so
        assert np.allclose(permuted, base[perm], rtol=1e-9, atol=1e-12)

    def test_crosstalk_only_mixes_co_inserted_devices(self, stim):
        # a second insertion's devices must not leak into the first
        devices = _lot(4)
        board = MultiSiteBoard(
            _cfg(), MultiSiteConfig(n_sites=2, crosstalk_coupling=0.05)
        )
        both = board.signature_batch(devices, stim, rngs=_gens(4))
        first_only = board.signature_batch(
            devices[:2], stim, rngs=_gens(4)[:2]
        )
        assert np.array_equal(both[:2], first_only)


class TestEdgeLots:
    def test_empty_lot_keeps_bin_count(self, stim):
        board = MultiSiteBoard(_cfg(), MultiSiteConfig(n_sites=4))
        sigs = board.signature_batch([], stim, rngs=[], n_bins=32)
        assert sigs.shape == (0, 32)
        assert board.capture_batch([], stim, rngs=[]) == []

    def test_lot_not_divisible_by_sites(self, stim):
        board = MultiSiteBoard(
            _cfg(), MultiSiteConfig(n_sites=4, crosstalk_coupling=0.02)
        )
        sigs = board.signature_batch(_lot(7), stim, rngs=_gens(7))
        assert sigs.shape[0] == 7
        assert np.all(np.isfinite(sigs))

    def test_overdrive_snapshot_covers_all_sites(self, stim):
        board = MultiSiteBoard(_cfg(), MultiSiteConfig(n_sites=3))
        board.signature_batch(_lot(5), stim, rngs=_gens(5))
        peak, ratios = board.overdrive_snapshot()
        assert len(ratios) == 5
        assert peak == pytest.approx(float(np.max(ratios)))


class TestContentionTiming:
    def test_insertion_time_grows_with_occupancy(self):
        board = MultiSiteBoard(
            _cfg(),
            MultiSiteConfig(
                n_sites=4,
                lo_retune_seconds=1e-3,
                digitizer_readout_seconds=2e-3,
            ),
        )
        times = [board.insertion_test_time(k) for k in (1, 2, 3, 4)]
        assert times == sorted(times)
        assert times[1] - times[0] == pytest.approx(3e-3)  # readout + retune
        cfg = board.config
        assert times[0] == pytest.approx(
            cfg.setup_time + cfg.capture_seconds + 2e-3
        )

    def test_arbitration_is_overhead_versus_single_site(self):
        board = MultiSiteBoard(
            _cfg(),
            MultiSiteConfig(
                n_sites=4,
                lo_retune_seconds=1e-3,
                digitizer_readout_seconds=2e-3,
            ),
        )
        assert board.arbitration_seconds(1) == pytest.approx(0.0)
        assert board.arbitration_seconds() == pytest.approx(3 * 2e-3 + 3 * 1e-3)
        assert board.device_test_time() == pytest.approx(
            board.insertion_test_time() / 4
        )

    def test_occupancy_bounds_validated(self):
        board = MultiSiteBoard(_cfg(), MultiSiteConfig(n_sites=2))
        with pytest.raises(ValueError):
            board.insertion_test_time(0)
        with pytest.raises(ValueError):
            board.insertion_test_time(3)


class TestConfigValidation:
    def test_skew_length_must_match_sites(self):
        with pytest.raises(ValueError):
            MultiSiteConfig(n_sites=4, site_loss_skew_db=[0.0, 0.1])

    def test_coupling_matrix_diagonal_must_be_zero(self):
        mat = np.full((2, 2), 0.1)
        with pytest.raises(ValueError):
            MultiSiteConfig(n_sites=2, coupling_matrix=mat)

    def test_coupling_matrix_shape_must_match_sites(self):
        mat = np.zeros((3, 3))
        with pytest.raises(ValueError):
            MultiSiteConfig(n_sites=2, coupling_matrix=mat)

    def test_has_crosstalk_flag(self):
        assert not MultiSiteConfig(n_sites=2).has_crosstalk
        assert MultiSiteConfig(n_sites=2, crosstalk_coupling=0.01).has_crosstalk
        mat = np.zeros((2, 2))
        assert not MultiSiteConfig(n_sites=2, coupling_matrix=mat).has_crosstalk

    def test_chunk_alignment_is_site_count(self):
        board = MultiSiteBoard(_cfg(), MultiSiteConfig(n_sites=3))
        assert board.chunk_alignment == 3
        assert [board.site_of(i) for i in range(5)] == [0, 1, 2, 0, 1]
        assert board.site_indices(5) == [[0, 3], [1, 4], [2]]
