import math
import random

import numpy as np
import pytest

from channel_oracle import gauss_markov_shadowing
from uavlink.beamforming import ArrayConfig
from uavlink.channel import ShadowingField, doppler_shift, fspl_db, noise_floor_dbm
from uavlink.mobility import FlightTrace, GeoPoint, TrajectorySampler
from uavlink.phy import PROFILES
from uavlink.simulation import ScenarioConfig, channel_pass


class TestFspl:
    @pytest.mark.parametrize(
        "d,fc,expected",
        [
            (1.0, 28.0, 61.34316062684438),
            (100.0, 28.0, 101.3431606268444),
            (100.0, 2.1, 78.8443858946784),
        ],
    )
    def test_known_values(self, d, fc, expected):
        assert fspl_db(d, fc) == pytest.approx(expected, abs=1e-9)

    def test_clamps_below_one_meter(self):
        assert fspl_db(0.01, 28.0) == fspl_db(1.0, 28.0)

    def test_monotone_in_distance_and_frequency(self):
        rng = random.Random(7)
        for _ in range(200):
            d = rng.uniform(1.0, 5000.0)
            fc = rng.uniform(0.5, 100.0)
            assert fspl_db(d * 1.5, fc) > fspl_db(d, fc)
            assert fspl_db(d, fc * 1.5) > fspl_db(d, fc)

    def test_doubling_distance_adds_6db(self):
        rng = random.Random(8)
        for _ in range(100):
            d = rng.uniform(1.0, 10000.0)
            delta = fspl_db(2 * d, 28.0) - fspl_db(d, 28.0)
            assert delta == pytest.approx(20 * math.log10(2.0), abs=1e-9)

    def test_matches_independent_recomputation(self):
        # Same closed form, independently rearranged.
        rng = random.Random(9)
        for _ in range(10_000):
            d = rng.uniform(1.0, 20000.0)
            fc = rng.uniform(0.4, 300.0)
            oracle = 32.4 + 10.0 * math.log10(d * d) + 20.0 * math.log10(fc)
            assert abs(fspl_db(d, fc) - oracle) < 1e-9


class TestDoppler:
    def test_zero_speed(self):
        assert doppler_shift(0.0, 28.0) == 0.0

    def test_ten_ms_toward_bs(self):
        assert doppler_shift(10.0, 28.0) == pytest.approx(933.9794665548258, abs=1e-6)

    def test_odd_symmetry(self):
        assert doppler_shift(-10.0, 28.0) == -doppler_shift(10.0, 28.0)

    def test_matches_independent_recomputation(self):
        rng = random.Random(10)
        for _ in range(10_000):
            v = rng.uniform(-50.0, 50.0)
            fc = rng.uniform(0.4, 300.0)
            oracle = v / (299_792_458.0 / (fc * 1e9))
            assert abs(doppler_shift(v, fc) - oracle) < 1e-6


def along_x(step, n):
    """``n`` points ``step`` m apart along x at 30 m, as (x, y, z) arrays."""
    return np.arange(n) * step, np.zeros(n), np.full(n, 30.0)


def lag_one_correlation(vals):
    a, b = vals[:-1], vals[1:]
    return float(np.corrcoef(a, b)[0, 1])


class TestShadowing:
    def test_same_position_same_value(self):
        field = ShadowingField(sigma=4.0, seed=3)
        here = (np.array([5.0]), np.array([5.0]), np.array([5.0]))
        a = field.sample_at(*here)
        b = field.sample_at(*here)
        assert a[0] == b[0]

    def test_reproducible_across_instances(self):
        i = np.arange(50.0)
        queries = (i * 3.0, i * 1.0, np.full(50, 30.0))
        f1 = ShadowingField(sigma=4.0, seed=11)
        f2 = ShadowingField(sigma=4.0, seed=11)
        assert np.array_equal(f1.sample_at(*queries), f2.sample_at(*queries))

    def test_std_over_separated_positions(self):
        vals = ShadowingField(sigma=4.0, seed=4).sample_at(*along_x(100.0, 10_000))
        assert np.std(vals, ddof=1) == pytest.approx(4.0, rel=0.05)

    def test_decorrelated_at_ten_lengths(self):
        vals = ShadowingField(sigma=4.0, seed=5).sample_at(*along_x(100.0, 10_001))
        assert abs(lag_one_correlation(vals)) < 0.05

    def test_correlated_at_short_steps(self):
        vals = ShadowingField(sigma=4.0, seed=6).sample_at(*along_x(1.0, 5_001))
        assert lag_one_correlation(vals) == pytest.approx(math.exp(-0.1), abs=0.05)

    def test_zero_sigma(self):
        # +0.0 everywhere: over scan blocks, a 2 km jump, and from one call to the next.
        field = ShadowingField(sigma=0.0, seed=7)
        x = np.concatenate((np.arange(1000.0), 3000.0 + np.arange(2000.0)))
        path = (x, np.full(3000, 2.0), np.full(3000, 3.0))
        for part in (slice(0, 1500), slice(1500, None)):
            vals = field.sample_at(*(c[part] for c in path))
            assert (vals == 0.0).all() and not np.signbit(vals).any()

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
        # A NaN sigma would make every SNR NaN, which the MAC reads as the top MCS.
        with pytest.raises(ValueError, match="sigma must be non-negative and finite"):
            ShadowingField(sigma=sigma, seed=0)


class TestShadowingArrays:
    # 2000 points 1 m apart (200 decorrelation lengths), a 50 km jump in one
    # step, then 2000 more: more than one scan block, and a step whose decay
    # would overflow exp in a single block.
    X = np.concatenate((np.arange(2000.0), 50_000.0 + np.arange(2000.0)))
    Y, Z = np.zeros(4000), np.full(4000, 30.0)
    EDGES = [0, 700, 2000, 2001, 3500, 4000]  # one edge at the jump

    def test_jump_stays_finite_and_chunks_match_one_call(self):
        whole = ShadowingField(sigma=4.0, seed=8).sample_at(self.X, self.Y, self.Z)
        assert np.all(np.isfinite(whole))
        chunked = ShadowingField(sigma=4.0, seed=8)
        parts = [chunked.sample_at(self.X[a:b], self.Y[a:b], self.Z[a:b])
                 for a, b in zip(self.EDGES, self.EDGES[1:])]
        assert np.abs(np.concatenate(parts) - whole).max() < 1e-9

    def test_array_call_matches_scalar_recursion(self):
        # One call and chunked calls, against the recursion one point at a time.
        expect = gauss_markov_shadowing(list(zip(self.X, self.Y, self.Z)), 4.0, seed=9)
        whole = ShadowingField(sigma=4.0, seed=9).sample_at(self.X, self.Y, self.Z)
        assert np.abs(whole - expect).max() < 1e-9
        chunked = ShadowingField(sigma=4.0, seed=9)
        parts = [chunked.sample_at(self.X[a:b], self.Y[a:b], self.Z[a:b])
                 for a, b in zip(self.EDGES, self.EDGES[1:])]
        assert np.abs(np.concatenate(parts) - expect).max() < 1e-9

    def test_zero_sigma_arrays(self):
        field = ShadowingField(sigma=0.0, seed=7)
        assert np.array_equal(field.sample_at(self.X, self.Y, self.Z), np.zeros(4000))


class TestNoiseFloor:
    def test_mmwave_band(self):
        assert noise_floor_dbm(1e9, 5.0) == pytest.approx(-79.0, abs=1e-9)

    def test_lte_band(self):
        assert noise_floor_dbm(20e6, 5.0) == pytest.approx(-95.98970004336019, abs=1e-9)


NOISE_FLOOR = -174.0 + 90.0 + 5.0  # dBm over 1 GHz, 5 dB noise figure


def fspl_28ghz(d):
    return 32.4 + 20.0 * math.log10(d) + 20.0 * math.log10(28.0)


def pass_over(points, bs_position, bs_array, uav_array, sigma=0.0, seed=0):
    """channel_pass over 20 ms of a trace through ``points`` (t, x, y, z)."""
    trace = FlightTrace(GeoPoint(0.0, 30.0, 0.0, 30.0), *zip(*points))
    cfg = ScenarioConfig(trace=trace, profile=PROFILES["mmwave"], bs_array=bs_array,
                         uav_array=uav_array, source_rate=1e6, bs_position=bs_position,
                         sim_window=0.02, seed=0)
    return channel_pass(cfg, ShadowingField(sigma=sigma, seed=seed))


class TestSampleChannel:
    """The link budget of channel_pass, on every slot and every recorded sample."""

    def test_link_budget_example(self):
        # Hovering 100 m above the BS: both arrays on boresight, full gains.
        # 30 dBm + 30.10 dB gains - FSPL(100 m, 28 GHz) + 79 dBm noise floor.
        snr, samples = pass_over([(0.0, 0.0, 0.0, 125.0), (1.0, 0.0, 0.0, 125.0)],
                                 (0.0, 0.0, 25.0), ArrayConfig(8, 8), ArrayConfig(4, 4))
        expected = 30.0 + 10 * math.log10(16) + 10 * math.log10(64) - fspl_28ghz(100.0) + 79.0
        assert np.abs(snr - expected).max() < 1e-9
        assert np.array_equal(samples.snr, snr[::40])
        assert expected == pytest.approx(37.76, abs=0.02)

    def test_degenerate_budget(self):
        # Single-element arrays (0 dB), the UAV at the BS (FSPL of the 1 m
        # clamp), zero shadowing.
        snr, samples = pass_over([(0.0, 0.0, 0.0, 25.0), (1.0, 0.0, 0.0, 25.0)],
                                 (0.0, 0.0, 25.0), ArrayConfig(1, 1), ArrayConfig(1, 1))
        expected = 30.0 - fspl_28ghz(1.0) - NOISE_FLOOR
        assert np.abs(snr - expected).max() < 1e-9
        assert np.all(samples.noise_floor == pytest.approx(NOISE_FLOOR, abs=1e-9))

    def test_identity_holds_on_sample(self):
        _, samples = pass_over([(0.0, 10.0, -20.0, 30.0), (1.0, 13.0, -16.0, 30.0)],
                               (0.0, 0.0, 25.0), ArrayConfig(4, 4), ArrayConfig(2, 2),
                               sigma=4.0, seed=12)
        assert np.all(samples.shadowing != 0.0)
        rebuilt = (samples.tx_power + samples.tx_gain + samples.rx_gain
                   - samples.pathloss - samples.shadowing - samples.noise_floor)
        assert np.abs(samples.snr - rebuilt).max() < 1e-12

    def test_snr_invariant_under_doppler(self, monkeypatch):
        # Identical positions, a different velocity: phase-only Doppler.
        points = [(0.0, 50.0, 0.0, 30.0), (1.0, 45.0, 0.0, 30.0)]
        args = ((0.0, 0.0, 25.0), ArrayConfig(8, 8), ArrayConfig(4, 4))
        snr, still = pass_over(points, *args, sigma=4.0, seed=13)
        track = TrajectorySampler.track

        def faster(sampler, t):
            pos, vel = track(sampler, t)
            return pos, vel - [[10.0], [0.0], [0.0]]

        monkeypatch.setattr(TrajectorySampler, "track", faster)
        moving_snr, moving = pass_over(points, *args, sigma=4.0, seed=13)
        assert np.array_equal(moving_snr, snr)
        assert np.array_equal(moving.snr, still.snr)
        assert np.all(moving.doppler_shift > still.doppler_shift)

    def test_doppler_sign_positive_when_closing(self):
        # 5 m/s straight at the BS.
        _, samples = pass_over([(0.0, 100.0, 0.0, 25.0), (10.0, 50.0, 0.0, 25.0)],
                               (0.0, 0.0, 25.0), ArrayConfig(1, 1), ArrayConfig(1, 1))
        assert np.all(samples.doppler_shift > 0)
        assert samples.doppler_shift == pytest.approx(5.0 * 28e9 / 299_792_458.0, rel=1e-12)
