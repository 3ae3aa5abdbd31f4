import math
import random

import numpy as np
import pytest

from uavlink.channel import (
    LinkProfile,
    ShadowingField,
    doppler_shift,
    fspl_db,
    noise_floor_dbm,
    sample_channel,
)
from uavlink.mobility import MobilityState

MMWAVE = LinkProfile(carrier_freq=28.0, bandwidth=1e9, tx_power=30.0, noise_figure=5.0)


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


class TestShadowing:
    def test_same_position_same_value(self):
        field = ShadowingField(sigma=4.0, decorrelation_distance=10.0, seed=3)
        a = field.sample_at(5.0, 5.0, 5.0)
        b = field.sample_at(5.0, 5.0, 5.0)
        assert a == b

    def test_reproducible_across_instances(self):
        queries = [(i * 3.0, i * 1.0, 30.0) for i in range(50)]
        f1 = ShadowingField(sigma=4.0, decorrelation_distance=10.0, seed=11)
        f2 = ShadowingField(sigma=4.0, decorrelation_distance=10.0, seed=11)
        assert [f1.sample_at(*q) for q in queries] == [f2.sample_at(*q) for q in queries]

    def test_std_over_separated_positions(self):
        field = ShadowingField(sigma=4.0, decorrelation_distance=10.0, seed=4)
        vals = [field.sample_at(i * 100.0, 0.0, 30.0) for i in range(10_000)]
        mean = sum(vals) / len(vals)
        std = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        assert std == pytest.approx(4.0, rel=0.05)

    def test_decorrelated_at_ten_lengths(self):
        field = ShadowingField(sigma=4.0, decorrelation_distance=10.0, seed=5)
        vals = [field.sample_at(i * 100.0, 0.0, 30.0) for i in range(10_001)]
        a, b = vals[:-1], vals[1:]
        ma = sum(a) / len(a)
        mb = sum(b) / len(b)
        cov = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / len(a)
        va = sum((x - ma) ** 2 for x in a) / len(a)
        vb = sum((y - mb) ** 2 for y in b) / len(b)
        rho = cov / math.sqrt(va * vb)
        assert abs(rho) < 0.05

    def test_correlated_at_short_steps(self):
        field = ShadowingField(sigma=4.0, decorrelation_distance=10.0, seed=6)
        vals = [field.sample_at(i * 1.0, 0.0, 30.0) for i in range(5_001)]
        a, b = vals[:-1], vals[1:]
        ma = sum(a) / len(a)
        mb = sum(b) / len(b)
        cov = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / len(a)
        va = sum((x - ma) ** 2 for x in a) / len(a)
        vb = sum((y - mb) ** 2 for y in b) / len(b)
        rho = cov / math.sqrt(va * vb)
        assert rho == pytest.approx(math.exp(-0.1), abs=0.05)

    def test_zero_sigma(self):
        field = ShadowingField(sigma=0.0, decorrelation_distance=10.0, seed=7)
        assert field.sample_at(1.0, 2.0, 3.0) == 0.0


class TestShadowingArrays:
    # 2000 points 1 m apart (200 decorrelation lengths), a 50 km jump in one
    # step, then 2000 more: more than one scan block, and a step whose decay
    # would overflow exp in a single block.
    X = np.concatenate((np.arange(2000.0), 50_000.0 + np.arange(2000.0)))
    Y, Z = np.zeros(4000), np.full(4000, 30.0)

    def test_jump_stays_finite_and_chunks_match_one_call(self):
        whole = ShadowingField(sigma=4.0, seed=8).sample_at(self.X, self.Y, self.Z)
        assert np.all(np.isfinite(whole))
        chunked = ShadowingField(sigma=4.0, seed=8)
        edges = [0, 700, 2000, 2001, 3500, 4000]  # one edge at the jump
        parts = [chunked.sample_at(self.X[a:b], self.Y[a:b], self.Z[a:b])
                 for a, b in zip(edges, edges[1:])]
        assert np.abs(np.concatenate(parts) - whole).max() < 1e-9

    def test_array_call_matches_scalar_recursion(self):
        whole = ShadowingField(sigma=4.0, seed=9).sample_at(self.X, self.Y, self.Z)
        scalar = ShadowingField(sigma=4.0, seed=9)
        expect = [scalar.sample_at(*q) for q in zip(self.X, self.Y, self.Z)]
        assert np.abs(whole - expect).max() < 1e-9

    def test_zero_sigma_arrays(self):
        field = ShadowingField(sigma=0.0, seed=7)
        assert np.array_equal(field.sample_at(self.X, self.Y, self.Z), np.zeros(4000))


class TestNoiseFloor:
    def test_mmwave_band(self):
        assert noise_floor_dbm(1e9, 5.0) == pytest.approx(-79.0, abs=1e-9)

    def test_lte_band(self):
        assert noise_floor_dbm(20e6, 5.0) == pytest.approx(-95.98970004336019, abs=1e-9)


class TestSampleChannel:
    def static_ue(self, position, velocity=(0.0, 0.0, 0.0)):
        return MobilityState(position, velocity)

    def test_link_budget_example(self):
        # 30 dBm + 30.10 dB gains - FSPL(100 m, 28 GHz) + 79 dBm noise floor
        field = ShadowingField(sigma=0.0, decorrelation_distance=10.0, seed=0)
        sample = sample_channel(
            MMWAVE,
            self.static_ue((0.0, 0.0, 25.0)),
            (100.0, 0.0, 25.0),
            tx_gain=10 * math.log10(16),
            rx_gain=10 * math.log10(64),
            shadowing=field,
            t=0.0,
        )
        expected = 30.0 + 10 * math.log10(16) + 10 * math.log10(64) - fspl_db(100.0, 28.0) + 79.0
        assert sample.snr == pytest.approx(expected, abs=1e-9)
        assert sample.snr == pytest.approx(37.76, abs=0.02)

    def test_degenerate_budget(self):
        # Zero gains, sub-meter distance (FSPL of the 1 m clamp), zero shadowing.
        field = ShadowingField(sigma=0.0, decorrelation_distance=10.0, seed=0)
        sample = sample_channel(
            MMWAVE, self.static_ue((0.0, 0.0, 0.0)), (0.0, 0.0, 0.0), 0.0, 0.0, field, 0.0
        )
        assert sample.snr == pytest.approx(
            MMWAVE.tx_power - fspl_db(1.0, 28.0) - sample.noise_floor, abs=1e-9
        )

    def test_identity_holds_on_sample(self):
        field = ShadowingField(sigma=4.0, decorrelation_distance=10.0, seed=12)
        sample = sample_channel(
            MMWAVE, self.static_ue((10.0, -20.0, 30.0), (3.0, 4.0, 0.0)),
            (0.0, 0.0, 25.0), 12.0, 18.0, field, 1.5,
        )
        rebuilt = (
            sample.tx_power
            + sample.tx_gain
            + sample.rx_gain
            - sample.pathloss
            - sample.shadowing
            - sample.noise_floor
        )
        assert sample.snr == pytest.approx(rebuilt, abs=1e-12)

    def test_snr_invariant_under_doppler(self):
        # Identical geometry, different radial speed: phase-only Doppler.
        f1 = ShadowingField(sigma=4.0, decorrelation_distance=10.0, seed=13)
        f2 = ShadowingField(sigma=4.0, decorrelation_distance=10.0, seed=13)
        pos, bs = (50.0, 0.0, 30.0), (0.0, 0.0, 25.0)
        still = sample_channel(MMWAVE, self.static_ue(pos), bs, 5.0, 5.0, f1, 0.0)
        moving = sample_channel(
            MMWAVE, self.static_ue(pos, (-10.0, 0.0, 0.0)), bs, 5.0, 5.0, f2, 0.0
        )
        assert still.snr == moving.snr
        assert moving.doppler_shift != 0.0

    def test_doppler_sign_positive_when_closing(self):
        field = ShadowingField(sigma=0.0, decorrelation_distance=10.0, seed=0)
        toward = sample_channel(
            MMWAVE, self.static_ue((100.0, 0.0, 25.0), (-5.0, 0.0, 0.0)),
            (0.0, 0.0, 25.0), 0.0, 0.0, field, 0.0,
        )
        assert toward.doppler_shift > 0
