import dataclasses
import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavlink.phy import (
    BLER_MAX,
    BLER_MIN,
    PROFILES,
    SE_TOP,
    McsEntry,
    Outcome,
    RatProfile,
    TransportBlock,
    bler,
    build_mcs_table,
    harq_step,
    shannon_gap_threshold,
    tb_bits,
)

TABLE = PROFILES["mmwave"].mcs_table
THRESHOLDS = [e.snr_threshold for e in TABLE]


def select_mcs(snr):
    """The MAC's MCS rule over a profile's table: the index of the highest entry
    whose threshold is at or below ``snr``; -1 means outage."""
    return int(np.array(THRESHOLDS).searchsorted(snr, side="right")) - 1


class TestTable:
    def test_shape_and_endpoints(self):
        assert len(TABLE) == 29
        # QPSK at rate 78/1024 up to 64-QAM at rate 948/1024.
        assert TABLE[0].spectral_efficiency == 2 * 78 / 1024
        assert TABLE[-1].spectral_efficiency == pytest.approx(5.5546875, abs=1e-9)

    def test_thresholds_strictly_increasing(self):
        for a, b in zip(TABLE, TABLE[1:]):
            assert b.snr_threshold > a.snr_threshold
            assert b.spectral_efficiency > a.spectral_efficiency

    def test_thresholds_follow_shannon_gap_rule(self):
        for e in TABLE:
            assert e.snr_threshold == pytest.approx(
                10 * math.log10(2**e.spectral_efficiency - 1) + 3.0, abs=1e-12
            )

    def test_rebuild_is_deterministic(self):
        assert build_mcs_table() == TABLE


class TestSelectMcs:
    def test_saturation(self):
        assert select_mcs(60.0) == len(TABLE) - 1

    def test_outage_below_lowest(self):
        assert select_mcs(TABLE[0].snr_threshold - 0.1) == -1

    def test_threshold_is_inclusive(self):
        for k in (0, 7, 15, 28):
            assert select_mcs(TABLE[k].snr_threshold) == k

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.lists(st.one_of(st.floats(-20.0, 40.0), st.sampled_from(THRESHOLDS),
                              st.sampled_from([math.inf, -math.inf, -0.0, 0.0])), min_size=1))
    def test_monotone_in_snr(self, snrs):
        # The MAC's array rule, one value at a time and over the array, agrees with bisect_right.
        snrs.sort()
        indices = [select_mcs(s) for s in snrs]
        assert indices == [bisect_right(THRESHOLDS, s) - 1 for s in snrs]
        assert indices == (np.array(THRESHOLDS).searchsorted(snrs, side="right") - 1).tolist()
        assert indices == sorted(indices)


class TestTbBits:
    def test_mmwave_peak_calibration(self):
        prof = PROFILES["mmwave"]
        top = tb_bits(prof, TABLE[-1])
        assert top == 400_000
        assert top / prof.slot_duration == pytest.approx(3.2e9, rel=1e-12)

    def test_lte_peak_calibration(self):
        prof = PROFILES["lte"]
        top = tb_bits(prof, TABLE[-1])
        assert top == 75_200
        assert top / prof.slot_duration == pytest.approx(75.2e6, rel=1e-12)

    def test_peak_rate_ratio(self):
        # mmWave peak over LTE peak, the bandwidth-driven gap.
        assert 3.2e9 / 75.2e6 == pytest.approx(42.55, abs=0.01)

    def test_zero_se_entry(self):
        prof = PROFILES["mmwave"]
        zero = McsEntry(0.0, -50.0)
        assert tb_bits(prof, zero) == 0

    def test_monotone_in_se(self):
        prof = PROFILES["mmwave"]
        sizes = [tb_bits(prof, e) for e in TABLE]
        assert sizes == sorted(sizes)


class TestBler:
    def test_anchored_at_threshold(self):
        for e in (TABLE[0], TABLE[10], TABLE[28]):
            assert bler(e.snr_threshold, e.snr_threshold) == pytest.approx(0.1, abs=0.01)

    def test_clamped_high_snr(self):
        e = TABLE[10]
        assert bler(e.snr_threshold, e.snr_threshold + 10.0) < 1e-5
        assert bler(e.snr_threshold, e.snr_threshold + 10.0) >= BLER_MIN

    def test_clamped_low_snr(self):
        e = TABLE[10]
        assert bler(e.snr_threshold, e.snr_threshold - 10.0) > 0.999
        assert bler(e.snr_threshold, e.snr_threshold - 10.0) <= BLER_MAX

    def test_monotone_decreasing(self):
        e = TABLE[5]
        snrs = [e.snr_threshold + d for d in (-5, -2, -1, 0, 1, 2, 5)]
        vals = [bler(e.snr_threshold, s) for s in snrs]
        assert vals == sorted(vals, reverse=True)

    def test_floats_match_arrays_bit_for_bit(self):
        # SNRs from x = -70 to +70 around every midpoint (x = 2 * (snr - midpoint)):
        # past both +-60 limits and across both clamps, with a step of 0.05 in x.
        thr = np.repeat(THRESHOLDS, 2801)
        snr = thr - 1.1 + np.tile(np.linspace(-35.0, 35.0, 2801), len(THRESHOLDS))
        arr = bler(thr, snr)
        assert isinstance(arr, np.ndarray)
        floats = [bler(t, s) for t, s in zip(thr.tolist(), snr.tolist())]
        assert all(type(v) is float for v in floats)
        assert np.array_equal(arr.view(np.int64), np.array(floats).view(np.int64))
        assert arr.min() == BLER_MIN and arr.max() == BLER_MAX


class TestHarqStep:
    def test_zero_bler_delivers_first_try(self):
        tb = TransportBlock(bits=100, mcs=5)
        outcome, when = harq_step(tb, 0.0, 0.999, harq_rtt=4, max_harq_tx=3, current_slot=10)
        assert outcome is Outcome.DELIVERED
        assert when == 10
        assert tb.tx_count == 1

    def test_forced_failure_drops_after_budget(self):
        tb = TransportBlock(bits=100, mcs=5)
        slot = 0
        outcomes = []
        for _ in range(3):
            outcome, when = harq_step(
                tb, 1.0, 0.5, harq_rtt=4, max_harq_tx=3, current_slot=slot
            )
            outcomes.append(outcome)
            slot = when
        assert outcomes == [Outcome.RETRANSMIT, Outcome.RETRANSMIT, Outcome.DROPPED]
        assert slot == 8  # two HARQ round trips of added delay
        assert tb.tx_count == 3

    def test_mean_attempts_geometric(self):
        # bler 0.5 with an unbounded budget: attempts are geometric, mean 2.
        rng = random.Random(3)
        total = 0
        trials = 100_000
        for _ in range(trials):
            tb = TransportBlock(bits=1, mcs=0)
            slot = 0
            while True:
                outcome, when = harq_step(
                    tb, 0.5, rng.random(), harq_rtt=4, max_harq_tx=10**9, current_slot=slot
                )
                if outcome is Outcome.DELIVERED:
                    break
                slot = when
            total += tb.tx_count
        assert total / trials == pytest.approx(2.0, abs=0.05)


class TestProfiles:
    def test_slot_durations(self):
        assert PROFILES["mmwave"].slot_duration == 125e-6
        assert PROFILES["lte"].slot_duration == 1e-3

    def test_lte_scheduling_delay(self):
        assert PROFILES["lte"].scheduling_delay == 4e-3
        assert PROFILES["mmwave"].scheduling_delay == 0.0

    @pytest.mark.parametrize("delay", [1.5e-3, -1e-3])
    def test_scheduling_delay_is_whole_non_negative_slots(self, delay):
        with pytest.raises(ValueError, match="scheduling_delay must be whole slots"):
            dataclasses.replace(PROFILES["lte"], scheduling_delay=delay)

    @pytest.mark.parametrize("change, message", [
        ({"carrier_freq": 0.0}, "carrier_freq and bandwidth must be positive"),
        ({"bandwidth": -20e6}, "carrier_freq and bandwidth must be positive"),
        ({"peak_rate": 0.0}, r"efficiency_factor outside \(0, 1\]"),
        ({"peak_rate": 1.01 * SE_TOP * 20e6}, r"efficiency_factor outside \(0, 1\]"),
        ({"slot_duration": 0.0}, "slot_duration must be positive"),
        ({"slot_duration": -1e-3}, "slot_duration must be positive"),
    ])
    def test_refusals(self, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(PROFILES["lte"], **change)

    def test_shared_values_are_not_fields(self):
        assert [f.name for f in dataclasses.fields(RatProfile)] == [
            "name", "carrier_freq", "bandwidth", "slot_duration", "peak_rate", "scheduling_delay"]
        assert PROFILES["lte"].mcs_table is PROFILES["mmwave"].mcs_table

    def test_efficiency_factors_near_documented_values(self):
        assert PROFILES["mmwave"].efficiency_factor == pytest.approx(0.5761, abs=5e-4)
        assert PROFILES["lte"].efficiency_factor == pytest.approx(0.6769, abs=5e-4)

    def test_shannon_gap_helper(self):
        assert shannon_gap_threshold(1.0) == pytest.approx(3.0, abs=1e-12)
