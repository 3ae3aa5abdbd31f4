"""The counter-based MAC stage against the deque-based oracle in ``mac_oracle``,
and properties of the MAC stage over random configurations, all driven by
synthetic per-slot SNR arrays."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mac_oracle import mac_pass as oracle_mac_pass
from uavlink.campaign import build_scenario
from uavlink.missions import MissionArchetype, synth_trace
from uavlink.phy import BLER_MAX, bler, lte_profile, mmwave_profile, tb_bits
from uavlink.simulation import (
    DELIVERED,
    DROPPED_BUFFER,
    DROPPED_HARQ,
    IN_FLIGHT,
    mac_pass,
)

TRACE = synth_trace(MissionArchetype("overwatch_orbit", duration=120.0), seed=1)
PROFILES = {"mmwave": mmwave_profile(), "lte": lte_profile()}
THRESHOLDS = np.array([e.snr_threshold for e in mmwave_profile().mcs_table])
OUTAGE = THRESHOLDS[0] - 10.0
CI_SETTINGS = settings(deadline=None, derandomize=True, max_examples=40)
MAX_RANDOM_PACKETS = 20000  # keeps the per-packet oracle fast


def config(profile, n_slots, rate, payload=1500, prof=None):
    """``n_slots`` of the named profile, or of ``prof`` derived from it."""
    prof = prof or PROFILES[profile]
    cfg = build_scenario(TRACE, profile, "64x16", rate, "on_premise", 7,
                         n_slots * prof.slot_duration)
    return dataclasses.replace(cfg, profile=prof, payload=payload)


def random_config(profile, n_slots, rate, payload, prof=None):
    window = n_slots * (prof or PROFILES[profile]).slot_duration
    return config(profile, n_slots, min(rate, MAX_RANDOM_PACKETS * payload * 8 / window), payload,
                  prof)


def around_thresholds(n, seed, centre=20, spread=4.0, outage_frac=0.05):
    """SNR that wanders over the MCS thresholds near ``centre``, with exact hits
    on thresholds and a fraction of outage slots."""
    rng = np.random.default_rng(seed)
    idx = np.clip(centre + rng.integers(-3, 4, n), 0, len(THRESHOLDS) - 1)
    snr = THRESHOLDS[idx] + rng.normal(0.0, spread / 4, n)
    exact = rng.random(n) < 0.1
    snr[exact] = THRESHOLDS[idx[exact]]
    snr[rng.random(n) < outage_frac] = OUTAGE
    return snr


def assert_matches_oracle(cfg, snr, seed):
    """mac_pass and the oracle give byte-equal columns; returns mac_pass's."""
    got = mac_pass(cfg, snr, random.Random(seed))
    want = oracle_mac_pass(cfg, snr, random.Random(seed))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    return got


class TestAgainstOracle:
    @pytest.mark.parametrize("profile", ["mmwave", "lte"])
    @pytest.mark.parametrize("rate_mbps", [10, 96, 333, 1000])
    def test_rates_with_an_outage_stretch(self, profile, rate_mbps):
        n = 1600 if profile == "mmwave" else 400
        snr = around_thresholds(n, seed=rate_mbps, centre=24)
        snr[n // 3:n // 3 + n // 8] = OUTAGE
        _, _, outcome = assert_matches_oracle(config(profile, n, rate_mbps * 1e6), snr, seed=9)
        assert (outcome == DELIVERED).any()
        if profile == "lte" and rate_mbps >= 333:
            assert (outcome == DROPPED_BUFFER).any()  # the buffer saturates

    def test_harq_drops_discard_the_partly_sent_packet(self):
        # The pattern of test_harq_drops_after_the_attempt_budget: top-MCS blocks
        # (400000 bits, not a whole number of packets) fail all three attempts.
        prof = mmwave_profile()
        snr = np.full(8000, OUTAGE)
        snr[0::12] = THRESHOLDS[-1]
        snr[4::12] = snr[8::12] = THRESHOLDS[0] + 0.1
        assert bler(prof.mcs_table[-1], THRESHOLDS[0] + 0.1) == BLER_MAX
        assert tb_bits(prof, prof.mcs_table[-1]) % ((1500 + 28) * 8)
        _, _, outcome = assert_matches_oracle(config("mmwave", len(snr), 1000e6), snr, seed=3)
        assert (outcome == DROPPED_HARQ).sum() > 100

    @settings(CI_SETTINGS, max_examples=150)
    @given(profile=st.sampled_from(["mmwave", "lte"]),
           n_slots=st.integers(1, 1200),
           rate=st.floats(1e6, 1.5e9),
           payload=st.integers(20, 9000),
           centre=st.integers(0, len(THRESHOLDS) - 1),
           spread=st.floats(0.0, 8.0),
           outage_frac=st.sampled_from([0.0, 0.05, 0.5]),
           snr_seed=st.integers(0, 2**32 - 1),
           harq_seed=st.integers(0, 2**32 - 1))
    def test_random_configs(self, profile, n_slots, rate, payload, centre, spread,
                            outage_frac, snr_seed, harq_seed):
        if profile == "lte":
            n_slots = n_slots // 6 + 1  # 1 ms slots
        snr = around_thresholds(n_slots, snr_seed, centre, spread, outage_frac)
        assert_matches_oracle(random_config(profile, n_slots, rate, payload), snr, harq_seed)

    @settings(CI_SETTINGS, max_examples=100)
    @given(slot=st.sampled_from([1e-3, 0.5e-3, 125e-6]),
           wait=st.integers(1, 8),
           n_slots=st.integers(1, 400),
           rate=st.floats(1e6, 1.5e9),
           payload=st.integers(20, 9000),
           centre=st.integers(0, len(THRESHOLDS) - 1),
           spread=st.floats(0.0, 8.0),
           outage_frac=st.sampled_from([0.0, 0.05, 0.5]),
           snr_seed=st.integers(0, 2**32 - 1),
           harq_seed=st.integers(0, 2**32 - 1))
    def test_whole_slot_scheduling_delays(self, slot, wait, n_slots, rate, payload, centre,
                                          spread, outage_frac, snr_seed, harq_seed):
        # LTE-derived profiles: a wait of whole slots admits what the oracle's
        # float test against the delay in seconds admits.
        prof = dataclasses.replace(PROFILES["lte"], slot_duration=slot,
                                   scheduling_delay=wait * slot)
        snr = around_thresholds(n_slots, snr_seed, centre, spread, outage_frac)
        assert_matches_oracle(random_config("lte", n_slots, rate, payload, prof), snr, harq_seed)


@st.composite
def mac_runs(draw):
    """A small random config and synthetic SNR, run through mac_pass."""
    profile = draw(st.sampled_from(["mmwave", "lte"]))
    n_slots = draw(st.integers(1, 800 if profile == "mmwave" else 150))
    cfg = random_config(profile, n_slots, draw(st.floats(1e6, 1.5e9)), draw(st.integers(20, 9000)))
    snr = around_thresholds(n_slots, draw(st.integers(0, 2**32 - 1)),
                            draw(st.integers(0, len(THRESHOLDS) - 1)),
                            draw(st.floats(0.0, 8.0)), draw(st.sampled_from([0.0, 0.05, 0.5])))
    harq_seed = draw(st.integers(0, 2**32 - 1))
    return cfg, snr, harq_seed, mac_pass(cfg, snr, random.Random(harq_seed))


class TestProperties:
    @CI_SETTINGS
    @given(mac_runs())
    def test_conservation(self, case):
        cfg, snr, _, (t_gen, t_deliver, outcome) = case
        ia = cfg.payload * 8 / cfg.source_rate
        assert np.array_equal(t_gen, np.arange(len(t_gen)) * ia)
        assert len(t_gen) == len(t_deliver) == len(outcome) >= 1
        assert set(np.unique(outcome).tolist()) <= {IN_FLIGHT, DELIVERED, DROPPED_BUFFER,
                                                    DROPPED_HARQ}
        assert np.array_equal(np.isnan(t_deliver), outcome != DELIVERED)

    @CI_SETTINGS
    @given(mac_runs())
    def test_latency_floor(self, case):
        cfg, _, _, (t_gen, t_deliver, outcome) = case
        prof = cfg.profile
        delivered = outcome == DELIVERED
        latency = t_deliver[delivered] - t_gen[delivered]
        assert np.all(latency >= prof.scheduling_delay + prof.slot_duration - 1e-9)

    @CI_SETTINGS
    @given(mac_runs())
    def test_throughput_bounded_by_offered_and_peak(self, case):
        cfg, snr, _, (t_gen, _, outcome) = case
        prof = cfg.profile
        delivered_bits = (outcome == DELIVERED).sum() * (cfg.payload + cfg.header_overhead) * 8
        offered_bits = len(t_gen) * (cfg.payload + cfg.header_overhead) * 8
        peak_bits = len(snr) * (tb_bits(prof, prof.mcs_table[-1]) // 8 * 8)
        assert delivered_bits <= min(offered_bits, peak_bits)
        # Arrivals follow the source rate: one at t = 0, then one per interarrival.
        assert len(t_gen) <= math.floor(len(snr) * prof.slot_duration
                                        * cfg.source_rate / (cfg.payload * 8) + 1e-6) + 1

    @CI_SETTINGS
    @given(mac_runs())
    def test_fifo(self, case):
        _, _, _, (_, _, outcome) = case
        in_flight = np.flatnonzero(outcome == IN_FLIGHT)
        resolved = np.flatnonzero((outcome == DELIVERED) | (outcome == DROPPED_HARQ))
        if len(in_flight) and len(resolved):
            assert in_flight.min() > resolved.max()

    @CI_SETTINGS
    @given(mac_runs())
    def test_rerun_is_bit_identical(self, case):
        cfg, snr, harq_seed, first = case
        again = mac_pass(cfg, snr, random.Random(harq_seed))
        assert [c.tobytes() for c in again] == [c.tobytes() for c in first]
