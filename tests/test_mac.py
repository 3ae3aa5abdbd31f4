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

from mac_oracle import columns_of
from mac_oracle import mac_pass as oracle_mac_pass
from uavlink import simulation
from uavlink.campaign import build_scenario
from uavlink.channel import ShadowingField
from uavlink.missions import MissionArchetype, synth_trace
from uavlink.phy import BLER_MAX, BLER_MIN, PROFILES, Outcome, bler, tb_bits
from uavlink.simulation import (
    _CHUNK_SLOTS,
    DELIVERED,
    DROPPED_BUFFER,
    DROPPED_HARQ,
    IN_FLIGHT,
    channel_pass,
    mac_pass,
    packets_generated,
    run,
)

TRACE = synth_trace(MissionArchetype("overwatch_orbit", duration=120.0), seed=1)
THRESHOLDS = np.array([e.snr_threshold for e in PROFILES["mmwave"].mcs_table])
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


def mac_columns(cfg, snr, seed):
    """(t_gen, t_deliver, outcome) of mac_pass, its delivery slots checked and rebuilt."""
    deliver_slot, outcome = mac_pass(cfg, snr, random.Random(seed))
    assert deliver_slot.dtype == np.int32
    assert np.array_equal(deliver_slot < 0, outcome != DELIVERED)
    return columns_of(cfg, deliver_slot, outcome)


def assert_matches_oracle(cfg, snr, seed):
    """mac_pass's rebuilt columns and the oracle's are byte-equal; returns mac_pass's."""
    got = mac_columns(cfg, snr, seed)
    want = oracle_mac_pass(cfg, snr, random.Random(seed))
    for g, w in zip(got, want, strict=True):
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
        prof = PROFILES["mmwave"]
        snr = np.full(8000, OUTAGE)
        snr[0::12] = THRESHOLDS[-1]
        snr[4::12] = snr[8::12] = THRESHOLDS[0] + 0.1
        assert bler(prof.mcs_table[-1].snr_threshold, THRESHOLDS[0] + 0.1) == BLER_MAX
        assert tb_bits(prof, prof.mcs_table[-1]) % ((1500 + 28) * 8)
        _, _, outcome = assert_matches_oracle(config("mmwave", len(snr), 1000e6), snr, seed=3)
        assert (outcome == DROPPED_HARQ).sum() > 100

    @settings(CI_SETTINGS, max_examples=150)
    @given(profile=st.sampled_from(["mmwave", "lte"]),
           n_slots=st.integers(1, 2 * _CHUNK_SLOTS + 500),
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

    @settings(CI_SETTINGS, max_examples=100)
    @given(kind=st.sampled_from(["16x4-class", "lte-1gbps", "overflow-and-harq-drops"]),
           n_slots=st.integers(200, 2 * _CHUNK_SLOTS + 300),
           rate=st.floats(0.5e9, 1.5e9),
           payload=st.integers(1000, 9000),
           centre=st.integers(4, 16),
           spread=st.floats(0.0, 6.0),
           snr_seed=st.integers(0, 2**32 - 1),
           harq_seed=st.integers(0, 2**32 - 1))
    def test_saturated_and_harq_heavy_configs(self, kind, n_slots, rate, payload, centre, spread,
                                              snr_seed, harq_seed):
        # Gigabit sources into links that carry less: the buffer stays full, the
        # first attempts fail near 10 % of the time, and for the third kind
        # retransmissions meet deep fades inside an outage that overflows the buffer.
        profile = "lte" if kind == "lte-1gbps" else "mmwave"
        if profile == "lte":
            n_slots = n_slots // 5 + 1  # 1 ms slots, a scheduling delay of 4 slots
        snr = around_thresholds(n_slots, snr_seed, centre, spread, outage_frac=0.05)
        if kind == "overflow-and-harq-drops":
            fades = np.random.default_rng(snr_seed).random(n_slots) < 0.3
            snr[fades] = BOTTOM + 0.1  # BLER_MAX for any block sent at a higher MCS
            snr[n_slots // 3:n_slots // 3 + 150] = OUTAGE
        assert_matches_oracle(random_config(profile, n_slots, rate, payload), snr, harq_seed)


TOP, BOTTOM = THRESHOLDS[-1], THRESHOLDS[0]
CLEAR = TOP + 40.0  # BLER_MIN at the top MCS


def failing_draw_seed(attempt=0):
    """A HARQ seed whose uniform ``attempt`` fails a top-MCS block sent on its threshold,
    and whose earlier ones pass blocks sent at BLER_MIN."""
    p_err = bler(PROFILES["mmwave"].mcs_table[-1].snr_threshold, TOP)
    for seed in range(1000):
        rng = random.Random(seed)
        draws = [rng.random() for _ in range(attempt + 1)]
        if draws[-1] < p_err and min(draws[:-1], default=1.0) >= BLER_MIN:
            return seed


def one_failure_across_the_border():
    # Outage up to the last slot of the first chunk, where a top-MCS block
    # (not a whole number of packets) fails; its retransmissions 4 and 8 slots
    # later, in the next chunk, see an SNR with BLER_MAX, so the block and its
    # part-sent head packet are dropped.
    snr = np.full(3 * _CHUNK_SLOTS, CLEAR)
    snr[:_CHUNK_SLOTS] = OUTAGE
    snr[_CHUNK_SLOTS - 1] = TOP
    snr[_CHUNK_SLOTS + 3] = snr[_CHUNK_SLOTS + 7] = BOTTOM + 0.1
    return snr


def overflow_mid_scan():
    snr = np.full(3 * _CHUNK_SLOTS, CLEAR)
    snr[1000:1200] = OUTAGE  # 200 slots of 1 Gb/s overflow the buffer from about slot 1070
    return snr


def outage_longer_than_a_chunk():
    snr = np.full(4 * _CHUNK_SLOTS, CLEAR)
    snr[100:100 + _CHUNK_SLOTS + 500] = OUTAGE
    return snr


def lte_wait_over_the_border():
    snr = np.full(2 * _CHUNK_SLOTS + 300, CLEAR)
    snr[_CHUNK_SLOTS - 3:_CHUNK_SLOTS + 2] = OUTAGE  # blocks resume just past the border
    return snr


def parked_on_a_threshold():
    # The highest BLER a first attempt can see (~0.1: the MCS is picked from
    # the same SNR), in every slot, so a draw taken out of order moves outcomes.
    return np.full(3 * _CHUNK_SLOTS, THRESHOLDS[20])


def retransmission_after_an_outage():
    # The first block fails in slot 300; the outage that follows holds its
    # retransmission back past the round trip, to the first live slot, 331.
    snr = np.full(2 * _CHUNK_SLOTS, CLEAR)
    snr[:300] = snr[301:331] = OUTAGE
    snr[300] = TOP
    return snr


def third_attempt_drop_with_a_full_buffer():
    # 300 slots of outage at 1 Gb/s fill the buffer; the first block (not a
    # whole number of packets) fails three times while arrivals keep overflowing.
    snr = np.full(2 * _CHUNK_SLOTS, CLEAR)
    snr[:300] = OUTAGE
    snr[300] = TOP
    snr[304] = snr[308] = BOTTOM + 0.1
    return snr


def saturated_across_the_border():
    # One live slot in four carries 3.2 Gb/s, 0.8 Gb/s on average: 1 Gb/s
    # keeps the buffer full over the chunk border.
    snr = np.full(2 * _CHUNK_SLOTS + 300, OUTAGE)
    snr[::4] = CLEAR
    return snr


def saturated_then_drained():
    # An outage fills the buffer; at 60 Mb/s, the LTE peak of 75.2 Mb/s
    # drains it again over the chunk border, where the backlogged link admits
    # every arrival, and the scan that assumed a backlog has to stop.
    snr = np.full(_CHUNK_SLOTS + 1000, CLEAR)
    snr[_CHUNK_SLOTS - 300:_CHUNK_SLOTS - 100] = OUTAGE
    return snr


def harq_drop_across_tail_drops():
    # One live slot in four, as above: the buffer fills by about slot 350 and
    # tail drops fall between admitted packets. By slot 1000, the 251st first
    # attempt, the queue head is past the first of them, and a top-MCS block
    # there fails three times: its packets are not contiguous.
    snr = np.full(2 * _CHUNK_SLOTS, CLEAR)
    snr[:1000] = OUTAGE
    snr[:1000:4] = CLEAR
    snr[1000] = TOP
    snr[1004] = snr[1008] = BOTTOM + 0.1
    return snr


BORDER_CASES = {
    "harq-failure-in-last-chunk-slot": ("mmwave", 10e6, one_failure_across_the_border,
                                        failing_draw_seed()),
    "overflow-mid-scan": ("mmwave", 1000e6, overflow_mid_scan, 4),
    "outage-longer-than-a-chunk": ("mmwave", 10e6, outage_longer_than_a_chunk, 4),
    "lte-wait-over-the-border": ("lte", 12e6, lte_wait_over_the_border, 4),
    "parked-on-a-threshold-10mbps": ("mmwave", 10e6, parked_on_a_threshold, 8),
    "parked-on-a-threshold-96mbps": ("mmwave", 96e6, parked_on_a_threshold, 8),
    "retransmission-after-an-outage": ("mmwave", 10e6, retransmission_after_an_outage,
                                       failing_draw_seed()),
    "third-attempt-drop-with-a-full-buffer": ("mmwave", 1000e6,
                                              third_attempt_drop_with_a_full_buffer,
                                              failing_draw_seed()),
    "saturated-across-the-border": ("mmwave", 1000e6, saturated_across_the_border, 4),
    "lte-saturated-then-drained": ("lte", 60e6, saturated_then_drained, 4),
    "harq-drop-across-tail-drops": ("mmwave", 1000e6, harq_drop_across_tail_drops,
                                    failing_draw_seed(250)),
}


class TestChunkAndScanBorders:
    """Events where a scan, a chunk of per-slot arrays or a scan window ends."""

    @pytest.mark.parametrize("case", BORDER_CASES)
    def test_against_oracle(self, case, monkeypatch):
        profile, rate, make_snr, seed = BORDER_CASES[case]
        snr = make_snr()
        attempts = []
        harq_step = simulation.harq_step

        def recording_harq_step(tb, *args, current_slot, **kwargs):
            result = harq_step(tb, *args, current_slot=current_slot, **kwargs)
            attempts.append((current_slot, tb.tx_count, result[0]))
            return result

        monkeypatch.setattr(simulation, "harq_step", recording_harq_step)
        _, _, outcome = assert_matches_oracle(config(profile, len(snr), rate), snr, seed)
        failed = [(slot, n) for slot, n, result in attempts if result is not Outcome.DELIVERED]
        if case == "harq-failure-in-last-chunk-slot":
            assert failed == [(_CHUNK_SLOTS - 1, 1), (_CHUNK_SLOTS + 3, 2), (_CHUNK_SLOTS + 7, 3)]
            assert (outcome == DROPPED_HARQ).sum() == 33  # 32 whole packets and the part-sent one
        elif case == "overflow-mid-scan":
            assert (outcome == DROPPED_BUFFER).any()
        elif case.startswith("parked"):
            assert len(failed) > 20
        elif case == "retransmission-after-an-outage":
            assert [a[:2] for a in attempts[:2]] == [(300, 1), (331, 2)]
            assert failed == [(300, 1)]
        elif case == "third-attempt-drop-with-a-full-buffer":
            assert failed == [(300, 1), (304, 2), (308, 3)]
            assert (outcome == DROPPED_HARQ).sum() == 33  # 32 whole packets and the part-sent one
            stall = outcome[round(300 * 125e-6 / 12e-6):round(309 * 125e-6 / 12e-6)]
            assert (stall == DROPPED_BUFFER).sum() > 50  # 12 us between arrivals
        elif case == "saturated-across-the-border":
            # Tail drops among the arrivals of the 20 slots on each side of the border.
            at = round(_CHUNK_SLOTS * 125e-6 / 12e-6)
            assert (outcome[at - 200:at] == DROPPED_BUFFER).any()
            assert (outcome[at:at + 200] == DROPPED_BUFFER).any()
        elif case == "harq-drop-across-tail-drops":
            assert failed == [(1000, 1), (1004, 2), (1008, 3)]
            seqs = np.flatnonzero(outcome == DROPPED_HARQ)
            assert seqs[-1] + 1 - seqs[0] > len(seqs)  # tail drops between them
            assert (outcome[:seqs[0]] == DROPPED_BUFFER).any()
        elif case == "lte-saturated-then-drained":
            assert (outcome == DROPPED_BUFFER).any()
            assert (outcome[-100:] == DELIVERED).any()  # the queue drained: new packets go
        assert (outcome == DELIVERED).sum() > 100


class TestSweepMatrixCells:
    """The gigabit cells of the sweep-matrix benchmark that carry its saturated
    traffic, over their first second, with the channel stage's own SNR."""

    @pytest.mark.parametrize("profile, antennas", [("mmwave", "16x4"), ("lte", "1x1")])
    def test_distant_gigabit_cell_against_oracle(self, profile, antennas):
        trace = synth_trace(MissionArchetype("overwatch_orbit"), seed=0)
        cfg = build_scenario(trace, profile, antennas, 1000e6, "distant_2km", 0, 1.0)
        seeder = random.Random(cfg.seed)  # the streams run() draws
        shadow = ShadowingField(sigma=simulation.SHADOWING_SIGMA, seed=seeder.getrandbits(64))
        harq_seed = seeder.getrandbits(64)
        snr, _ = channel_pass(cfg, shadow)
        t_gen, t_deliver, outcome = assert_matches_oracle(cfg, snr, harq_seed)
        log = run(cfg)
        assert log.columns()[1].tobytes() == t_deliver.tobytes()
        assert log.outcome.tobytes() == outcome.tobytes()
        assert (outcome == DROPPED_BUFFER).sum() > len(t_gen) // 2  # saturated
        assert (outcome == DELIVERED).sum() > 1000


class TestHarqStream:
    """mac_pass draws its HARQ uniforms a chunk ahead, in bulk, from harq_rng's own
    MT19937 stream, and leaves harq_rng where those draws end, as draws with
    ``random()`` would."""

    @staticmethod
    def draws_between(start, end, limit):
        """How many ``random()`` calls take a generator from state start to state end."""
        rng = random.Random()
        rng.setstate(start)
        for k in range(limit + 1):
            if rng.getstate() == end:
                return k
            rng.random()
        pytest.fail(f"state not reached in {limit} draws")

    # Each chunk tops its uniforms up to one a slot, so a run of one chunk draws one a
    # slot. A last chunk shorter than the draws left over from the one before draws none.
    @pytest.mark.parametrize("n_slots, drawn", [
        (700, 700), (_CHUNK_SLOTS + 5, _CHUNK_SLOTS), (3 * _CHUNK_SLOTS - 100, None)])
    def test_end_state_is_the_oracles_plus_the_unused_draws(self, n_slots, drawn):
        cfg = config("mmwave", n_slots, 10e6)
        snr = around_thresholds(n_slots, seed=n_slots, centre=24)
        got, want = random.Random(11), random.Random(11)
        start = got.getstate()
        mac_pass(cfg, snr, got)
        oracle_mac_pass(cfg, snr, want)  # one random() an attempt
        used = self.draws_between(start, want.getstate(), n_slots)
        unused = self.draws_between(want.getstate(), got.getstate(), _CHUNK_SLOTS)
        assert used > 0
        if drawn is not None:
            assert used + unused == drawn


class TestArrivalCount:
    @settings(CI_SETTINGS, max_examples=200)
    @given(slot=st.sampled_from([125e-6, 1e-3]),
           rate=st.one_of(st.floats(1e5, 1.5e9), st.sampled_from([12e6, 96e6, 8e6, 1.2e6])),
           payload=st.integers(20, 9000),
           s0=st.integers(-8, 100_000),
           n_slots=st.integers(1, 200),
           cap=st.one_of(st.none(), st.integers(1, 400)))
    def test_equals_the_scalar_test(self, slot, rate, payload, s0, n_slots, cap):
        # Packet n is generated by slot s when n * interarrival <= s * slot
        # + 1e-9. Rates such as 12 Mb/s put arrivals exactly on slot starts.
        interarrival = payload * 8 / rate
        slots = np.arange(s0, s0 + n_slots)
        top = max(int((s0 + n_slots) * slot / interarrival) + 3, 2)  # mac_pass: at least 2
        max_pk = top if cap is None else min(cap, top)
        got = packets_generated(slots, slot, interarrival, max_pk).tolist()
        lim = [s * slot + 1e-9 for s in slots.tolist()]
        # The test is monotone in n, so it holds for n - 1 and fails for n.
        for n, x in zip(got, lim):
            assert n == 0 or (n - 1) * interarrival <= x
            assert n == max_pk or n * interarrival > x
        if max_pk <= 20000:  # brute force: the test on every packet
            times = np.arange(max_pk) * interarrival
            assert got == [int(np.count_nonzero(times <= x)) for x in lim]


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
    return cfg, snr, harq_seed, mac_columns(cfg, snr, harq_seed)


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
        again = mac_columns(cfg, snr, harq_seed)
        assert [c.tobytes() for c in again] == [c.tobytes() for c in first]
