import builtins
import contextlib
import csv
import dataclasses
import math
import os
import random
import signal
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from channel_oracle import (
    beam_gain_db,
    best_beam,
    gauss_markov_shadowing,
    geometry_toward,
    interp_positions,
)
from mac_oracle import columns_of
from uavlink import mobility, simulation
from uavlink.beamforming import DEFAULT_UPDATE_PERIOD, ArrayConfig, array_basis
from uavlink.campaign import build_scenario
from uavlink.channel import ShadowingField, fspl_db, noise_floor_dbm
from uavlink.missions import MissionArchetype, synth_trace
from uavlink.mobility import (
    TRACE_CSV_HEADER,
    FlightTrace,
    GeoPoint,
    write_trace_csv,
    xy_to_latlon,
)
from uavlink.phy import BLER_MAX, PROFILES, Outcome, bler
from uavlink.simulation import (
    DEFAULT_BUFFER_LIMIT,
    DELIVERED,
    DROPPED_BUFFER,
    DROPPED_HARQ,
    IN_FLIGHT,
    OUTCOME_NAMES,
    PACKET_CSV_HEADER,
    SAMPLE_DTYPE,
    SNR_CSV_HEADER,
    MetricsLog,
    ScenarioConfig,
    Summary,
    channel_pass,
    mac_pass,
    run,
    summarize,
    write_packet_log,
    write_snr_trace,
)

TRACE = synth_trace(MissionArchetype("overwatch_orbit", duration=120.0), seed=1)


def scenario(profile="mmwave", antennas="64x16", rate=10e6, window=2.0, seed=7,
             placement="on_premise"):
    return build_scenario(TRACE, profile, antennas, rate, placement, seed, window)


@pytest.fixture(scope="module")
def quick_log():
    return run(scenario())


class TestArrivals:
    def test_interarrival_10mbps(self):
        log = run(scenario(rate=10e6, window=0.1))
        diffs = np.diff(log.columns()[0])
        assert np.allclose(diffs, 1.2e-3, rtol=1e-9)

    def test_interarrival_1000mbps(self):
        log = run(scenario(rate=1000e6, window=0.01))
        diffs = np.diff(log.columns()[0])
        assert np.allclose(diffs, 12e-6, rtol=1e-9)

    def test_zero_window_empty_log(self):
        log = run(scenario(window=0.0))
        assert log.n_packets == 0
        assert len(log.snr_series) == 0
        assert summarize(log) == Summary(0, 0, 0, 0, 0, *[0.0] * 7)


class TestInvariants:
    def test_packet_conservation(self, quick_log):
        s = summarize(quick_log)
        assert s.generated == s.delivered + s.dropped_buffer + s.dropped_harq + s.in_flight

    def test_packet_conservation_under_loss(self):
        # Distant BS with small arrays saturates and drops heavily.
        log = run(scenario(antennas="16x4", rate=1000e6, window=1.0, placement="distant_2km"))
        s = summarize(log)
        assert s.dropped_buffer > 0
        assert s.generated == s.delivered + s.dropped_buffer + s.dropped_harq + s.in_flight

    def test_conservation_with_outage_and_harq_drops(self):
        # Tiny arrays at 2 km: outage slots, HARQ drops, and buffer drops all
        # active at once; accounting must still balance packet by packet.
        log = run(scenario(antennas="4x4", rate=800e6, window=5.0, seed=11,
                           placement="distant_2km"))
        s = summarize(log)
        assert s.dropped_harq > 0
        assert s.dropped_buffer > 0
        assert s.min_snr_db < log.config.profile.mcs_table[0].snr_threshold
        assert s.generated == s.delivered + s.dropped_buffer + s.dropped_harq + s.in_flight
        mask = log.outcome == DELIVERED
        t_gen, t_deliver = log.columns()
        assert np.all(t_deliver[mask] > t_gen[mask])
        assert np.all(np.isnan(t_deliver[log.outcome == DROPPED_HARQ]))

    def test_latency_floor_one_slot(self, quick_log):
        slot = quick_log.config.profile.slot_duration
        mask = quick_log.outcome == DELIVERED
        t_gen, t_deliver = quick_log.columns()
        lat = t_deliver[mask] - t_gen[mask]
        assert lat.min() >= slot - 1e-12

    def test_lte_latency_floor_includes_grant_cycle(self):
        log = run(scenario(profile="lte", window=1.0))
        mask = log.outcome == DELIVERED
        t_gen, t_deliver = log.columns()
        lat = t_deliver[mask] - t_gen[mask]
        assert lat.min() >= log.config.profile.scheduling_delay

    def test_throughput_never_exceeds_offered_or_peak(self):
        for profile, rate in (("mmwave", 50e6), ("lte", 1000e6)):
            log = run(scenario(profile=profile, rate=rate, window=1.0))
            s = summarize(log)
            cfg = log.config
            offered_cap = rate * (cfg.payload + cfg.header_overhead) / cfg.payload
            peak = 3.2e9 if profile == "mmwave" else 75.2e6
            # The t=0 arrival allows at most one extra packet per window.
            slack = (cfg.payload + cfg.header_overhead) * 8 / cfg.sim_window
            assert s.throughput_bps <= min(offered_cap, peak) + slack

    def test_no_loss_under_light_load_and_high_snr(self, quick_log):
        s = summarize(quick_log)
        assert s.min_snr_db >= quick_log.config.profile.mcs_table[-1].snr_threshold
        assert s.loss_fraction == 0.0

    def test_link_budget_identity_every_sample(self, quick_log):
        assert len(quick_log.snr_series) > 0
        for smp in quick_log.snr_series:
            rebuilt = (
                smp.tx_power + smp.tx_gain + smp.rx_gain
                - smp.pathloss - smp.shadowing - smp.noise_floor
            )
            assert smp.snr == pytest.approx(rebuilt, abs=1e-9)

    def test_deterministic_rerun_bit_identical(self, tmp_path):
        a = run(scenario(window=1.0, seed=123))
        b = run(scenario(window=1.0, seed=123))
        for col_a, col_b in zip(a.columns(), b.columns(), strict=True):
            assert np.array_equal(col_a, col_b, equal_nan=True)
        assert np.array_equal(a.deliver_slot, b.deliver_slot)
        assert np.array_equal(a.outcome, b.outcome)
        assert [s.snr for s in a.snr_series] == [s.snr for s in b.snr_series]
        assert summarize(a) == summarize(b)
        for log, name in ((a, "a"), (b, "b")):
            write_packet_log(log, tmp_path / f"{name}_packets.csv")
            write_snr_trace(log, tmp_path / f"{name}_snr.csv")
        assert (tmp_path / "a_packets.csv").read_bytes() == (tmp_path / "b_packets.csv").read_bytes()
        assert (tmp_path / "a_snr.csv").read_bytes() == (tmp_path / "b_snr.csv").read_bytes()
        assert a.snr_series is not b.snr_series  # two channel stages: nothing is shared here

    def test_different_seeds_differ(self):
        a = run(scenario(window=1.0, seed=1))
        b = run(scenario(window=1.0, seed=2))
        assert [s.snr for s in a.snr_series] != [s.snr for s in b.snr_series]


class TestGoodputConvergence:
    def test_static_channel_matches_closed_form(self, monkeypatch):
        # Hovering UAV, zero shadowing, single antennas: the SNR is constant,
        # so the stop-and-wait HARQ chain has a closed-form goodput. Park the
        # SNR 0.3 dB above a mid-table threshold for a meaningful error rate.
        from uavlink.channel import fspl_db
        from uavlink.mobility import FlightTrace, GeoPoint
        from uavlink.phy import bler, tb_bits

        prof = PROFILES["mmwave"]
        entry = prof.mcs_table[20]
        target_snr = entry.snr_threshold + 0.3
        # snr = tx_power - fspl(d) - noise_floor with 0 dB gains
        fspl_needed = prof.tx_power + 79.0 - target_snr
        d = 10 ** ((fspl_needed - 32.4 - 20 * math.log10(28.0)) / 20.0)
        hover = FlightTrace(GeoPoint(0.0, 30.0, 0.0, 25.0), t=(0.0, 100.0), x=(d, d),
                            y=(0.0, 0.0), z=(25.0, 25.0))
        cfg = ScenarioConfig(
            trace=hover,
            profile=prof,
            bs_array=ArrayConfig(1, 1),
            uav_array=ArrayConfig(1, 1),
            source_rate=2000e6,  # saturating
            bs_position=(0.0, 0.0, 25.0),
            sim_window=60.0,
            seed=17,
        )
        monkeypatch.setattr(simulation, "SHADOWING_SIGMA", 0.0)
        log = run(cfg)
        snr = log.snr_series[0].snr
        assert snr == pytest.approx(target_snr, abs=1e-9)
        p = bler(entry.snr_threshold, snr)
        cap = tb_bits(prof, entry) // 8 * 8
        # Attempt counts 1/2/3 consume 1/5/9 slots (4-slot HARQ round trips);
        # a block survives unless all three attempts fail.
        exp_slots = (1 - p) + 5 * p * (1 - p) + 9 * p * p
        predicted = cap * (1 - p**3) / exp_slots / prof.slot_duration
        measured = summarize(log).throughput_bps
        assert measured == pytest.approx(predicted, rel=0.02)


class TestChannelPass:
    def test_matches_slot_by_slot_oracle(self):
        # Five chunks and a part, six waypoints (one segment lasts 10 ms) and
        # 5 ms beam epochs that straddle chunk edges, recomputed one slot at a
        # time: np.interp positions, the brute-force best pair at each epoch
        # start, inner-product beam gains, FSPL and the per-point shadowing
        # recursion.
        trace = FlightTrace(GeoPoint(0.0, 30.0, 0.0, 30.0), *zip(
            (0.0, 0.0, 0.0, 30.0), (0.25, 6.0, 1.0, 31.0),
            (0.6, 6.5, 9.0, 30.0), (0.61, 6.8, 9.1, 30.0),
            (1.05, -4.0, 3.0, 32.0), (3.0, -4.0, 3.0, 32.0),
        ))
        cfg = ScenarioConfig(trace=trace, profile=PROFILES["mmwave"], bs_array=ArrayConfig(4, 4),
                             uav_array=ArrayConfig(2, 2), source_rate=10e6,
                             bs_position=(60.0, -25.0, 25.0), sim_window=1.3, seed=0)
        slot = cfg.profile.slot_duration
        n = round(cfg.sim_window / slot)
        assert n > simulation._CHUNK_SLOTS and n % simulation._CHUNK_SLOTS
        snr, samples = simulation.channel_pass(cfg, ShadowingField(sigma=4.0, seed=21))

        positions = interp_positions(trace, np.arange(n) * slot).T
        shadowing = gauss_markov_shadowing(positions.tolist(), 4.0, seed=21)
        bs = np.array(cfg.bs_position)
        bs_basis = array_basis(tuple(np.array(trace.centroid()) - bs))
        uav_basis = array_basis((0.0, 0.0, -1.0))
        prof = cfg.profile
        nf = noise_floor_dbm(prof.bandwidth, prof.noise_figure)
        expect = np.empty(n)
        epoch = -1
        for s, pos in enumerate(positions):
            t = s * slot
            bs_geom = geometry_toward(bs_basis, tuple(pos - bs))
            uav_geom = geometry_toward(uav_basis, tuple(bs - pos))
            if math.floor(t / DEFAULT_UPDATE_PERIOD + 1e-9) > epoch:
                epoch = math.floor(t / DEFAULT_UPDATE_PERIOD + 1e-9)
                tx_beam, rx_beam = best_beam(cfg.uav_array, uav_geom), best_beam(cfg.bs_array, bs_geom)
            gains = (beam_gain_db(cfg.uav_array, tx_beam, uav_geom)
                     + beam_gain_db(cfg.bs_array, rx_beam, bs_geom))
            pl = fspl_db(float(np.linalg.norm(bs - pos)), prof.carrier_freq)
            expect[s] = prof.tx_power + gains - pl - shadowing[s] - nf
        assert np.abs(snr - expect).max() < 1e-9
        record_every = round(simulation.DEFAULT_SNR_SAMPLE_INTERVAL / slot)
        assert np.array_equal(samples.snr, snr[::record_every])
        assert np.array_equal(samples.t, np.arange(0, n, record_every) * slot)


class TestSharedChannel:
    """Inside ``shared_channel`` a run reuses the last channel stage, and the SNR writer
    copies the last file it wrote, only for inputs the channel stage reads; outside it,
    neither."""

    @pytest.fixture
    def channel_calls(self, monkeypatch):
        calls = []

        def counting_channel_pass(config, shadow):
            calls.append(config)
            return channel_pass(config, shadow)

        monkeypatch.setattr(simulation, "channel_pass", counting_channel_pass)
        return calls

    def test_equal_configs_outside_the_scope_run_two_channel_stages(self, channel_calls):
        a, b = run(scenario(window=0.2)), run(scenario(window=0.2))
        assert len(channel_calls) == 2 and a.snr_series is not b.snr_series
        assert simulation._shared is None

    def test_configs_that_differ_in_traffic_share_one_channel_stage(self, channel_calls,
                                                                    tmp_path):
        configs = [scenario(rate=5e6, window=0.2), scenario(rate=400e6, window=0.2),
                   dataclasses.replace(scenario(window=0.2), payload=700)]
        plain = [run(cfg) for cfg in configs]
        del channel_calls[:]
        with simulation.shared_channel():
            logs = [run(cfg) for cfg in configs]
            for i, log in enumerate(logs):
                write_snr_trace(log, tmp_path / f"shared{i}.csv")
        assert channel_calls == configs[:1]
        assert all(log.snr_series is logs[0].snr_series for log in logs)
        assert simulation._shared is None
        for i, (got, want) in enumerate(zip(logs, plain, strict=True)):
            assert got.deliver_slot.tobytes() == want.deliver_slot.tobytes()
            assert got.outcome.tobytes() == want.outcome.tobytes()
            assert got.snr_series.tobytes() == want.snr_series.tobytes()
            write_snr_trace(want, tmp_path / f"plain{i}.csv")
            assert ((tmp_path / f"shared{i}.csv").read_bytes()
                    == (tmp_path / f"plain{i}.csv").read_bytes())

    def test_the_snr_file_written_again_to_its_own_path_keeps_its_bytes(self, tmp_path):
        log = run(scenario(window=0.2))
        write_snr_trace(log, tmp_path / "plain.csv")
        with simulation.shared_channel():
            for name in ("a.csv", "a.csv", "b.csv"):
                write_snr_trace(log, tmp_path / name)
        want = (tmp_path / "plain.csv").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes() == want

    @pytest.mark.parametrize("change", [
        dict(seed=8), dict(window=0.25), dict(antennas="16x4"), dict(placement="distant_2km"),
        dict(profile="lte"),
    ])
    def test_any_channel_input_runs_a_new_channel_stage(self, channel_calls, change):
        first, second = scenario(window=0.2), scenario(**{"window": 0.2, **change})
        with simulation.shared_channel():
            a, b, c = run(first), run(second), run(first)
        assert channel_calls == [first, second, first]
        assert a.snr_series is not b.snr_series and b.snr_series is not c.snr_series
        assert a.snr_series.tobytes() == c.snr_series.tobytes()

    def test_an_equal_trace_that_is_another_object_runs_a_new_channel_stage(self,
                                                                           channel_calls):
        first = scenario(window=0.2)
        copy = dataclasses.replace(first, trace=dataclasses.replace(first.trace))
        with simulation.shared_channel():
            run(first), run(copy)
        assert len(channel_calls) == 2


class TestMacPass:
    """The MAC stage alone, driven by synthetic per-slot SNR arrays."""

    SLOT = PROFILES["mmwave"].slot_duration
    THRESHOLDS = [e.snr_threshold for e in PROFILES["mmwave"].mcs_table]

    def mac(self, snr, rate=10e6, seed=5):
        cfg = scenario(rate=rate, window=len(snr) * self.SLOT)
        return columns_of(cfg, *mac_pass(cfg, np.asarray(snr, dtype=float), random.Random(seed)))

    def first_slot_at_or_after(self, t_gen):
        return np.ceil((t_gen - 1e-9) / self.SLOT)

    def test_clear_channel_delivers_in_the_arrival_slot(self):
        snr = np.full(8000, self.THRESHOLDS[-1] + 40.0)
        t_gen, t_deliver, outcome = self.mac(snr)
        assert len(t_gen) == 834  # one packet per 1.2 ms over 1 s
        assert np.all(outcome == DELIVERED)
        expected = (self.first_slot_at_or_after(t_gen) + 1) * self.SLOT
        assert np.allclose(t_deliver, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("rate", [12e6, 7.3e6, 96e6])
    def test_idle_jump_lands_on_each_arrival_slot(self, rate):
        # 12 Mb/s puts every arrival exactly on a slot start (1 ms = 8 slots);
        # 96 Mb/s, one slot apart. Each packet goes out in the first slot s
        # with t_gen <= s * slot + 1e-9, the MAC's own arrival test.
        n = 4000
        t_gen, t_deliver, outcome = self.mac(np.full(n, self.THRESHOLDS[-1] + 40.0), rate=rate)
        assert np.all(outcome[:-1] == DELIVERED)
        first = np.searchsorted(np.arange(n) * self.SLOT + 1e-9, t_gen[outcome == DELIVERED])
        assert np.array_equal(t_deliver[outcome == DELIVERED], first * self.SLOT + self.SLOT)

    def test_outage_defers_delivery_until_it_ends(self):
        first, end = 400, 600  # slots [first, end) are in outage
        snr = np.full(2000, self.THRESHOLDS[-1] + 40.0)
        snr[first:end] = self.THRESHOLDS[0] - 10.0
        t_gen, t_deliver, outcome = self.mac(snr)
        assert np.all(outcome == DELIVERED)
        delivery_slot = np.round(t_deliver / self.SLOT) - 1
        assert not np.any((delivery_slot >= first) & (delivery_slot < end))
        queued = self.first_slot_at_or_after(t_gen) >= first
        queued &= self.first_slot_at_or_after(t_gen) < end
        assert queued.sum() > 15
        assert np.all(delivery_slot[queued] == end)
        after = self.first_slot_at_or_after(t_gen) >= end
        assert after.sum() > 0
        assert np.all(delivery_slot[after] == self.first_slot_at_or_after(t_gen[after]))

    def test_harq_drops_after_the_attempt_budget(self, monkeypatch):
        # No SNR gives the MCS picked from it a BLER above ~0.1, so the SNR
        # falls after each first attempt: a top-MCS block goes out at the start
        # of every 12-slot period (BLER ~0.1), and its retransmissions 4 and 8
        # slots later see an SNR at which that MCS has BLER_MAX. Other slots
        # are in outage.
        prof = PROFILES["mmwave"]
        snr = np.full(8000, self.THRESHOLDS[0] - 10.0)
        snr[0::12] = self.THRESHOLDS[-1]
        snr[4::12] = snr[8::12] = self.THRESHOLDS[0] + 0.1
        assert bler(prof.mcs_table[-1].snr_threshold, self.THRESHOLDS[0] + 0.1) == BLER_MAX
        attempts = []
        harq_step = simulation.harq_step

        def recording_harq_step(tb, *args, **kwargs):
            result = harq_step(tb, *args, **kwargs)
            attempts.append((tb.bits, tb.tx_count, result[0]))
            return result

        monkeypatch.setattr(simulation, "harq_step", recording_harq_step)
        t_gen, t_deliver, outcome = self.mac(snr, rate=1000e6, seed=3)

        drops = [(bits, n) for bits, n, result in attempts if result is Outcome.DROPPED]
        assert len(drops) > 10
        assert all(n == prof.max_harq_tx for _, n in drops)
        dropped = outcome == DROPPED_HARQ
        assert np.all(np.isnan(t_deliver[dropped]))
        # Every bit of a dropped block belongs to a packet counted as dropped,
        # so a partly sent tail packet is dropped and never resent.
        pkt_bits = (1500 + 28) * 8
        assert dropped.sum() * pkt_bits >= sum(bits for bits, _ in drops)
        assert (outcome == DROPPED_BUFFER).sum() > 0
        counts = [(outcome == code).sum() for code in (DELIVERED, DROPPED_BUFFER,
                                                       DROPPED_HARQ, IN_FLIGHT)]
        assert sum(counts) == len(t_gen)
        # FIFO: whatever is still in flight came after every resolved packet.
        in_flight = np.flatnonzero(outcome == IN_FLIGHT)
        resolved = np.flatnonzero((outcome == DELIVERED) | dropped)
        assert in_flight.min() > resolved.max()


def manual_log(deliver_slot, outcome, rate=10e6, window=4.0):
    """A log of 125 us slots whose packet n is sent at n * payload bits / rate."""
    return MetricsLog(
        config=scenario(rate=rate, window=window),
        deliver_slot=np.array(deliver_slot, dtype=np.int32),
        outcome=np.array(outcome, dtype=np.int8),
        snr_series=np.recarray(0, dtype=SAMPLE_DTYPE),
    )


@dataclasses.dataclass
class GivenColumns(MetricsLog):
    """A log whose t_gen and t_deliver are held as given, so they may be set to
    floats no run produces (what the writers must still write as csv.writer does)."""

    t_gen: np.ndarray = None
    t_deliver: np.ndarray = None

    def columns(self, r0=0, r1=None):
        return self.t_gen[r0:r1], self.t_deliver[r0:r1]


def given_columns(log):
    return GivenColumns(log.config, log.deliver_slot, log.outcome, log.snr_series,
                        *log.columns())


class TestMetrics:
    def test_pdcp_throughput_counts_headers(self):
        log = run(scenario(rate=10e6, window=2.0))
        # 10 Mbps of payload carries 10 * 1528/1500 Mbps at the PDCP layer.
        assert summarize(log).throughput_bps == pytest.approx(10e6 * 1528 / 1500, rel=0.01)

    def test_saturated_lte_latency_matches_full_buffer_delay(self):
        # Steady-state queue delay is buffer_bits / service_rate, in each of
        # the generation-time bins [2, 4) s and [4, 6) s.
        cfg = scenario(profile="lte", rate=400e6, window=8.0)
        log = run(cfg)
        delivered = log.outcome == DELIVERED
        expected = DEFAULT_BUFFER_LIMIT * 8 / 75.2e6
        t_gen, t_deliver = log.columns()
        for t0 in (2.0, 4.0):
            in_bin = delivered & (t_gen >= t0) & (t_gen < t0 + 2.0)
            mean_lat = float(np.mean(t_deliver[in_bin] - t_gen[in_bin]))
            assert mean_lat == pytest.approx(expected, rel=0.10)

    def test_summarize_matches_hand_computation(self):
        # Sent at 0, 1.2, 2.4 and 3.6 ms; packet 0 delivered at the end of slot 3
        # (0.5 ms), packet 2 at the end of slot 21 (2.75 ms).
        log = manual_log([3, -1, 21, -1], [DELIVERED, DROPPED_BUFFER, DELIVERED, IN_FLIGHT])
        t_gen, t_deliver = log.columns()
        assert t_gen.tolist() == pytest.approx([0.0, 1.2e-3, 2.4e-3, 3.6e-3])
        assert t_deliver.tolist() == pytest.approx([0.5e-3, math.nan, 2.75e-3, math.nan],
                                                   nan_ok=True)
        s = summarize(log)
        assert (s.generated, s.delivered, s.dropped_buffer, s.in_flight) == (4, 2, 1, 1)
        assert s.throughput_bps == pytest.approx(2 * 12224 / 4.0)  # 1528-byte packets
        assert s.mean_latency_s == pytest.approx((0.5e-3 + 0.35e-3) / 2)
        assert s.median_latency_s == pytest.approx(0.425e-3)
        assert s.p99_latency_s == pytest.approx(0.35e-3 + 0.99 * 0.15e-3)
        assert s.loss_fraction == pytest.approx(0.25)

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(n=st.integers(1, 3 * simulation._WRITE_ROWS), delivered=st.sampled_from(["one", "many"]),
           rate=st.sampled_from([12e6, 10e6, 1e9]), spread=st.sampled_from([1, 8, 2400]),
           seed=st.integers(0, 2**32 - 1))
    def test_latency_statistics_equal_the_two_copy_expression(self, n, delivered, rate, spread,
                                                              seed):
        # summarize rebuilds t_gen and t_deliver a chunk at a time into one
        # array of latencies and lets the order statistics reorder it; mean,
        # median and p99 stay those of t_deliver[mask] - t_gen[mask] over the
        # whole columns, bit for bit. Each packet is delivered 0 to spread - 1
        # slots after the first slot that starts at or after it is sent; at
        # 12 Mb/s a packet is sent every 8 slots, and a small spread gives
        # ties. n spans several chunks.
        rng = np.random.default_rng(seed)
        sent_in = np.ceil(np.arange(n) * (12000 / rate) / 125e-6).astype(np.int64)
        outcome = rng.choice([DELIVERED, DROPPED_BUFFER, DROPPED_HARQ, IN_FLIGHT], n)
        if delivered == "one":
            outcome[:] = DROPPED_BUFFER
        outcome[rng.integers(n)] = DELIVERED
        mask = outcome == DELIVERED
        log = manual_log(np.where(mask, sent_in + rng.integers(0, spread, n), -1), outcome, rate)
        t_gen, t_deliver = log.columns()
        want = t_deliver[mask] - t_gen[mask]
        s = summarize(log)
        assert s.mean_latency_s == float(want.mean())
        assert s.median_latency_s == float(np.median(want))
        assert s.p99_latency_s == float(np.percentile(want, 99))

    def test_empty_summary_flag(self):
        log = manual_log([], [])
        s = summarize(log)
        assert s == Summary(0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def assert_streamed_statistics(monkeypatch, lat, chunk):
    """summarize's mean, median and p99 of latencies ``lat``, streamed ``chunk`` values at a
    time, are numpy's, bit for bit. This fails if numpy changes its summation or its
    quantile arithmetic."""
    def chunks(log):  # into one buffer, overwritten by each chunk, as _latencies does
        buf, bins = np.empty(chunk), np.empty(chunk, np.int64)
        for r0 in range(0, len(lat), chunk):
            x = buf[:len(lat[r0:r0 + chunk])]
            x[:] = lat[r0:r0 + chunk]
            yield x, np.right_shift(x.view(np.int64), simulation._BIN_SHIFT, out=bins[:len(x)])

    monkeypatch.setattr(simulation, "_latencies", chunks)
    s = summarize(manual_log(np.zeros(len(lat)), np.full(len(lat), DELIVERED)))
    assert s.delivered == len(lat)
    assert s.mean_latency_s == float(np.mean(lat))
    assert s.median_latency_s == float(np.median(lat))
    assert s.p99_latency_s == float(np.percentile(lat, 99))


class TestStreamedLatencyStatistics:
    """summarize streams the latencies twice: numpy's pairwise-sum tree for the mean and a
    binned selection for the median and p99. Latencies of any values, streamed in chunks
    of any size, give numpy's statistics."""

    NODE = simulation._CARRY  # the largest node summed by np.add.reduce itself
    CHUNK = simulation._SUMMARY_ROWS

    def test_every_size_to_300(self, monkeypatch):
        rng = np.random.default_rng(1)
        for n in range(1, 301):
            lat = rng.choice([1e-4, 2.5e-4, 3e-3], n) * (1 + rng.random(n) * (n % 3 == 0))
            assert_streamed_statistics(monkeypatch, lat, chunk=int(rng.integers(1, 40)))

    @pytest.mark.parametrize("n", [NODE - 1, NODE, NODE + 1]
                             + [2**k + d for k in range(7, 21) for d in (-1, 0, 1)])
    def test_tree_sizes(self, monkeypatch, n):
        # Sizes about the node cap, and about each power of two, where the tree's
        # shape changes; the values span five binades with many ties.
        rng = np.random.default_rng(n)
        lat = np.round(1e-4 * 2 ** rng.uniform(0, 5, n), 7)
        assert_streamed_statistics(monkeypatch, lat, chunk=5000)

    @pytest.mark.parametrize("case", ["all_equal", "two_clusters_one_ulp_apart",
                                      "many_binades", "one_packet"])
    def test_awkward_values(self, monkeypatch, case):
        rng = np.random.default_rng(2)
        x = 2.5e-4
        lat = {
            "all_equal": np.full(3 * self.NODE + 5, x),
            "two_clusters_one_ulp_apart": rng.permutation(
                np.repeat([x, math.nextafter(x, 1.0)], [self.NODE + 3, 2 * self.NODE])),
            "many_binades": 10.0 ** rng.uniform(-30, 30, 2 * self.NODE + 1),
            "one_packet": np.array([x]),
        }[case]
        for chunk in (1, 7, self.NODE, self.CHUNK):
            if chunk == 1 and len(lat) > 100:
                continue
            assert_streamed_statistics(monkeypatch, lat, chunk)

    def test_peak_memory_does_not_grow_with_the_log(self):
        # Most latencies are two slots, so the median's bin holds most packets, and they
        # take few distinct values, as o64's 833 k latencies take 1 759; every tenth
        # packet is up to 36 slots later.
        def peak(n_chunks):
            n = np.arange(n_chunks * simulation._SUMMARY_ROWS)
            log = manual_log(n + 1 + np.where(n % 10 == 0, n % 37, 0), np.full(len(n), DELIVERED),
                             rate=96e6)  # a packet per 125 us slot
            tracemalloc.start()
            try:
                summarize(log)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20) <= 1.1 * peak(1)


class TestPacketColumns:
    """t_gen and t_deliver are rebuilt from the delivery slot each packet keeps."""

    def test_chunks_concatenate_to_the_whole_columns(self):
        log = run(scenario(antennas="4x4", rate=800e6, window=1.0, seed=11,
                           placement="distant_2km"))
        n = log.n_packets
        assert {DELIVERED, DROPPED_BUFFER} <= set(log.outcome.tolist())
        borders = [0, 1, 2, 999, simulation._WRITE_ROWS, simulation._WRITE_ROWS + 1, n - 1, n + 77]
        assert borders == sorted(borders)
        chunks = [log.columns(r0, r1) for r0, r1 in zip(borders, borders[1:])]
        for k, whole in enumerate(log.columns()):
            assert len(whole) == n
            assert np.concatenate([c[k] for c in chunks]).tobytes() == whole.tobytes()

    def test_arrays_hold_5_bytes_a_packet(self):
        log = run(scenario(rate=1e9, window=0.5))
        max_pk = simulation._array_sizes(log.config)[1]  # the rows mac_pass allocates
        held = {f.name: getattr(log, f.name) for f in dataclasses.fields(log)}
        held = [a if a.base is None else a.base for name, a in held.items()
                if isinstance(a, np.ndarray) and name != "snr_series"]
        assert sum(a.nbytes for a in held) == 5 * max_pk  # deliver_slot and outcome
        assert 41_600 < log.n_packets <= max_pk < 1.001 * log.n_packets


PYTHON_SUM = sum


def compensated_sum(values, start=0):
    """Python 3.12's sum of floats: Neumaier's compensated sum; ints as before."""
    values = list(values)
    if not all(isinstance(v, float) for v in values):
        return PYTHON_SUM(values, start)
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


CANCELLING = [1e16, 1.0, -1e16]  # 0.0 left to right, 1.0 compensated


class TestLeftToRightSums:
    """The centroid (and with it the BS position and every SNR) and the mean SNR
    sum left to right on every Python version, as 3.11's sum does."""

    def test_centroid(self, monkeypatch):
        trace = FlightTrace(GeoPoint(0.0, 30.0, 0.0, 25.0), t=(0.0, 1.0, 2.0), x=CANCELLING,
                            y=CANCELLING[::-1], z=(1.0, 2.0, 6.0))
        assert compensated_sum(CANCELLING) == 1.0
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert trace.centroid() == (0.0, 0.0, 3.0)

    def test_mean_snr(self, monkeypatch):
        samples = np.zeros(3, dtype=SAMPLE_DTYPE).view(np.recarray)
        samples.snr = CANCELLING
        log = dataclasses.replace(manual_log([], []), snr_series=samples)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert summarize(log).mean_snr_db == 0.0

    def test_mean_snr_over_chunks(self):
        # The sum carries from chunk to chunk, so it is the whole column's
        # left-to-right sum, bit for bit, on either side of a chunk boundary.
        rng = np.random.default_rng(6)
        rows = simulation._SUMMARY_ROWS
        for n in (1, rows - 1, rows, rows + 1, 2 * rows + 5):
            samples = np.zeros(n, dtype=SAMPLE_DTYPE).view(np.recarray)
            samples.snr = rng.normal(20.0, 15.0, n) * 10.0 ** rng.integers(-3, 4, n)
            log = dataclasses.replace(manual_log([], []), snr_series=samples)
            assert summarize(log).mean_snr_db == float(np.add.accumulate(samples.snr)[-1]) / n


def _rows(*columns):
    for start in range(0, len(columns[0]), 65536):
        yield from zip(*(c[start:start + 65536].tolist() for c in columns))


def oracle_write_packet_log(log, path):
    """The packet log as csv.writer writes it, the reference for its bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PACKET_CSV_HEADER)
        writer.writerows(
            (i, tg, "" if math.isnan(td) else td, simulation._packet_bits(log.config),
             OUTCOME_NAMES[o])
            for i, (tg, td, o) in enumerate(_rows(*log.columns(), log.outcome))
        )


def oracle_write_snr_trace(log, path):
    """The SNR trace as csv.writer writes it, the reference for its bytes."""
    rec = log.snr_series
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SNR_CSV_HEADER)
        writer.writerows(_rows(rec.t, rec.distance_3d, rec.snr, rec.tx_gain, rec.rx_gain))


def assert_same_bytes(writer, oracle, log, tmp_path):
    writer(log, tmp_path / "got.csv")
    oracle(log, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# Floats that repr prints in exponent form, one that needs 17 digits, -0.0, and the
# neighbours of 1e-4 and 1e15, the limits of the writer's own formatter.
ODD_FLOATS = [1e-05, 5e-324, 1e+16, 0.1 + 0.2, 1.5e-07, 123456789012345680.0, -0.0,
              math.nextafter(1e-4, 0), 1e-4, math.nextafter(1e-4, 1),
              math.nextafter(1e15, 0), 1e15, math.nextafter(1e15, math.inf)]
BOUNDARY_FLOATS = [0.0, -0.0, 1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1),
                   math.nextafter(1e15, 0), 1e15, 1e16, 2.0 ** 53, 999999999999999.9, 5e-324]


def float_texts(values):
    """What the packet-log writer writes for each float, and the floats it handed to repr."""
    fell_back = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "repr", lambda v: fell_back.append(v) or repr(v), raising=False)
        width, put = simulation._float_field(np.array(values, dtype=np.float64))
    out = np.zeros((len(values), width), np.uint8)
    put(out)
    return [row.tobytes().replace(b"\0", b"").decode() for row in out], fell_back


def repr_texts(values):
    return ["" if math.isnan(v) else repr(v) for v in values]


def seventeen_digit_floats(n, seed):
    """n floats in [0, 10) whose shortest repr has 17 significant digits."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < n:
        for v in (rng.random(n) * 10).tolist():
            if len(repr(v).replace(".", "").lstrip("0")) == 17:
                out.append(v)
    return np.array(out[:n])


class TestFloatText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float_reads_as_repr(self, values):
        assert float_texts(values)[0] == repr_texts(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**15 - 1), st.integers(0, 18)), min_size=1,
                    max_size=40))
    def test_decimals_of_up_to_15_digits_need_no_repr(self, decimals):
        values = [m / 10**k for m, k in decimals]
        values = [v for v in values if v == 0 or v >= 1e-4] or [0.0]
        texts, fell_back = float_texts(values)
        assert texts == repr_texts(values)
        assert fell_back == []

    def test_boundary_values(self):
        texts, fell_back = float_texts(BOUNDARY_FLOATS)
        assert texts == repr_texts(BOUNDARY_FLOATS)
        # Only 0.0 and 1e-4 are positional in at most 15 digits; -0.0 goes to repr.
        want = [v for v in BOUNDARY_FLOATS if repr(v) not in ("0.0", "0.0001")]
        assert [repr(v) for v in fell_back] == [repr(v) for v in want]


def gigabit_pattern_log(n, seed=4):
    """n packets sent every 12 us, of every outcome, each delivered one to two 125 us
    slots after it was sent, in runs that share a delivery time as the MAC writes them."""
    outcome = np.random.default_rng(seed).integers(0, len(OUTCOME_NAMES), n)
    sent_in = np.ceil(np.arange(n) * 1.2e-5 / 125e-6)  # the first slot starting at or after
    return manual_log(np.where(outcome == DELIVERED, sent_in, -1), outcome, rate=1e9)


def lawnmower_log():
    trace = synth_trace(MissionArchetype("search_lawnmower", duration=120.0), seed=1)
    return run(build_scenario(trace, "mmwave", "64x16", 10e6, "on_premise", 7, 10.0))


def no_delivery_log():
    log = gigabit_pattern_log(simulation._WRITE_ROWS + 700)
    log.deliver_slot[:] = -1
    log.outcome[log.outcome == DELIVERED] = DROPPED_HARQ
    return log


def seventeen_digit_log():  # every t_gen goes to repr
    log = given_columns(gigabit_pattern_log(simulation._WRITE_ROWS + 300))
    log.t_gen[:] = np.sort(seventeen_digit_floats(log.n_packets, seed=8))
    return log


PACKET_LOGS = {
    "gigabit_orbit_1s": lambda: run(scenario(rate=1e9, window=1.0)),
    "lawnmower_10s": lawnmower_log,
    "no_delivery": no_delivery_log,
    "t_gen_all_17_digits": seventeen_digit_log,
    "two_chunks_exactly": lambda: gigabit_pattern_log(2 * simulation._WRITE_ROWS),
}


class TestCsvLogs:
    def test_packet_log_bytes_without_packets(self, tmp_path):
        log = manual_log([], [])
        assert_same_bytes(write_packet_log, oracle_write_packet_log, log, tmp_path)
        header = b"seq,t_gen_s,t_deliver_s,size_bits,outcome\r\n"
        assert (tmp_path / "got.csv").read_bytes() == header

    def test_packet_log_bytes_over_several_chunks(self, tmp_path):
        # More than two 8192-row chunks, every outcome, NaN delivery times, and
        # delivery times shared by runs of packets as the MAC stage writes them.
        log = given_columns(gigabit_pattern_log(2 * simulation._WRITE_ROWS + 1234))
        log.t_gen[:len(ODD_FLOATS)] = ODD_FLOATS
        log.t_deliver[-len(ODD_FLOATS):] = ODD_FLOATS
        assert_same_bytes(write_packet_log, oracle_write_packet_log, log, tmp_path)

    @pytest.mark.parametrize("name", sorted(PACKET_LOGS))
    def test_packet_log_bytes(self, tmp_path, name):
        assert_same_bytes(write_packet_log, oracle_write_packet_log, PACKET_LOGS[name](), tmp_path)

    def test_packet_log_memory_does_not_grow_with_the_log(self, tmp_path):
        def peak(n_chunks):
            log = gigabit_pattern_log(n_chunks * simulation._WRITE_ROWS)
            tracemalloc.start()
            try:
                write_packet_log(log, tmp_path / "packets.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20) <= 1.1 * peak(1)

    def test_snr_trace_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        rec = np.recarray(simulation._WRITE_ROWS + 77, dtype=SAMPLE_DTYPE)
        for name in SAMPLE_DTYPE.names:
            rec[name] = rng.normal(0.0, 30.0, len(rec))
        rec.snr[:len(ODD_FLOATS)] = ODD_FLOATS
        rec.tx_gain[:len(ODD_FLOATS)] = np.negative(ODD_FLOATS)
        log = dataclasses.replace(manual_log([], []), snr_series=rec)
        assert_same_bytes(write_snr_trace, oracle_write_snr_trace, log, tmp_path)
        empty = manual_log([], [])
        assert_same_bytes(write_snr_trace, oracle_write_snr_trace, empty, tmp_path)

    def test_packet_log_round_trip(self, quick_log, tmp_path):
        path = tmp_path / "packets.csv"
        write_packet_log(quick_log, path)
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == quick_log.n_packets
        first = rows[0]
        assert float(first["t_gen_s"]) == quick_log.columns()[0][0]
        assert first["outcome"] == "delivered"
        assert int(first["size_bits"]) == 1528 * 8

    def test_snr_trace_columns(self, quick_log, tmp_path):
        path = tmp_path / "snr.csv"
        write_snr_trace(quick_log, path)
        header = path.read_text().splitlines()[0]
        assert header == "t_s,distance_m,snr_db,tx_gain_db,rx_gain_db"


@pytest.fixture
def writers(monkeypatch):
    """Sets the CPUs the CSV writers see; the list of each file's writer count, W."""
    counts = []

    def recorded(n_chunks, count=mobility.chunk_writers):
        counts.append(count(n_chunks))
        return counts[-1]

    def use(cpus):
        monkeypatch.setattr(mobility, "usable_cpus", lambda: cpus)
        return counts

    monkeypatch.setattr(mobility, "chunk_writers", recorded)
    return use


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds=60):
    """Fails a test that would hang, e.g. on a child never reaped."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def snr_log(n, seed=5):
    rng = np.random.default_rng(seed)
    rec = np.recarray(n, dtype=SAMPLE_DTYPE)
    for name in SAMPLE_DTYPE.names:
        rec[name] = rng.normal(0.0, 30.0, n)
    rec.snr[:len(ODD_FLOATS)] = ODD_FLOATS[:n]
    rec.tx_gain[:len(ODD_FLOATS)] = np.negative(ODD_FLOATS[:n])
    return dataclasses.replace(manual_log([], []), snr_series=rec)


def odd_packet_log(n):
    log = given_columns(gigabit_pattern_log(n))
    log.t_gen[:len(ODD_FLOATS)] = ODD_FLOATS[:n]
    log.t_deliver[-len(ODD_FLOATS):] = ODD_FLOATS[-n:]
    return log


def oracle_write_trace_csv(trace, path):
    """The trace CSV as csv.writer writes it, the reference for its bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_CSV_HEADER)
        lat, lon = xy_to_latlon(trace.x, trace.y, trace.origin)
        writer.writerows(_rows(trace.t, lat, lon, trace.z))


def rows_trace(n):
    rng = np.random.default_rng(n)
    x, y, z = rng.normal(0.0, 900.0, (3, n))
    return FlightTrace(GeoPoint(0.0, 30.0, -97.0, 25.0), np.cumsum(rng.uniform(0.01, 2.0, n)),
                       x, y, np.abs(z))


ROWS = simulation._WRITE_ROWS
# Rows of each file: none, one chunk, two chunks (fewer than three workers), and three
# chunks, the last partial (a count that two workers do not divide).
SIZES = {"empty": 0, "one_chunk": 1000, "two_chunks": ROWS + 5, "three_chunks": 2 * ROWS + 1234}


class TestParallelWriters:
    """Each CSV writer writes the same bytes whatever the number of processes, W, that
    format its chunks, and leaves no child process behind."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_packet_log(self, tmp_path, writers, cpus, size):
        n = SIZES[size]
        log = odd_packet_log(n) if n else manual_log([], [])
        counts = writers(cpus)
        assert_same_bytes(write_packet_log, oracle_write_packet_log, log, tmp_path)
        assert_no_child_left()
        assert counts == [max(1, min(cpus, math.ceil(n / ROWS)))]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_snr_trace(self, tmp_path, writers, cpus, size):
        counts = writers(cpus)
        assert_same_bytes(write_snr_trace, oracle_write_snr_trace, snr_log(SIZES[size]),
                          tmp_path)
        assert_no_child_left()
        assert counts == [max(1, min(cpus, math.ceil(SIZES[size] / ROWS)))]

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("size", ["one_chunk", "three_chunks"])
    def test_trace_csv(self, tmp_path, writers, cpus, size):
        trace = rows_trace(SIZES[size])
        counts = writers(cpus)
        write_trace_csv(trace, tmp_path / "got.csv")
        assert_no_child_left()
        oracle_write_trace_csv(trace, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert counts == [min(cpus, math.ceil(SIZES[size] / ROWS))]

    @pytest.mark.parametrize("name", ["gigabit_orbit_1s", "t_gen_all_17_digits"])
    def test_packet_logs_over_three_workers(self, tmp_path, writers, name):
        counts = writers(3)
        assert_same_bytes(write_packet_log, oracle_write_packet_log, PACKET_LOGS[name](), tmp_path)
        assert_no_child_left()
        assert counts[0] >= 2

    @pytest.mark.parametrize("failing", ["child", "parent", "killed child"])
    def test_a_failed_chunk_is_an_error_and_leaves_nothing_behind(self, tmp_path, writers,
                                                                  failing):
        writers(3)
        parent = os.getpid()
        fail_at = 0 if failing == "parent" else 2 * ROWS

        def chunk(s0):
            if s0 == fail_at:
                if failing == "killed child":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError(f"no row {s0} in {'this' if os.getpid() == parent else 'a'} "
                                 "process")
            return b"row\r\n" * min(ROWS, 3 * ROWS - s0)

        path = tmp_path / "out.csv"
        want = {"child": f"{path}: the child process writing from row {2 * ROWS} failed: "
                         f"ValueError: no row {2 * ROWS} in a process",
                "killed child": f"{path}: the child process writing from row {2 * ROWS} "
                                f"failed: signal {signal.SIGKILL.value}",
                "parent": "no row 0 in this process"}[failing]
        with deadline(), pytest.raises(OSError if "child" in failing else ValueError) as err:
            mobility.write_chunks(path, b"header\r\n", 3 * ROWS, chunk)
        assert str(err.value) == want
        assert_no_child_left()
        assert os.listdir(tmp_path) == ["out.csv"]


class TestConfigValidation:
    def test_rejects_bad_rates(self):
        for rate in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                scenario(rate=rate)

    def test_rejects_negative_window(self):
        for window in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                ScenarioConfig(
                    trace=TRACE,
                    profile=PROFILES["mmwave"],
                    bs_array=None,
                    uav_array=None,
                    source_rate=1e6,
                    bs_position=(0.0, 0.0, 25.0),
                    sim_window=window,
                    seed=0,
                )

    def test_refusal_counts_the_arrays_of_the_run(self, monkeypatch):
        # 1 s at 10 Mb/s: 8000 slots, 835 packet rows, 200 recorded samples. A
        # machine with a byte less than the run's arrays refuses its config as
        # it is built, before the channel stage allocates anything.
        cfg = scenario(rate=10e6, window=1.0)
        arrays = 835 * (4 + 1) + 8000 * 8 + 200 * SAMPLE_DTYPE.itemsize  # deliver_slot, outcome
        for physical in (arrays - 1, arrays):
            monkeypatch.setattr(simulation, "os", SimpleNamespace(
                sysconf=lambda name, pages=physical: pages if name == "SC_PHYS_PAGES" else 1))
            if physical < arrays:
                with pytest.raises(ValueError, match="physical memory"):
                    dataclasses.replace(cfg)
            else:
                assert summarize(run(dataclasses.replace(cfg))).generated == 834

    # What run_bytes leaves out: the chunk temporaries of the channel and MAC stages, the
    # buffers and chunk temporaries of summarize (about 1 MB), and one-time caches and
    # imports. Measured at 0.6-2.3 MB over run_bytes for these three cells.
    CHUNK_ALLOWANCE = 3_000_000  # bytes

    @pytest.mark.parametrize("cell", ["gigabit_o64_1s", "saturated_lte_distant_10s",
                                      "lawnmower_10mbps_30s"])
    def test_run_and_summarize_fit_in_run_bytes(self, cell):
        cfg = {
            "gigabit_o64_1s": lambda: scenario(rate=1e9, window=1.0),
            "saturated_lte_distant_10s": lambda: scenario(profile="lte", antennas="1x1",
                                                          rate=100e6, window=10.0,
                                                          placement="distant_2km"),
            "lawnmower_10mbps_30s": lambda: build_scenario(
                synth_trace(MissionArchetype("search_lawnmower", duration=120.0), seed=1),
                "mmwave", "64x16", 10e6, "on_premise", 7, 30.0),
        }[cell]()
        tracemalloc.start()
        try:
            summarize(run(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(simulation.run_bytes(cfg)) + self.CHUNK_ALLOWANCE

    def test_delivery_slots_are_int64_from_2_to_the_31_slots(self, monkeypatch):
        # Sized, not run: a host with 2**50 bytes of memory, a 1 kb/s source.
        monkeypatch.setattr(simulation, "os", SimpleNamespace(
            sysconf=lambda name: 2**50 if name == "SC_PHYS_PAGES" else 1))
        slot = PROFILES["mmwave"].slot_duration
        for n_slots, dtype, width in ((2**31 - 1, np.int32, 4), (2**31, np.int64, 8)):
            cfg = scenario(rate=1e3, window=n_slots * slot)
            n, max_pk, _, slot_dtype = simulation._array_sizes(cfg)
            assert (n, slot_dtype) == (n_slots, dtype)
            assert simulation.run_bytes(cfg)[0] == max_pk * (width + 1)
