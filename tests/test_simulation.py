import math
import random

import numpy as np
import pytest

from uavlink import simulation
from uavlink.beamforming import (
    DEFAULT_UPDATE_PERIOD,
    ArrayConfig,
    array_basis,
    beam_gain_db,
    best_beam_pair,
    geometry_toward,
)
from uavlink.campaign import build_scenario
from uavlink.channel import ShadowingField, fspl_db, noise_floor_dbm
from uavlink.missions import MissionArchetype, synth_trace
from uavlink.mobility import FlightTrace, GeoPoint, Waypoint, state_at
from uavlink.phy import BLER_MAX, Outcome, bler, lte_profile, mmwave_profile
from uavlink.simulation import (
    DEFAULT_BUFFER_LIMIT,
    DELIVERED,
    DROPPED_BUFFER,
    DROPPED_HARQ,
    IN_FLIGHT,
    SAMPLE_DTYPE,
    MetricsLog,
    ScenarioConfig,
    latency_series,
    mac_pass,
    pdcp_throughput,
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
        diffs = np.diff(log.t_gen)
        assert np.allclose(diffs, 1.2e-3, rtol=1e-9)

    def test_interarrival_1000mbps(self):
        log = run(scenario(rate=1000e6, window=0.01))
        diffs = np.diff(log.t_gen)
        assert np.allclose(diffs, 12e-6, rtol=1e-9)

    def test_zero_window_empty_log(self):
        log = run(scenario(window=0.0))
        assert log.n_packets == 0
        assert len(log.snr_series) == 0
        assert summarize(log).empty


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
        assert np.all(log.t_deliver[mask] > log.t_gen[mask])
        assert np.all(np.isnan(log.t_deliver[log.outcome == DROPPED_HARQ]))

    def test_latency_floor_one_slot(self, quick_log):
        slot = quick_log.config.profile.slot_duration
        mask = quick_log.outcome == DELIVERED
        lat = quick_log.t_deliver[mask] - quick_log.t_gen[mask]
        assert lat.min() >= slot - 1e-12

    def test_lte_latency_floor_includes_grant_cycle(self):
        log = run(scenario(profile="lte", window=1.0))
        mask = log.outcome == DELIVERED
        lat = log.t_deliver[mask] - log.t_gen[mask]
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
        assert np.array_equal(a.t_gen, b.t_gen)
        assert np.array_equal(a.t_deliver, b.t_deliver, equal_nan=True)
        assert np.array_equal(a.outcome, b.outcome)
        assert [s.snr for s in a.snr_series] == [s.snr for s in b.snr_series]
        assert summarize(a) == summarize(b)
        for log, name in ((a, "a"), (b, "b")):
            write_packet_log(log, tmp_path / f"{name}_packets.csv")
            write_snr_trace(log, tmp_path / f"{name}_snr.csv")
        assert (tmp_path / "a_packets.csv").read_bytes() == (tmp_path / "b_packets.csv").read_bytes()
        assert (tmp_path / "a_snr.csv").read_bytes() == (tmp_path / "b_snr.csv").read_bytes()

    def test_different_seeds_differ(self):
        a = run(scenario(window=1.0, seed=1))
        b = run(scenario(window=1.0, seed=2))
        assert [s.snr for s in a.snr_series] != [s.snr for s in b.snr_series]


class TestGoodputConvergence:
    def test_static_channel_matches_closed_form(self):
        # Hovering UAV, zero shadowing, single antennas: the SNR is constant,
        # so the stop-and-wait HARQ chain has a closed-form goodput. Park the
        # SNR 0.3 dB above a mid-table threshold for a meaningful error rate.
        from uavlink.channel import fspl_db
        from uavlink.mobility import FlightTrace, GeoPoint, Waypoint
        from uavlink.phy import bler, mmwave_profile, tb_bits

        prof = mmwave_profile()
        entry = prof.mcs_table[20]
        target_snr = entry.snr_threshold + 0.3
        # snr = tx_power - fspl(d) - noise_floor with 0 dB gains
        fspl_needed = prof.link.tx_power + 79.0 - target_snr
        d = 10 ** ((fspl_needed - 32.4 - 20 * math.log10(28.0)) / 20.0)
        hover = FlightTrace(
            origin=GeoPoint(0.0, 30.0, 0.0, 25.0),
            points=(Waypoint(0.0, d, 0.0, 25.0), Waypoint(100.0, d, 0.0, 25.0)),
        )
        cfg = ScenarioConfig(
            trace=hover,
            profile=prof,
            bs_array=ArrayConfig(1, 1),
            uav_array=ArrayConfig(1, 1),
            source_rate=2000e6,  # saturating
            bs_position=(0.0, 0.0, 25.0),
            sim_window=60.0,
            seed=17,
            shadowing_sigma=0.0,
        )
        log = run(cfg)
        snr = log.snr_series[0].snr
        assert snr == pytest.approx(target_snr, abs=1e-9)
        p = bler(entry, snr)
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
        # time: interpolated position, the exhaustive-search pair at each epoch
        # start, inner-product beam gains, FSPL and scalar shadowing.
        trace = FlightTrace(origin=GeoPoint(0.0, 30.0, 0.0, 30.0), points=(
            Waypoint(0.0, 0.0, 0.0, 30.0), Waypoint(0.25, 6.0, 1.0, 31.0),
            Waypoint(0.6, 6.5, 9.0, 30.0), Waypoint(0.61, 6.8, 9.1, 30.0),
            Waypoint(1.05, -4.0, 3.0, 32.0), Waypoint(3.0, -4.0, 3.0, 32.0),
        ))
        cfg = ScenarioConfig(trace=trace, profile=mmwave_profile(), bs_array=ArrayConfig(4, 4),
                             uav_array=ArrayConfig(2, 2), source_rate=10e6,
                             bs_position=(60.0, -25.0, 25.0), sim_window=1.3)
        slot = cfg.profile.slot_duration
        n = round(cfg.sim_window / slot)
        assert n > simulation._CHUNK_SLOTS and n % simulation._CHUNK_SLOTS
        snr, samples = simulation.channel_pass(cfg, ShadowingField(sigma=4.0, seed=21))

        field = ShadowingField(sigma=4.0, seed=21)
        bs = np.array(cfg.bs_position)
        bs_basis = array_basis(tuple(np.array(trace.centroid()) - bs))
        uav_basis = array_basis((0.0, 0.0, -1.0))
        link = cfg.profile.link
        nf = noise_floor_dbm(link.bandwidth, link.noise_figure)
        expect = np.empty(n)
        epoch = -1
        for s in range(n):
            t = s * slot
            pos = np.array(state_at(trace, t).position)
            bs_geom = geometry_toward(bs_basis, tuple(pos - bs))
            uav_geom = geometry_toward(uav_basis, tuple(bs - pos))
            if math.floor(t / DEFAULT_UPDATE_PERIOD + 1e-9) > epoch:
                epoch = math.floor(t / DEFAULT_UPDATE_PERIOD + 1e-9)
                pair = best_beam_pair(cfg.bs_array, cfg.uav_array, bs_geom, uav_geom, t)
            gains = (beam_gain_db(cfg.uav_array, pair.tx_beam, uav_geom)
                     + beam_gain_db(cfg.bs_array, pair.rx_beam, bs_geom))
            pl = fspl_db(float(np.linalg.norm(bs - pos)), link.carrier_freq)
            expect[s] = link.tx_power + gains - pl - field.sample_at(*pos) - nf
        assert np.abs(snr - expect).max() < 1e-9
        record_every = round(simulation.DEFAULT_SNR_SAMPLE_INTERVAL / slot)
        assert np.array_equal(samples.snr, snr[::record_every])
        assert np.array_equal(samples.t, np.arange(0, n, record_every) * slot)


class TestMacPass:
    """The MAC stage alone, driven by synthetic per-slot SNR arrays."""

    SLOT = mmwave_profile().slot_duration
    THRESHOLDS = [e.snr_threshold for e in mmwave_profile().mcs_table]

    def mac(self, snr, rate=10e6, seed=5):
        cfg = scenario(rate=rate, window=len(snr) * self.SLOT)
        return mac_pass(cfg, np.asarray(snr, dtype=float), random.Random(seed))

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
        prof = mmwave_profile()
        snr = np.full(8000, self.THRESHOLDS[0] - 10.0)
        snr[0::12] = self.THRESHOLDS[-1]
        snr[4::12] = snr[8::12] = self.THRESHOLDS[0] + 0.1
        assert bler(prof.mcs_table[-1], self.THRESHOLDS[0] + 0.1) == BLER_MAX
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


def manual_log(t_gen, t_deliver, outcome, size=1000, window=4.0):
    cfg = scenario(window=window)
    return MetricsLog(
        config=cfg,
        t_gen=np.array(t_gen, dtype=float),
        t_deliver=np.array(t_deliver, dtype=float),
        outcome=np.array(outcome, dtype=np.int8),
        packet_bits=size,
        snr_series=np.recarray(0, dtype=SAMPLE_DTYPE),
    )


class TestMetrics:
    def test_pdcp_throughput_counts_headers(self):
        log = run(scenario(rate=10e6, window=2.0))
        (t0, bps), = pdcp_throughput(log, 2.0)
        assert t0 == 0.0
        # 10 Mbps of payload carries 10 * 1528/1500 Mbps at the PDCP layer.
        assert bps == pytest.approx(10e6 * 1528 / 1500, rel=0.01)

    def test_pdcp_throughput_binning(self):
        log = manual_log(
            [0.0, 1.0, 2.5], [0.5, 1.4, 3.0], [DELIVERED, DELIVERED, DELIVERED], size=800
        )
        bins = pdcp_throughput(log, 2.0)
        assert bins == [(0.0, 800.0), (2.0, 400.0)]

    def test_latency_series_single_packet(self):
        log = manual_log([1.0], [1.0004], [DELIVERED], window=4.0)
        series = latency_series(log, 1.0)
        assert series[1][1] == pytest.approx(0.4e-3, abs=1e-12)

    def test_latency_series_gap_markers(self):
        log = manual_log([1.0], [1.0004], [DELIVERED], window=4.0)
        series = latency_series(log, 1.0)
        assert math.isnan(series[0][1])
        assert math.isnan(series[2][1])
        assert math.isnan(series[3][1])

    def test_saturated_lte_latency_matches_full_buffer_delay(self):
        # Steady-state queue delay is buffer_bits / service_rate.
        cfg = scenario(profile="lte", rate=400e6, window=8.0)
        log = run(cfg)
        series = latency_series(log, 2.0)
        expected = DEFAULT_BUFFER_LIMIT * 8 / 75.2e6
        for t0, mean_lat in series[1:3]:
            assert mean_lat == pytest.approx(expected, rel=0.10)

    def test_summarize_matches_hand_computation(self):
        log = manual_log(
            [0.0, 1.0, 2.0, 3.0],
            [0.5, math.nan, 2.25, math.nan],
            [DELIVERED, DROPPED_BUFFER, DELIVERED, IN_FLIGHT],
        )
        s = summarize(log)
        assert (s.generated, s.delivered, s.dropped_buffer, s.in_flight) == (4, 2, 1, 1)
        assert s.throughput_bps == pytest.approx(2000 / 4.0)
        assert s.mean_latency_s == pytest.approx((0.5 + 0.25) / 2)
        assert s.median_latency_s == pytest.approx(0.375)
        assert s.p99_latency_s == pytest.approx(0.25 + 0.99 * 0.25)
        assert s.loss_fraction == pytest.approx(0.25)

    def test_empty_summary_flag(self):
        log = manual_log([], [], [])
        s = summarize(log)
        assert s.empty
        assert s.generated == 0
        assert s.throughput_bps == 0.0


class TestCsvLogs:
    def test_packet_log_round_trip(self, quick_log, tmp_path):
        path = tmp_path / "packets.csv"
        write_packet_log(quick_log, path)
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == quick_log.n_packets
        first = rows[0]
        assert float(first["t_gen_s"]) == quick_log.t_gen[0]
        assert first["outcome"] == "delivered"
        assert int(first["size_bits"]) == 1528 * 8

    def test_snr_trace_columns(self, quick_log, tmp_path):
        path = tmp_path / "snr.csv"
        write_snr_trace(quick_log, path)
        header = path.read_text().splitlines()[0]
        assert header == "t_s,distance_m,snr_db,tx_gain_db,rx_gain_db"


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
                    profile=mmwave_profile(),
                    bs_array=None,
                    uav_array=None,
                    source_rate=1e6,
                    sim_window=window,
                )

    def test_default_bs_position_is_centroid_at_25m(self):
        cfg = ScenarioConfig(
            trace=TRACE,
            profile=lte_profile(),
            bs_array=None,
            uav_array=None,
            source_rate=1e6,
        )
        cx, cy, _ = TRACE.centroid()
        assert cfg.bs_position == (cx, cy, 25.0)
