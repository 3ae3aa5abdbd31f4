"""Acceptance suite: end-to-end targets for the calibrated uplink scenarios.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The heavy 60-second cells execute once and are shared.
"""

import math
import random
import time

import numpy as np
import pytest

from channel_oracle import Geometry, best_gain_db, dft_codebook, steering_vector
from uavlink.beamforming import (
    GAIN_FLOOR_LINEAR,
    ArrayConfig,
    BeamTracker,
    parse_antenna_combo,
)
from uavlink.campaign import build_scenario
from uavlink.channel import ShadowingField, doppler_shift, fspl_db
from uavlink.missions import MissionArchetype, synth_trace
from uavlink.mobility import TrajectorySampler
from uavlink.phy import PROFILES
from uavlink.simulation import channel_pass, run, summarize

SEED = 42
TRACE = synth_trace(MissionArchetype("overwatch_orbit"), seed=1)

_cache: dict = {}


def cell(key, profile, antennas, rate, placement, window=60.0):
    """Run (once) and time one acceptance cell."""
    if key not in _cache:
        cfg = build_scenario(TRACE, profile, antennas, rate, placement, SEED, window)
        t0 = time.perf_counter()
        log = run(cfg)
        elapsed = time.perf_counter() - t0
        _cache[key] = (log, summarize(log), elapsed)
    return _cache[key]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nacceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_header_overhead_throughput_identity():
    log, s, elapsed = cell("c1", "mmwave", "64x16", 10e6, "on_premise")
    thr_mbps = s.throughput_bps / 1e6
    ok = abs(thr_mbps - 10.19) <= 0.05 and elapsed < 5.0
    report(1, ok, f"throughput {thr_mbps:.4f} Mbps (10.19 +/- 0.05), runtime {elapsed:.2f}s (< 5s)")
    assert thr_mbps == pytest.approx(10.19, abs=0.05)
    assert elapsed < 5.0


def test_criterion_2_full_rate_mmwave_delivery():
    # "Any archetype": sweep all four mission kinds at the full source rate.
    results = []
    for kind in ("overwatch_orbit", "search_lawnmower", "perimeter_patrol", "target_follow"):
        if kind == "overwatch_orbit":
            log, s, elapsed = cell("o64", "mmwave", "64x16", 1000e6, "on_premise")
        else:
            trace = synth_trace(MissionArchetype(kind), seed=1)
            cfg = build_scenario(trace, "mmwave", "64x16", 1000e6, "on_premise", SEED, 60.0)
            t0 = time.perf_counter()
            s = summarize(run(cfg))
            elapsed = time.perf_counter() - t0
        results.append((kind, s.throughput_bps / 1e6, s.mean_latency_s * 1e3, elapsed))
    ok = all(thr >= 1010.0 and lat < 1.0 and el < 600.0 for _, thr, lat, el in results)
    worst_thr = min(thr for _, thr, _, _ in results)
    worst_lat = max(lat for _, _, lat, _ in results)
    worst_el = max(el for _, _, _, el in results)
    report(2, ok, f"all archetypes: throughput >= {worst_thr:.2f} Mbps (>= 1010), "
                  f"mean latency <= {worst_lat:.4f} ms (< 1), runtime <= {worst_el:.1f}s (< 600s)")
    for kind, thr, lat, el in results:
        assert thr >= 1010.0, kind
        assert lat < 1.0, kind
        assert el < 600.0, kind


def test_criterion_3_lte_saturation():
    log, s, _ = cell("lte_sat", "lte", "1x1", 1000e6, "on_premise")
    thr_mbps = s.throughput_bps / 1e6
    lat_ms = s.mean_latency_s * 1e3
    ok = abs(thr_mbps - 75.2) <= 3.0 and 116.0 * 0.75 <= lat_ms <= 116.0 * 1.25
    report(3, ok, f"throughput {thr_mbps:.2f} Mbps (75.2 +/- 3), "
                  f"mean latency {lat_ms:.1f} ms (116 +/- 25%, calibrated buffer)")
    assert thr_mbps == pytest.approx(75.2, abs=3.0)
    assert 116.0 * 0.75 <= lat_ms <= 116.0 * 1.25


def test_criterion_4_lte_unloaded_latency():
    log, s, _ = cell("lte_10", "lte", "1x1", 10e6, "on_premise")
    lat_ms = s.mean_latency_s * 1e3
    ok = abs(lat_ms - 5.3) <= 1.5
    report(4, ok, f"mean latency {lat_ms:.3f} ms (5.3 +/- 1.5: 4 ms grant cycle + 1 ms TTI)")
    assert lat_ms == pytest.approx(5.3, abs=1.5)


def test_criterion_5_antenna_gain_gap():
    boresight = Geometry(azimuth=0.0, elevation=0.0)
    gaps = []
    for combo in ("64x16", "16x4"):
        bs, uav = parse_antenna_combo(combo)
        gaps.append(best_gain_db(uav, boresight) + best_gain_db(bs, boresight))
    aligned_gap = gaps[0] - gaps[1]
    _, s64, _ = cell("o64", "mmwave", "64x16", 1000e6, "on_premise")
    _, s16, _ = cell("o16", "mmwave", "16x4", 1000e6, "on_premise")
    tracked_gap = s64.mean_snr_db - s16.mean_snr_db
    ok = abs(aligned_gap - 12.041199826559248) < 1e-9 and 8.0 <= tracked_gap <= 13.0
    report(5, ok, f"aligned gap {aligned_gap:.6f} dB (= 12.0412 exactly), "
                  f"mission-averaged tracked SNR gap {tracked_gap:.2f} dB (in [8, 13])")
    assert aligned_gap == pytest.approx(12.041199826559248, abs=1e-9)
    assert 8.0 <= tracked_gap <= 13.0


def test_criterion_6_distance_ordering():
    _, o64, _ = cell("o64", "mmwave", "64x16", 1000e6, "on_premise")
    _, o16, _ = cell("o16", "mmwave", "16x4", 1000e6, "on_premise")
    _, d64, _ = cell("d64", "mmwave", "64x16", 1000e6, "distant_2km")
    _, d16, _ = cell("d16", "mmwave", "16x4", 1000e6, "distant_2km")
    lat = [o64.mean_latency_s, o16.mean_latency_s, d64.mean_latency_s, d16.mean_latency_s]
    ordered = lat[0] < lat[1] < lat[2] < lat[3]
    deg64 = d64.mean_latency_s / o64.mean_latency_s
    deg16 = d16.mean_latency_s / o16.mean_latency_s
    ok = ordered and deg64 > 5.0 and deg16 > 5.0
    report(6, ok, "mean latency ms "
                  f"{lat[0]*1e3:.3f} < {lat[1]*1e3:.3f} < {lat[2]*1e3:.3f} < {lat[3]*1e3:.3f}, "
                  f"distant/on-premise degradation {deg64:.1f}x and {deg16:.1f}x (> 5x)")
    assert ordered
    assert deg64 > 5.0
    assert deg16 > 5.0


def test_criterion_7_property_suite(monkeypatch):
    t0 = time.perf_counter()

    # Link-budget identity on every emitted channel sample of a real run.
    log, _, _ = cell("c1", "mmwave", "64x16", 10e6, "on_premise")
    for smp in log.snr_series:
        rebuilt = (smp.tx_power + smp.tx_gain + smp.rx_gain
                   - smp.pathloss - smp.shadowing - smp.noise_floor)
        assert abs(smp.snr - rebuilt) < 1e-9

    # Doppler invariance of SNR: phase-only single-ray model. The same
    # positions with the velocities offset along x.
    cfg = build_scenario(TRACE, "mmwave", "64x16", 10e6, "on_premise", SEED, 1.0)
    base_snr, base = channel_pass(cfg, ShadowingField(sigma=4.0, seed=9))
    track = TrajectorySampler.track
    for v in (5.0, -20.0):
        def offset_track(sampler, t, v=v):
            pos, vel = track(sampler, t)
            return pos, vel + [[v], [0.0], [0.0]]

        monkeypatch.setattr(TrajectorySampler, "track", offset_track)
        snr, smp = channel_pass(cfg, ShadowingField(sigma=4.0, seed=9))
        monkeypatch.undo()
        assert np.array_equal(snr, base_snr)
        assert np.array_equal(smp.snr, base.snr)
        assert not np.array_equal(smp.doppler_shift, base.doppler_shift)

    # Tracked gain never beats the refreshed optimum.
    bs, uav = parse_antenna_combo("16x4")
    rng = random.Random(4)
    az = el = 0.0
    geoms = []
    for _ in range(300):
        az = max(-3.0, min(3.0, az + rng.uniform(-0.08, 0.08)))
        el = max(-1.4, min(1.4, el + rng.uniform(-0.03, 0.03)))
        geoms.append(Geometry(azimuth=az, elevation=el))
    cos = np.array([g.cosines() for g in geoms]).T
    tx, rx = BeamTracker(bs, uav).gains_at_cosines(np.arange(300) * 1e-3, cos, cos)
    for g_tx, g_rx, geom in zip(tx, rx, geoms):
        tx_db = 10 * math.log10(max(g_tx, GAIN_FLOOR_LINEAR))
        rx_db = 10 * math.log10(max(g_rx, GAIN_FLOOR_LINEAR))
        best = best_gain_db(uav, geom) + best_gain_db(bs, geom)
        assert tx_db + rx_db <= best + 1e-9

    # Packet conservation on every cached run.
    for log_i, s_i, _ in _cache.values():
        assert s_i.generated == s_i.delivered + s_i.dropped_buffer + s_i.dropped_harq + s_i.in_flight

    # Monotone MCS selection.
    thresholds = np.array([e.snr_threshold for e in PROFILES["mmwave"].mcs_table])
    rng = random.Random(5)
    snrs = sorted(rng.uniform(-20, 45) for _ in range(500))
    indices = (thresholds.searchsorted(snrs, side="right") - 1).tolist()
    assert indices == sorted(indices)

    # Bit-identical rerun under a fixed seed.
    cfg_a = build_scenario(TRACE, "mmwave", "16x4", 20e6, "on_premise", 77, 1.0)
    cfg_b = build_scenario(TRACE, "mmwave", "16x4", 20e6, "on_premise", 77, 1.0)
    log_a, log_b = run(cfg_a), run(cfg_b)
    assert np.array_equal(log_a.deliver_slot, log_b.deliver_slot)
    assert np.array_equal(log_a.outcome, log_b.outcome)
    assert [s.snr for s in log_a.snr_series] == [s.snr for s in log_b.snr_series]
    assert log_a.snr_series is not log_b.snr_series  # two channel stages ran

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(7, ok, f"identity/doppler/tracking/conservation/mcs/determinism in {elapsed:.1f}s (< 60s)")
    assert elapsed < 60.0


def test_criterion_8_oracle_checks():
    rng = random.Random(6)
    worst_fspl = worst_dopp = 0.0
    for _ in range(10_000):
        d = rng.uniform(1.0, 20_000.0)
        fc = rng.uniform(0.4, 300.0)
        v = rng.uniform(-60.0, 60.0)
        fspl_oracle = 32.4 + 10.0 * math.log10(d * d) + 20.0 * math.log10(fc)
        dopp_oracle = v / (299_792_458.0 / (fc * 1e9))
        worst_fspl = max(worst_fspl, abs(fspl_db(d, fc) - fspl_oracle))
        worst_dopp = max(worst_dopp, abs(doppler_shift(v, fc) - dopp_oracle))

    worst_orth = worst_parseval = 0.0
    rng = random.Random(7)
    for arr in (ArrayConfig(8, 8), ArrayConfig(4, 4), ArrayConfig(2, 2)):
        beams = dft_codebook(arr)
        for i, a in enumerate(beams):
            for b in beams[i + 1:]:
                worst_orth = max(worst_orth, abs(np.vdot(a.weights, b.weights)))
        for _ in range(5):
            geom = Geometry(
                azimuth=rng.uniform(-3.0, 3.0), elevation=rng.uniform(-1.5, 1.5)
            )
            v = steering_vector(arr, geom)
            total = sum(arr.size * abs(np.vdot(b.weights, v)) ** 2 for b in beams)
            worst_parseval = max(worst_parseval, abs(total - arr.size))

    ok = worst_fspl < 1e-9 and worst_dopp < 1e-6 and worst_orth < 1e-9 and worst_parseval < 1e-9
    report(8, ok, f"fspl err {worst_fspl:.1e} dB (< 1e-9), doppler err {worst_dopp:.1e} Hz (< 1e-6), "
                  f"orthogonality {worst_orth:.1e}, Parseval {worst_parseval:.1e} (< 1e-9)")
    assert worst_fspl < 1e-9
    assert worst_dopp < 1e-6
    assert worst_orth < 1e-9
    assert worst_parseval < 1e-9
