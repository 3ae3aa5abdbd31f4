import math
import random

import numpy as np
import pytest

from channel_oracle import (
    Geometry,
    beam_gain_db,
    best_beam,
    best_gain_db,
    dft_codebook,
    geometry_toward,
    key,
    steering_vector,
)
from uavlink.beamforming import (
    DEFAULT_UPDATE_PERIOD,
    GAIN_FLOOR_LINEAR,
    ArrayConfig,
    BeamTracker,
    array_basis,
    parse_antenna_combo,
)

BORESIGHT = Geometry(azimuth=0.0, elevation=0.0)


def cosine_arrays(*geoms):
    """Each geometry's two direction cosines as one-element arrays."""
    return [tuple(np.array([c]) for c in g.cosines()) for g in geoms]


def gains_db(tracker, t, bs_geom, uav_geom):
    """(tx, rx) gains in dB of the tracked pair, from one query at time ``t``."""
    tx, rx = tracker.gains_at_cosines(np.array([t]), *cosine_arrays(bs_geom, uav_geom))
    return tuple(10 * math.log10(max(g[0], GAIN_FLOOR_LINEAR)) for g in (tx, rx))


def refreshed_pair_and_gains(bs, uav, bs_geom, uav_geom):
    """The pair a new tracker selects at its first query, and its (tx, rx) gains in dB."""
    tracker = BeamTracker(bs, uav)
    gains = gains_db(tracker, 0.0, bs_geom, uav_geom)
    return tracker.pair, gains


def random_geometry(rng) -> Geometry:
    return Geometry(
        azimuth=rng.uniform(-math.pi * 0.999, math.pi),
        elevation=rng.uniform(-math.pi / 2, math.pi / 2),
    )


class TestSteeringVector:
    def test_boresight_is_uniform(self):
        arr = ArrayConfig(8, 8)
        v = steering_vector(arr, BORESIGHT)
        assert np.allclose(v, 1.0 / 8.0)

    def test_unit_norm(self):
        rng = random.Random(1)
        for arr in (ArrayConfig(8, 8), ArrayConfig(4, 4), ArrayConfig(2, 1), ArrayConfig(1, 1)):
            for _ in range(20):
                v = steering_vector(arr, random_geometry(rng))
                assert np.sum(np.abs(v) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_two_element_phases(self):
        # 2x1 array, half-wavelength spacing, endfire azimuth: phases 0 and pi.
        arr = ArrayConfig(2, 1)
        v = steering_vector(arr, Geometry(azimuth=math.pi / 2, elevation=0.0))
        phases = np.angle(v)
        assert phases[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(phases[1]) == pytest.approx(math.pi, abs=1e-12)


class TestCodebook:
    def test_size_matches_elements(self):
        assert len(dft_codebook(ArrayConfig(64, 1))) == 64
        assert len(dft_codebook(ArrayConfig(8, 8))) == 64
        assert len(dft_codebook(ArrayConfig(4, 4))) == 16

    def test_degenerate_single_element(self):
        (beam,) = dft_codebook(ArrayConfig(1, 1))
        assert beam.weights.shape == (1,)
        assert beam.weights[0] == pytest.approx(1.0)

    def test_mutual_orthogonality(self):
        beams = dft_codebook(ArrayConfig(4, 4))
        for i, a in enumerate(beams):
            for b in beams[i + 1 :]:
                assert abs(np.vdot(a.weights, b.weights)) < 1e-9
            assert np.vdot(a.weights, a.weights).real == pytest.approx(1.0, abs=1e-12)

    def test_parseval_sum_over_codebook(self):
        # Linear gains over the whole codebook sum to N at any geometry.
        rng = random.Random(2)
        for arr in (ArrayConfig(8, 8), ArrayConfig(4, 4), ArrayConfig(2, 2)):
            for _ in range(10):
                geom = random_geometry(rng)
                v = steering_vector(arr, geom)
                total = sum(
                    arr.size * abs(np.vdot(b.weights, v)) ** 2 for b in dft_codebook(arr)
                )
                assert total == pytest.approx(arr.size, abs=1e-9)


class TestBeamGain:
    def test_matched_beam_hits_10log10_n(self):
        for n_h, n_v, expect in ((8, 8, 18.06179973983887), (4, 4, 12.041199826559248)):
            arr = ArrayConfig(n_h, n_v)
            beams = dft_codebook(arr)
            assert beam_gain_db(arr, beams[0], BORESIGHT) == pytest.approx(expect, abs=1e-9)

    def test_peak_gain_bound(self):
        rng = random.Random(3)
        for arr in (ArrayConfig(8, 8), ArrayConfig(4, 4)):
            cap = 10 * math.log10(arr.size)
            for _ in range(50):
                geom = random_geometry(rng)
                for beam in dft_codebook(arr)[:: max(1, arr.size // 8)]:
                    assert beam_gain_db(arr, beam, geom) <= cap + 1e-6

    def test_orthogonal_beam_floor(self):
        arr = ArrayConfig(8, 8)
        beams = dft_codebook(arr)
        # Boresight is beam (0, 0)'s grid point; every other beam is a null there.
        assert beam_gain_db(arr, beams[5], BORESIGHT) <= -60.0

    def test_fast_path_matches_inner_product(self):
        # The tracker's per-slot kernel against N |<w, v>|^2 of its stored
        # pair, at a geometry other than the one the pair was refreshed at.
        rng = random.Random(4)
        for arr in (ArrayConfig(8, 8), ArrayConfig(4, 4), ArrayConfig(2, 2), ArrayConfig(1, 1),
                    ArrayConfig(3, 3), ArrayConfig(5, 1)):
            for _ in range(30):
                tracker = BeamTracker(arr, arr)
                tracker.gains_at_cosines(np.array([0.0]), *cosine_arrays(random_geometry(rng),
                                                                         random_geometry(rng)))
                bs_geom, uav_geom = random_geometry(rng), random_geometry(rng)
                tx, rx = tracker.gains_at_cosines(np.array([1e-3]),
                                                  *cosine_arrays(bs_geom, uav_geom))
                pair = tracker.pair
                for fast, beam, geom in ((tx[0], pair.tx_beam, uav_geom),
                                         (rx[0], pair.rx_beam, bs_geom)):
                    w = dft_codebook(arr)[beam.index].weights
                    direct = arr.size * abs(np.vdot(w, steering_vector(arr, geom))) ** 2
                    assert fast == pytest.approx(direct, abs=1e-9)


class TestBestBeamPair:
    def test_grid_point_combined_gain(self):
        bs, uav = parse_antenna_combo("64x16")
        pair, gains = refreshed_pair_and_gains(bs, uav, BORESIGHT, BORESIGHT)
        assert key(pair.tx_beam) == key(best_beam(uav, BORESIGHT)) == 0
        assert key(pair.rx_beam) == key(best_beam(bs, BORESIGHT)) == 0
        assert sum(gains) == pytest.approx(30.10299956639812, abs=1e-9)

    def test_combined_gain_gap_between_combos(self):
        bs64, uav16 = parse_antenna_combo("64x16")
        bs16, uav4 = parse_antenna_combo("16x4")
        _, big = refreshed_pair_and_gains(bs64, uav16, BORESIGHT, BORESIGHT)
        _, small = refreshed_pair_and_gains(bs16, uav4, BORESIGHT, BORESIGHT)
        assert sum(small) == pytest.approx(18.06179973983887, abs=1e-9)
        assert sum(big) - sum(small) == pytest.approx(12.041199826559248, abs=1e-9)

    def test_single_beam_arrays(self):
        one = ArrayConfig(1, 1)
        pair, gains = refreshed_pair_and_gains(one, one, BORESIGHT, BORESIGHT)
        assert key(pair.tx_beam) == key(pair.rx_beam) == key(best_beam(one, BORESIGHT))
        assert sum(gains) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        rng = random.Random(5)
        bs, uav = parse_antenna_combo("16x4")
        for _ in range(25):
            bg, ug = random_geometry(rng), random_geometry(rng)
            p1, _ = refreshed_pair_and_gains(bs, uav, bg, ug)
            p2, _ = refreshed_pair_and_gains(bs, uav, bg, ug)
            assert (p1.tx_beam.index, p1.rx_beam.index) == (p2.tx_beam.index, p2.rx_beam.index)

    def test_beats_every_other_pair(self):
        # The oracle's argmax over every codebook beam pins the tracker's
        # nearest-bin refresh, also for odd arrays.
        rng = random.Random(6)
        combos = (
            (ArrayConfig(2, 2), ArrayConfig(2, 1)),
            (ArrayConfig(8, 8), ArrayConfig(4, 4)),
            (ArrayConfig(3, 3), ArrayConfig(5, 1)),
            (ArrayConfig(5, 1), ArrayConfig(3, 3)),
        )
        for bs, uav in combos:
            for _ in range(10):
                bg, ug = random_geometry(rng), random_geometry(rng)
                pair, (tx_db, rx_db) = refreshed_pair_and_gains(bs, uav, bg, ug)
                assert key(pair.tx_beam) == key(best_beam(uav, ug))
                assert key(pair.rx_beam) == key(best_beam(bs, bg))
                assert tx_db == pytest.approx(best_gain_db(uav, ug), abs=1e-9)
                assert rx_db == pytest.approx(best_gain_db(bs, bg), abs=1e-9)

    def test_half_bin_tie_rounds_half_to_even(self):
        # n * SPACING * cos = +-0.5 and +-1.5 on a 4x1 array: two beams tie and
        # the even bin, taken mod 4, wins.
        arr = ArrayConfig(4, 1)
        tracker = BeamTracker(arr, arr)
        for t, bs_c, uav_c, expect, rx_tied in (
            (0.0, 0.25, 0.75, (0, 2), 1),
            (DEFAULT_UPDATE_PERIOD, -0.25, -0.75, (0, 2), 3),
        ):
            _, rx_lin = tracker.gains_at_cosines(np.array([t]), (np.array([bs_c]), np.zeros(1)),
                                                 (np.array([uav_c]), np.zeros(1)))
            assert (tracker.pair.rx_beam.index, tracker.pair.tx_beam.index) == expect
            geom = Geometry(azimuth=math.asin(bs_c), elevation=0.0)
            tied = beam_gain_db(arr, dft_codebook(arr)[rx_tied], geom)
            assert tied == pytest.approx(10 * math.log10(rx_lin[0]), abs=1e-9)


class TestTracker:
    def test_refresh_matches_best_pair(self):
        # One tracker over successive epochs, each at a new geometry: every
        # refresh lands on the oracle's brute-force argmax per side.
        rng = random.Random(9)
        for bs, uav in (parse_antenna_combo("64x16"),
                        (ArrayConfig(3, 3), ArrayConfig(5, 1)),
                        (ArrayConfig(5, 1), ArrayConfig(3, 3))):
            tracker = BeamTracker(bs, uav)
            for epoch in range(12):
                bs_geom, uav_geom = random_geometry(rng), random_geometry(rng)
                tx_db, rx_db = gains_db(tracker, epoch * DEFAULT_UPDATE_PERIOD, bs_geom, uav_geom)
                assert key(tracker.pair.tx_beam) == key(best_beam(uav, uav_geom))
                assert key(tracker.pair.rx_beam) == key(best_beam(bs, bs_geom))
                assert tx_db == pytest.approx(best_gain_db(uav, uav_geom), abs=1e-9)
                assert rx_db == pytest.approx(best_gain_db(bs, bs_geom), abs=1e-9)

    def test_static_geometry_constant_between_updates(self):
        bs, uav = parse_antenna_combo("16x4")
        tracker = BeamTracker(bs, uav)
        geom = Geometry(azimuth=0.1, elevation=0.05)
        g0 = gains_db(tracker, 0.0, geom, BORESIGHT)
        for t in (1e-3, 2.5e-3, 4.9e-3):
            assert gains_db(tracker, t, geom, BORESIGHT) == g0

    def test_stale_pair_loses_then_recovers(self):
        # Crossing most of a beamwidth between updates: stale gain dips, the
        # next 5 ms boundary restores the refreshed value.
        bs, uav = ArrayConfig(8, 8), ArrayConfig(1, 1)
        tracker = BeamTracker(bs, uav)
        half_beam = Geometry(azimuth=math.asin(1.5 / 8.0), elevation=0.0)
        _, fresh_rx = gains_db(tracker, 0.0, BORESIGHT, BORESIGHT)
        _, stale_rx = gains_db(tracker, 4.9e-3, half_beam, BORESIGHT)
        assert stale_rx < fresh_rx - 3.0
        _, re_rx = gains_db(tracker, 5e-3, half_beam, BORESIGHT)
        assert re_rx == pytest.approx(best_gain_db(bs, half_beam), abs=1e-9)
        assert re_rx > stale_rx

    def test_tracked_never_beats_refreshed(self):
        rng = random.Random(7)
        bs, uav = parse_antenna_combo("16x4")
        t = np.arange(1, 401) * 1e-3
        az, el, geoms = 0.0, 0.0, []
        for _ in t:
            az = max(-3.0, min(3.0, az + rng.uniform(-0.05, 0.05)))
            el = max(-1.4, min(1.4, el + rng.uniform(-0.02, 0.02)))
            geoms.append(Geometry(azimuth=az, elevation=el))
        cos = np.array([g.cosines() for g in geoms]).T
        tx, rx = BeamTracker(bs, uav).gains_at_cosines(t, cos, cos)
        for g_tx, g_rx, geom in zip(tx, rx, geoms):
            best = best_gain_db(uav, geom) + best_gain_db(bs, geom)
            assert 10 * math.log10(g_tx * g_rx) <= best + 1e-9

    def test_array_queries_match_scalar_calls(self):
        # Two array calls (the second starts mid-epoch, so the pair carries
        # over) against one call per query.
        rng = np.random.default_rng(3)
        bs, uav = parse_antenna_combo("16x4")
        t = np.sort(rng.uniform(0.0, 0.05, 600))
        t[100:110] = t[100]
        cos = rng.uniform(-1.0, 1.0, (4, 600))
        arrays, scalars = BeamTracker(bs, uav), BeamTracker(bs, uav)
        got = np.hstack([arrays.gains_at_cosines(t[a:b], cos[:2, a:b], cos[2:, a:b])
                         for a, b in ((0, 250), (250, 600))])
        expect = np.hstack([scalars.gains_at_cosines(t[i:i + 1], cos[:2, i:i + 1], cos[2:, i:i + 1])
                            for i in range(600)])
        assert np.array_equal(got, expect)
        assert arrays.pair == scalars.pair


class TestPlumbing:
    def test_parse_antenna_combo(self):
        bs, uav = parse_antenna_combo("64x16")
        assert (bs.n_h, bs.n_v) == (8, 8)
        assert (uav.n_h, uav.n_v) == (4, 4)
        bs2, uav2 = parse_antenna_combo("16x4")
        assert (bs2.n_h, bs2.n_v) == (4, 4)
        assert (uav2.n_h, uav2.n_v) == (2, 2)

    def test_parse_antenna_combo_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_antenna_combo("64by16")
        with pytest.raises(ValueError):
            parse_antenna_combo("0x4")

    def test_array_basis_orthonormal(self):
        rng = random.Random(8)
        for _ in range(50):
            b = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            if all(abs(c) < 1e-3 for c in b):
                continue
            ex, ey, ez = array_basis(b)
            for u in (ex, ey, ez):
                assert sum(c * c for c in u) == pytest.approx(1.0, abs=1e-12)
            assert sum(a * b_ for a, b_ in zip(ex, ey)) == pytest.approx(0.0, abs=1e-12)
            assert sum(a * b_ for a, b_ in zip(ex, ez)) == pytest.approx(0.0, abs=1e-12)
            assert sum(a * b_ for a, b_ in zip(ey, ez)) == pytest.approx(0.0, abs=1e-12)

    def test_geometry_toward_boresight(self):
        basis = array_basis((1.0, 0.0, 0.0))
        geom = geometry_toward(basis, (5.0, 0.0, 0.0))
        assert geom.azimuth == pytest.approx(0.0, abs=1e-12)
        assert geom.elevation == pytest.approx(0.0, abs=1e-12)
