import math
import random

import numpy as np
import pytest

from uavlink.beamforming import (
    DEFAULT_UPDATE_PERIOD,
    ArrayConfig,
    BeamTracker,
    Geometry,
    array_basis,
    beam_gain_db,
    best_beam_pair,
    dft_codebook,
    geometry_toward,
    parse_antenna_combo,
    steering_vector,
)

BORESIGHT = Geometry(azimuth=0.0, elevation=0.0)


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
                    ArrayConfig(3, 3, 0.7), ArrayConfig(5, 1, 0.3)):
            for _ in range(30):
                tracker = BeamTracker(arr, arr)
                tracker.gains_at_cosines(0.0, random_geometry(rng).cosines(),
                                         random_geometry(rng).cosines())
                bs_geom, uav_geom = random_geometry(rng), random_geometry(rng)
                tx, rx = tracker.gains_at_cosines(1e-3, bs_geom.cosines(), uav_geom.cosines())
                pair = tracker.pair
                for fast, beam, geom in ((tx, pair.tx_beam, uav_geom), (rx, pair.rx_beam, bs_geom)):
                    direct = arr.size * abs(np.vdot(beam.weights, steering_vector(arr, geom))) ** 2
                    assert fast == pytest.approx(direct, abs=1e-9)


class TestBestBeamPair:
    def test_grid_point_combined_gain(self):
        bs, uav = parse_antenna_combo("64x16")
        pair = best_beam_pair(bs, uav, BORESIGHT, BORESIGHT, 0.0)
        total = beam_gain_db(uav, pair.tx_beam, BORESIGHT) + beam_gain_db(
            bs, pair.rx_beam, BORESIGHT
        )
        assert total == pytest.approx(30.10299956639812, abs=1e-9)

    def test_combined_gain_gap_between_combos(self):
        bs64, uav16 = parse_antenna_combo("64x16")
        bs16, uav4 = parse_antenna_combo("16x4")
        big = best_beam_pair(bs64, uav16, BORESIGHT, BORESIGHT, 0.0)
        small = best_beam_pair(bs16, uav4, BORESIGHT, BORESIGHT, 0.0)
        g_big = beam_gain_db(uav16, big.tx_beam, BORESIGHT) + beam_gain_db(
            bs64, big.rx_beam, BORESIGHT
        )
        g_small = beam_gain_db(uav4, small.tx_beam, BORESIGHT) + beam_gain_db(
            bs16, small.rx_beam, BORESIGHT
        )
        assert g_small == pytest.approx(18.06179973983887, abs=1e-9)
        assert g_big - g_small == pytest.approx(12.041199826559248, abs=1e-9)

    def test_single_beam_arrays(self):
        one = ArrayConfig(1, 1)
        pair = best_beam_pair(one, one, BORESIGHT, BORESIGHT, 0.0)
        total = beam_gain_db(one, pair.tx_beam, BORESIGHT) + beam_gain_db(
            one, pair.rx_beam, BORESIGHT
        )
        assert total == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        rng = random.Random(5)
        bs, uav = parse_antenna_combo("16x4")
        for _ in range(25):
            bg, ug = random_geometry(rng), random_geometry(rng)
            p1 = best_beam_pair(bs, uav, bg, ug, 0.0)
            p2 = best_beam_pair(bs, uav, bg, ug, 0.0)
            assert (p1.tx_beam.index, p1.rx_beam.index) == (p2.tx_beam.index, p2.rx_beam.index)

    def test_beats_every_other_pair(self):
        # Brute force over every tx/rx pair pins the closed-form search, also
        # for odd arrays and spacings other than half a wavelength.
        rng = random.Random(6)
        combos = (
            (ArrayConfig(2, 2), ArrayConfig(2, 1)),
            (ArrayConfig(8, 8), ArrayConfig(4, 4)),
            (ArrayConfig(3, 3, 0.7), ArrayConfig(5, 1, 0.3)),
            (ArrayConfig(5, 1, 0.3), ArrayConfig(3, 3, 0.7)),
        )
        for bs, uav in combos:
            for _ in range(10):
                bg, ug = random_geometry(rng), random_geometry(rng)
                pair = best_beam_pair(bs, uav, bg, ug, 0.0)
                best = beam_gain_db(uav, pair.tx_beam, ug) + beam_gain_db(bs, pair.rx_beam, bg)
                rx_gains = [beam_gain_db(bs, rb, bg) for rb in dft_codebook(bs)]
                for tb in dft_codebook(uav):
                    tx_gain = beam_gain_db(uav, tb, ug)
                    for rx_gain in rx_gains:
                        assert tx_gain + rx_gain <= best + 1e-9

    def test_half_bin_tie_rounds_half_to_even(self):
        # n * spacing * cos = +-0.5 and +-1.5 on a 4x1 array: two beams tie and
        # the even bin, taken mod 4, wins.
        arr = ArrayConfig(4, 1)
        tracker = BeamTracker(arr, arr)
        for t, bs_c, uav_c, expect, rx_tied in (
            (0.0, 0.25, 0.75, (0, 2), 1),
            (DEFAULT_UPDATE_PERIOD, -0.25, -0.75, (0, 2), 3),
        ):
            _, rx_lin = tracker.gains_at_cosines(t, (bs_c, 0.0), (uav_c, 0.0))
            assert (tracker.pair.rx_beam.k, tracker.pair.tx_beam.k) == expect
            geom = Geometry(azimuth=math.asin(bs_c), elevation=0.0)
            tied = beam_gain_db(arr, dft_codebook(arr)[rx_tied], geom)
            assert tied == pytest.approx(10 * math.log10(rx_lin), abs=1e-9)


class TestTracker:
    def test_refresh_matches_best_pair(self):
        bs, uav = parse_antenna_combo("64x16")
        tracker = BeamTracker(bs, uav)
        geom = Geometry(azimuth=0.3, elevation=-0.2)
        tx_db, rx_db = tracker.gains_at(0.0, geom, BORESIGHT)
        pair = best_beam_pair(bs, uav, geom, BORESIGHT, 0.0)
        expect_tx = beam_gain_db(uav, pair.tx_beam, BORESIGHT)
        expect_rx = beam_gain_db(bs, pair.rx_beam, geom)
        assert tx_db == pytest.approx(expect_tx, abs=1e-9)
        assert rx_db == pytest.approx(expect_rx, abs=1e-9)

    def test_static_geometry_constant_between_updates(self):
        bs, uav = parse_antenna_combo("16x4")
        tracker = BeamTracker(bs, uav)
        geom = Geometry(azimuth=0.1, elevation=0.05)
        g0 = tracker.gains_at(0.0, geom, BORESIGHT)
        for t in (1e-3, 2.5e-3, 4.9e-3):
            assert tracker.gains_at(t, geom, BORESIGHT) == g0

    def test_stale_pair_loses_then_recovers(self):
        # Crossing most of a beamwidth between updates: stale gain dips, the
        # next 5 ms boundary restores the refreshed value.
        bs, uav = ArrayConfig(8, 8), ArrayConfig(1, 1)
        tracker = BeamTracker(bs, uav)
        start = BORESIGHT
        half_beam = Geometry(azimuth=math.asin(1.5 / 8.0), elevation=0.0)
        fresh_tx, fresh_rx = tracker.gains_at(0.0, start, BORESIGHT)
        stale_tx, stale_rx = tracker.gains_at(4.9e-3, half_beam, BORESIGHT)
        assert stale_rx < fresh_rx - 3.0
        re_tx, re_rx = tracker.gains_at(5e-3, half_beam, BORESIGHT)
        pair = best_beam_pair(bs, uav, half_beam, BORESIGHT, 0.0)
        assert re_rx == pytest.approx(beam_gain_db(bs, pair.rx_beam, half_beam), abs=1e-9)
        assert re_rx > stale_rx

    def test_tracked_never_beats_refreshed(self):
        rng = random.Random(7)
        bs, uav = parse_antenna_combo("16x4")
        tracker = BeamTracker(bs, uav)
        t = 0.0
        az, el = 0.0, 0.0
        for _ in range(400):
            t += 1e-3
            az += rng.uniform(-0.05, 0.05)
            el += rng.uniform(-0.02, 0.02)
            az = max(-3.0, min(3.0, az))
            el = max(-1.4, min(1.4, el))
            geom = Geometry(azimuth=az, elevation=el)
            tx_db, rx_db = tracker.gains_at(t, geom, geom)
            pair = best_beam_pair(bs, uav, geom, geom, t)
            best = beam_gain_db(uav, pair.tx_beam, geom) + beam_gain_db(bs, pair.rx_beam, geom)
            assert tx_db + rx_db <= best + 1e-9

    def test_selected_at_is_period_multiple(self):
        bs, uav = parse_antenna_combo("16x4")
        tracker = BeamTracker(bs, uav)
        geom = Geometry(azimuth=0.2, elevation=0.0)
        tracker.gains_at(0.0, geom, BORESIGHT)
        tracker.gains_at(0.0123, geom, BORESIGHT)
        ratio = tracker.pair.selected_at / tracker.update_period
        assert ratio == pytest.approx(round(ratio), abs=1e-9)


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
