import csv
import io
import math

import numpy as np
import pytest

from channel_oracle import interp_positions
from uavlink.missions import MissionArchetype, synth_trace
from uavlink.mobility import (
    TRACE_CSV_HEADER,
    FlightTrace,
    GeoPoint,
    TraceParseError,
    TrajectorySampler,
    decimate,
    latlon_to_xy,
    parse_trace,
    read_trace_csv,
    write_trace_csv,
    xy_to_latlon,
)


def make_trace(points):
    """A trace through ``points`` (t, x, y, z)."""
    return FlightTrace(GeoPoint(0.0, 30.0, 0.0, points[0][3]), *zip(*points))


def same_columns(a, b):
    return all(np.array_equal(getattr(a, c), getattr(b, c)) for c in "txyz")


class TestProjection:
    def test_identity_at_origin(self):
        ref = GeoPoint(0.0, 30.0, -97.0, 10.0)
        assert latlon_to_xy(ref, ref) == (0.0, 0.0)

    def test_latitude_scale_is_111km(self):
        ref = GeoPoint(0.0, 30.0, 0.0, 0.0)
        p = GeoPoint(1.0, 30.001, 0.0, 0.0)
        x, y = latlon_to_xy(p, ref)
        assert y == pytest.approx(111.0, abs=1e-9)
        assert x == 0.0

    def test_longitude_scaled_by_cos_lat(self):
        ref = GeoPoint(0.0, 30.0, 0.0, 0.0)
        p = GeoPoint(1.0, 30.0, 0.001, 0.0)
        x, y = latlon_to_xy(p, ref)
        # 111000 * cos(30 deg) * 0.001
        assert x == pytest.approx(96.12881982007269, abs=1e-9)
        assert y == 0.0

    def test_geopoint_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 91.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 0.0, 181.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 0.0, 0.0, -1.0)


class TestParseTrace:
    def test_two_rows(self):
        rows = [
            {"t_s": "0", "lat_deg": "30.0", "lon_deg": "0.0", "alt_m": "12.5"},
            {"t_s": "1", "lat_deg": "30.001", "lon_deg": "0.0", "alt_m": "13.0"},
        ]
        trace = parse_trace(rows)
        assert len(trace.t) == 2
        assert (trace.x[0], trace.y[0], trace.z[0]) == (0.0, 0.0, 12.5)

    def test_duplicate_timestamp_rejected(self):
        rows = [
            {"t_s": "1", "lat_deg": "30.0", "lon_deg": "0.0", "alt_m": "5"},
            {"t_s": "1", "lat_deg": "30.001", "lon_deg": "0.0", "alt_m": "5"},
        ]
        with pytest.raises(TraceParseError, match="line 3"):
            parse_trace(rows)

    def test_malformed_row_reports_line(self):
        rows = [
            {"t_s": "0", "lat_deg": "30.0", "lon_deg": "0.0", "alt_m": "5"},
            {"t_s": "1", "lat_deg": "not-a-number", "lon_deg": "0.0", "alt_m": "5"},
        ]
        with pytest.raises(TraceParseError, match="line 3"):
            parse_trace(rows)

    def test_rows_match_projection_oracle(self):
        rows = [
            {"t_s": "0", "lat_deg": "30.0", "lon_deg": "-97.0", "alt_m": "20"},
            {"t_s": "5", "lat_deg": "30.002", "lon_deg": "-97.001", "alt_m": "25"},
            {"t_s": "9", "lat_deg": "29.999", "lon_deg": "-96.998", "alt_m": "30"},
        ]
        trace = parse_trace(rows)
        ref = GeoPoint(0.0, 30.0, -97.0, 20.0)
        for row, wx, wy in zip(rows, trace.x.tolist(), trace.y.tolist()):
            p = GeoPoint(float(row["t_s"]), float(row["lat_deg"]), float(row["lon_deg"]), 0.0)
            x, y = latlon_to_xy(p, ref)
            assert wx == pytest.approx(x, abs=1e-9)
            assert wy == pytest.approx(y, abs=1e-9)

    def test_csv_round_trip_preserves_relative_geometry(self, tmp_path):
        pts = [(0.0, 10.0, 20.0, 30.0), (1.0, 15.0, 18.0, 31.0), (2.5, -40.0, 90.0, 28.0)]
        trace = make_trace(pts)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        # Re-parsing anchors the frame at the first fix, so compare deltas.
        for i in range(len(pts)):
            dx0 = trace.x[i] - trace.x[0]
            dy0 = trace.y[i] - trace.y[0]
            assert back.x[i] == pytest.approx(dx0, abs=1e-2)
            assert back.y[i] == pytest.approx(dy0, abs=1e-2)
            assert back.z[i] == pytest.approx(trace.z[i], abs=1e-9)
            assert back.t[i] == trace.t[i]

    @pytest.mark.parametrize("column", ["t_s", "alt_m"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [0, 1])
    def test_non_finite_time_or_altitude_reports_line(self, column, value, row):
        rows = [
            {"t_s": "0", "lat_deg": "30.0", "lon_deg": "0.0", "alt_m": "5"},
            {"t_s": "1", "lat_deg": "30.001", "lon_deg": "0.0", "alt_m": "5"},
        ]
        rows[row][column] = value
        with pytest.raises(TraceParseError, match=f"^line {row + 2}: "):
            parse_trace(rows)

    def test_padded_header_parses_like_plain(self, tmp_path):
        body = "0,30.0,-97.0,20\n2.5,30.0001,-97.0002,22.5\n4,30.0003,-97.0001,21\n"
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        plain.write_text("t_s,lat_deg,lon_deg,alt_m\n" + body)
        padded.write_text(" t_s, lat_deg ,lon_deg,  alt_m \n" + body)
        a, b = read_trace_csv(plain), read_trace_csv(padded)
        assert a.origin == b.origin
        assert same_columns(a, b)

    def test_byte_order_mark_parses_like_plain(self, tmp_path):
        # A spreadsheet's UTF-8 export may start with a BOM.
        text = "t_s,lat_deg,lon_deg,alt_m\n0,30.0,-97.0,20\n2.5,30.0001,-97.0002,22.5\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        a, b = read_trace_csv(plain), read_trace_csv(bom)
        assert a.origin == b.origin
        assert same_columns(a, b)


class TestWriteTraceCsv:
    @pytest.mark.parametrize("source", ["synthesized", "parsed-decimated", "three-chunks"])
    def test_bytes_match_csv_writer(self, tmp_path, source):
        duration = 20_000.0 if source == "three-chunks" else 120.0  # 8192 rows a write
        trace = synth_trace(MissionArchetype("target_follow", duration=duration), seed=2)
        if source == "parsed-decimated":
            write_trace_csv(trace, tmp_path / "synth.csv")
            trace = decimate(read_trace_csv(tmp_path / "synth.csv"), 2.5)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        expect = io.StringIO(newline="")
        writer = csv.writer(expect)
        writer.writerow(TRACE_CSV_HEADER)
        for t, x, y, z in zip(*(c.tolist() for c in (trace.t, trace.x, trace.y, trace.z))):
            lat, lon = xy_to_latlon(x, y, trace.origin)
            writer.writerow([repr(t), repr(lat), repr(lon), repr(z)])
        assert path.read_bytes() == expect.getvalue().encode()


class TestDecimate:
    def test_wide_spacing_keeps_everything(self):
        trace = make_trace([(float(t), float(t), 0.0, 5.0) for t in range(5)])
        out = decimate(trace, 0.5)
        assert same_columns(out, trace)

    def test_greedy_rule_on_regular_grid(self):
        trace = make_trace([(float(t), float(t), 0.0, 5.0) for t in range(11)])
        out = decimate(trace, 2.0)
        assert out.t.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_two_point_trace_unchanged(self):
        trace = make_trace([(0.0, 0.0, 0.0, 5.0), (0.5, 1.0, 0.0, 5.0)])
        assert same_columns(decimate(trace, 100.0), trace)

    def test_idempotent(self):
        times = [0.0, 0.4, 1.1, 1.5, 2.9, 3.0, 5.5, 6.1, 9.0]
        trace = make_trace([(t, t * 2, -t, 5.0) for t in times])
        once = decimate(trace, 1.7)
        twice = decimate(once, 1.7)
        assert same_columns(once, twice)

    @pytest.mark.parametrize("spacing", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_spacing_rejected(self, spacing):
        # Every `>= nan` test is False: a NaN spacing would keep only the end waypoints.
        trace = make_trace([(float(t), float(t), 0.0, 5.0) for t in range(5)])
        with pytest.raises(ValueError, match="min_spacing must be positive and finite"):
            decimate(trace, spacing)


def sampled_state(trace, t):
    """(position, velocity) at one time, each a tuple, from TrajectorySampler.track."""
    pos, vel = TrajectorySampler(trace).track(np.array([t]))
    return tuple(pos[:, 0].tolist()), tuple(vel[:, 0].tolist())


class TestStateAt:
    segment_trace = make_trace([(0.0, 0.0, 0.0, 10.0), (10.0, 100.0, 0.0, 10.0)])

    def test_waypoint_hit(self):
        trace = make_trace([(0.0, 1.0, 2.0, 3.0), (4.0, 5.0, 6.0, 7.0), (6.0, 0.0, 0.0, 1.0)])
        position, _ = sampled_state(trace, 4.0)
        assert position == (5.0, 6.0, 7.0)

    def test_linear_interpolation(self):
        assert sampled_state(self.segment_trace, 5.0) == ((50.0, 0.0, 10.0), (10.0, 0.0, 0.0))

    def test_clamp_after_end(self):
        assert sampled_state(self.segment_trace, 11.0) == ((100.0, 0.0, 10.0), (0.0, 0.0, 0.0))

    def test_clamp_before_start(self):
        trace = make_trace([(5.0, 1.0, 1.0, 1.0), (6.0, 2.0, 2.0, 2.0)])
        assert sampled_state(trace, 0.0) == ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))

    def test_position_continuity(self):
        times = [0.0, 1.0, 2.5, 4.0, 7.0]
        trace = make_trace([(t, math.sin(t), math.cos(t), 5.0 + t) for t in times])
        eps = 1e-7
        for t in [0.0, 0.5, 1.0, 2.5, 3.999, 4.0, 6.9, 7.0, 8.0]:
            a, _ = sampled_state(trace, max(t - eps, 0.0))
            b, _ = sampled_state(trace, t + eps)
            for ai, bi in zip(a, b):
                assert abs(ai - bi) < 1e-5

    def test_speed_matches_finite_differences(self):
        times = [0.0, 1.0, 3.0, 3.5, 10.0]
        trace = make_trace([(t, 3 * t, -2 * t + 1, 5.0 + 0.1 * t) for t in times])
        h = 1e-6
        for t in [0.5, 2.0, 3.2, 7.0]:
            _, velocity = sampled_state(trace, t)
            pa, _ = sampled_state(trace, t - h)
            pb, _ = sampled_state(trace, t + h)
            fd = [(b - a) / (2 * h) for a, b in zip(pa, pb)]
            for v, f in zip(velocity, fd):
                assert v == pytest.approx(f, abs=1e-5)

    def test_segment_speed_is_length_over_duration(self):
        times = [0.0, 2.0, 5.0]
        trace = make_trace([(0.0, 0.0, 0.0, 1.0), (2.0, 3.0, 4.0, 1.0), (5.0, 3.0, 4.0, 13.0)])
        _, velocity = sampled_state(trace, 1.0)
        seg_len = math.sqrt(3.0**2 + 4.0**2)
        speed = math.sqrt(sum(v * v for v in velocity))
        assert speed == pytest.approx(seg_len / 2.0, abs=1e-12)

    def test_sampler_matches_np_interp(self):
        times = [0.5, 1.0, 2.5, 4.0, 7.0]
        trace = make_trace([(t, math.sin(t), math.cos(t), 5.0 + t) for t in times])
        sampler = TrajectorySampler(trace)
        # Before the first waypoint, on each waypoint, between them and past the last.
        queries = [0.0, 0.3, 0.5, 0.9, 1.0, 1.0, 1.7, 2.5, 3.0, 4.0, 5.5, 7.0, 8.0]
        expect = interp_positions(trace, queries)
        rows = [sampler.segment(t) for t in reversed(queries)][::-1]  # in any order
        for i, (t, (t0, x0, y0, z0, vx, vy, vz, t_end)) in enumerate(zip(queries, rows)):
            assert t < t_end
            x, y, z = x0 + vx * (t - t0), y0 + vy * (t - t0), z0 + vz * (t - t0)
            assert (x, y, z) == pytest.approx(expect[:, i].tolist(), abs=1e-12)
            # The velocity is the slope of the waypoint pair around t, zero outside.
            k = sum(wt <= t for wt in times)
            slope = ((0.0,) * 3 if k in (0, len(times)) else
                     tuple((c[k] - c[k - 1]) / (times[k] - times[k - 1])
                           for c in (trace.x, trace.y, trace.z)))
            assert (vx, vy, vz) == pytest.approx(slope, abs=1e-12)
        # track equals the rows, over chunks queried out of order across calls.
        q = np.array(queries)
        for chunks in ([slice(0, 13)], [slice(6, 13), slice(0, 3), slice(3, 6), slice(0, 0)]):
            for sl in chunks:
                pos, vel = sampler.track(q[sl])
                want = [(x0 + vx * (t - t0), y0 + vy * (t - t0), z0 + vz * (t - t0), vx, vy, vz)
                        for t, (t0, x0, y0, z0, vx, vy, vz, _) in zip(queries[sl], rows[sl])]
                assert list(zip(*pos.tolist(), *vel.tolist())) == want
                assert np.abs(pos - expect[:, sl]).max(initial=0.0) < 1e-12


def test_sampler_reads_the_trace_velocity():
    # 3.0 / 0.9 and 3.0 * (1 / 0.9) differ in the last bit, so a second velocity
    # formula in the sampler would show.
    trace = make_trace([(0.0, 0.0, 0.0, 1.0), (0.9, 3.0, -2.0, 1.5), (1.7, 3.7, 0.5, 1.0)])
    sampler = TrajectorySampler(trace)
    rows = [sampler.segment(t) for t in (0.1, 1.0)]
    assert [row[4:7] for row in rows] == [tuple(v) for v in trace.v.T.tolist()]
    slopes = [[3.0 / 0.9, 0.7 / 0.8], [-2.0 / 0.9, 2.5 / 0.8], [0.5 / 0.9, -0.5 / 0.8]]
    assert np.abs(trace.v - slopes).max() < 1e-12


def test_trace_needs_two_points():
    with pytest.raises(ValueError):
        FlightTrace(GeoPoint(0, 30, 0, 0), t=(0,), x=(0,), y=(0,), z=(0,))
