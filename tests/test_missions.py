import math
import tracemalloc

import numpy as np
import pytest

from uavlink.missions import (
    MISSION_KINDS,
    WAYPOINT_BYTES,
    MissionArchetype,
    archetype_by_name,
    synth_trace,
)
from uavlink.mobility import TrajectorySampler, write_trace_csv


class TestArchetypeValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MissionArchetype(kind="hover_in_place")

    def test_rejects_excessive_speed(self):
        with pytest.raises(ValueError):
            MissionArchetype(kind="overwatch_orbit", speed=25.0)

    def test_rejects_nonpositive_area(self):
        with pytest.raises(ValueError):
            MissionArchetype(kind="perimeter_patrol", area=0.0)

    def test_name_lookup_accepts_dashes(self):
        arch = archetype_by_name("search-lawnmower")
        assert arch.kind == "search_lawnmower"


class TestSynthTrace:
    @pytest.mark.parametrize("kind", MISSION_KINDS)
    def test_trace_invariants_hold(self, kind):
        arch = MissionArchetype(kind=kind, duration=90.0)
        trace = synth_trace(arch, seed=3)
        times = trace.t.tolist()
        assert len(times) >= 2
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(z == arch.altitude for z in trace.z.tolist())

    @pytest.mark.parametrize("kind", MISSION_KINDS)
    def test_speed_within_envelope(self, kind):
        arch = MissionArchetype(kind=kind, duration=60.0, speed=5.0)
        trace = synth_trace(arch, seed=4)
        t = trace.t.tolist()
        xyz = np.array([trace.x, trace.y, trace.z]).T.tolist()
        for i in range(len(t) - 1):
            d = math.dist(xyz[i], xyz[i + 1])
            # Straight-line waypoint spacing never exceeds the flight speed.
            assert d <= arch.speed * (t[i + 1] - t[i]) + 1e-9

    def test_orbit_geometry_and_period(self):
        radius = 100.0
        arch = MissionArchetype(
            kind="overwatch_orbit", area=math.pi * radius**2, speed=5.0, duration=300.0
        )
        trace = synth_trace(arch, seed=0)
        omega = arch.speed / radius
        for i, (x, y) in enumerate(zip(trace.x[:50].tolist(), trace.y[:50].tolist())):
            assert math.hypot(x, y) == pytest.approx(radius, abs=1e-9)
            assert x == pytest.approx(radius * math.cos(omega * i), abs=1e-9)
            assert y == pytest.approx(radius * math.sin(omega * i), abs=1e-9)
        # One lap takes 2 pi r / v seconds.
        period = 2 * math.pi * radius / arch.speed
        assert period == pytest.approx(125.66370614359172, abs=1e-9)
        start, after_lap = TrajectorySampler(trace).track(np.array([0.0, period]))[0].T
        assert math.dist(start, after_lap) < 0.2  # chord interpolation slack

    @pytest.mark.parametrize("kind", MISSION_KINDS)
    def test_peak_memory_per_waypoint_within_budget(self, kind, tmp_path):
        # WAYPOINT_BYTES sizes the refusal of a trace larger than memory, so it
        # must cover the peak of synth-trace's synthesis and writing, not just the
        # trace it keeps; and no per-waypoint Python objects (a list of (x, y)
        # tuples, or of the written floats) push that peak to three times the trace.
        arch = MissionArchetype(kind=kind, duration=50_000.0)
        tracemalloc.start()
        try:
            trace = synth_trace(arch, seed=2)
            kept, _ = tracemalloc.get_traced_memory()
            write_trace_csv(trace, tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(trace.t) <= WAYPOINT_BYTES
        assert peak <= 2 * kept

    def test_zero_duration_degenerates_to_two_points(self):
        arch = MissionArchetype(kind="target_follow", duration=0.0)
        trace = synth_trace(arch, seed=9)
        assert len(trace.t) == 2
        assert trace.t[1] - trace.t[0] == pytest.approx(1e-3)
        assert (trace.x[0], trace.y[0]) == (trace.x[1], trace.y[1])

    def test_same_seed_identical(self):
        arch = MissionArchetype(kind="target_follow", duration=120.0)
        a, b = synth_trace(arch, seed=5), synth_trace(arch, seed=5)
        assert a.origin == b.origin
        assert all(np.array_equal(getattr(a, c), getattr(b, c)) for c in "txyz")

    def test_target_follow_seed_matters(self):
        arch = MissionArchetype(kind="target_follow", duration=120.0)
        a, b = synth_trace(arch, seed=5), synth_trace(arch, seed=6)
        assert not all(np.array_equal(getattr(a, c), getattr(b, c)) for c in "txyz")

    def test_target_follow_stays_in_area(self):
        arch = MissionArchetype(kind="target_follow", area=40_000.0, duration=600.0)
        trace = synth_trace(arch, seed=8)
        half = math.sqrt(arch.area) / 2
        for x, y in zip(trace.x.tolist(), trace.y.tolist()):
            assert -half - 1e-9 <= x <= half + 1e-9
            assert -half - 1e-9 <= y <= half + 1e-9

    def test_lawnmower_covers_both_edges(self):
        arch = MissionArchetype(kind="search_lawnmower", duration=600.0, speed=10.0)
        trace = synth_trace(arch, seed=0)
        half = math.sqrt(arch.area) / 2
        xs = trace.x.tolist()
        assert min(xs) == pytest.approx(-half, abs=1.0)
        assert max(xs) >= half - math.sqrt(arch.area) / 8  # reaches the far lanes

    def test_patrol_loops_on_perimeter(self):
        arch = MissionArchetype(kind="perimeter_patrol", duration=400.0, speed=5.0)
        trace = synth_trace(arch, seed=0)
        half = math.sqrt(arch.area) / 2
        for x, y in zip(trace.x.tolist(), trace.y.tolist()):
            on_edge = (
                abs(abs(x) - half) < 1e-6 or abs(abs(y) - half) < 1e-6
            )
            assert on_edge
