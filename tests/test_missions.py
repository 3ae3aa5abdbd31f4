import math

import numpy as np
import pytest

from uavlink.missions import (
    MISSION_KINDS,
    MissionArchetype,
    archetype_by_name,
    synth_trace,
)
from uavlink.mobility import TrajectorySampler


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
        times = [p.t for p in trace.points]
        assert len(times) >= 2
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(p.z == arch.altitude for p in trace.points)

    @pytest.mark.parametrize("kind", MISSION_KINDS)
    def test_speed_within_envelope(self, kind):
        arch = MissionArchetype(kind=kind, duration=60.0, speed=5.0)
        trace = synth_trace(arch, seed=4)
        for a, b in zip(trace.points, trace.points[1:]):
            d = math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))
            # Straight-line waypoint spacing never exceeds the flight speed.
            assert d <= arch.speed * (b.t - a.t) + 1e-9

    def test_orbit_geometry_and_period(self):
        radius = 100.0
        arch = MissionArchetype(
            kind="overwatch_orbit", area=math.pi * radius**2, speed=5.0, duration=300.0
        )
        trace = synth_trace(arch, seed=0)
        omega = arch.speed / radius
        for i, p in enumerate(trace.points[:50]):
            assert math.hypot(p.x, p.y) == pytest.approx(radius, abs=1e-9)
            assert p.x == pytest.approx(radius * math.cos(omega * i), abs=1e-9)
            assert p.y == pytest.approx(radius * math.sin(omega * i), abs=1e-9)
        # One lap takes 2 pi r / v seconds.
        period = 2 * math.pi * radius / arch.speed
        assert period == pytest.approx(125.66370614359172, abs=1e-9)
        start, after_lap = TrajectorySampler(trace).track(np.array([0.0, period]))[0].T
        assert math.dist(start, after_lap) < 0.2  # chord interpolation slack

    def test_zero_duration_degenerates_to_two_points(self):
        arch = MissionArchetype(kind="target_follow", duration=0.0)
        trace = synth_trace(arch, seed=9)
        assert len(trace.points) == 2
        assert trace.points[1].t - trace.points[0].t == pytest.approx(1e-3)
        assert (trace.points[0].x, trace.points[0].y) == (trace.points[1].x, trace.points[1].y)

    def test_same_seed_identical(self):
        arch = MissionArchetype(kind="target_follow", duration=120.0)
        assert synth_trace(arch, seed=5) == synth_trace(arch, seed=5)

    def test_target_follow_seed_matters(self):
        arch = MissionArchetype(kind="target_follow", duration=120.0)
        assert synth_trace(arch, seed=5) != synth_trace(arch, seed=6)

    def test_target_follow_stays_in_area(self):
        arch = MissionArchetype(kind="target_follow", area=40_000.0, duration=600.0)
        trace = synth_trace(arch, seed=8)
        half = math.sqrt(arch.area) / 2
        for p in trace.points:
            assert -half - 1e-9 <= p.x <= half + 1e-9
            assert -half - 1e-9 <= p.y <= half + 1e-9

    def test_lawnmower_covers_both_edges(self):
        arch = MissionArchetype(kind="search_lawnmower", duration=600.0, speed=10.0)
        trace = synth_trace(arch, seed=0)
        half = math.sqrt(arch.area) / 2
        xs = [p.x for p in trace.points]
        assert min(xs) == pytest.approx(-half, abs=1.0)
        assert max(xs) >= half - math.sqrt(arch.area) / 8  # reaches the far lanes

    def test_patrol_loops_on_perimeter(self):
        arch = MissionArchetype(kind="perimeter_patrol", duration=400.0, speed=5.0)
        trace = synth_trace(arch, seed=0)
        half = math.sqrt(arch.area) / 2
        for p in trace.points:
            on_edge = (
                abs(abs(p.x) - half) < 1e-6 or abs(abs(p.y) - half) < 1e-6
            )
            assert on_edge
