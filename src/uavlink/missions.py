"""Synthetic mission flight paths: deterministic stand-ins for real
public-safety traces, one generator per mission archetype."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator

import numpy as np

from .mobility import FlightTrace, GeoPoint
from .simulation import physical_memory

MISSION_KINDS = (
    "overwatch_orbit",
    "search_lawnmower",
    "perimeter_patrol",
    "target_follow",
)

MAX_UAV_SPEED = 20.0  # m/s, small-UAV envelope
WAYPOINT_SPACING = 1.0  # s between generated waypoints
LAWNMOWER_LANES = 9  # sweep lines across the area
# Peak memory per synthesized waypoint, the trace's columns and step velocities
# included; tracemalloc reads 104.0 B over a 200 001-waypoint synthesis (56.0 B kept)
# and 67.6 B writing it (mobility.write_trace_csv, 8192 rows at a time).
WAYPOINT_BYTES = 112

# Arbitrary geodetic anchor for synthesized traces; only the local frame matters.
DEFAULT_ORIGIN = GeoPoint(t=0.0, lat=30.0, lon=0.0, alt=0.0)


@dataclass(frozen=True)
class MissionArchetype:
    kind: str
    area: float = 90_000.0  # m^2 footprint (300 m x 300 m class)
    speed: float = 5.0  # m/s
    altitude: float = 30.0  # m
    duration: float = 600.0  # s

    def __post_init__(self):
        if self.kind not in MISSION_KINDS:
            raise ValueError(f"unknown mission kind {self.kind!r}; choose from "
                             f"{', '.join(MISSION_KINDS)}")
        for name in ("area", "speed", "altitude", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"mission {name} must be finite, got {getattr(self, name)}")
        if self.area <= 0 or self.altitude <= 0 or self.duration < 0:
            raise ValueError("mission dimensions must be positive")
        if not 0 < self.speed <= MAX_UAV_SPEED:
            raise ValueError(f"speed outside the small-UAV envelope: {self.speed}")


def synth_trace(archetype: MissionArchetype, seed: int) -> FlightTrace:
    """Deterministic waypoint trace for an archetype, one waypoint per second.

    A zero-duration mission degenerates to the start point duplicated a
    millisecond later so the trace invariants still hold. Raises ValueError,
    before allocating them, if the waypoints would not fit in physical memory.
    """
    n = int(archetype.duration / WAYPOINT_SPACING) + 1
    physical = physical_memory()
    if n * WAYPOINT_BYTES > physical:
        raise ValueError(f"mission duration {archetype.duration} s needs {n} waypoints, "
                         f"more than fit in the {physical} bytes of physical memory")
    t = np.arange(n) * WAYPOINT_SPACING
    xy = chain.from_iterable(_positions(archetype, map(float, t), seed))
    x, y = np.fromiter(xy, float, 2 * n).reshape(n, 2).T
    if n < 2:
        t, x, y = np.array([0.0, 1e-3]), np.repeat(x, 2), np.repeat(y, 2)
    return FlightTrace(DEFAULT_ORIGIN, t, x, y, np.full(len(t), archetype.altitude))


def _positions(archetype: MissionArchetype, times: Iterator[float],
               seed: int) -> Iterator[tuple[float, float]]:  # one at a time: no list of them
    kind = archetype.kind
    if kind == "overwatch_orbit":
        return _orbit(archetype, times)
    if kind == "search_lawnmower":
        return _along_polyline(_lawnmower_path(archetype), archetype.speed, times, pingpong=True)
    if kind == "perimeter_patrol":
        return _along_polyline(_perimeter_path(archetype), archetype.speed, times, pingpong=False)
    return _target_follow(archetype, times, seed)


def _orbit(archetype: MissionArchetype, times) -> Iterator[tuple[float, float]]:
    # Radius such that the orbit encloses the mission area: area = pi r^2.
    r = math.sqrt(archetype.area / math.pi)
    omega = archetype.speed / r
    return ((r * math.cos(omega * t), r * math.sin(omega * t)) for t in times)


def _lawnmower_path(archetype: MissionArchetype) -> list[tuple[float, float]]:
    half = math.sqrt(archetype.area) / 2.0
    lane_step = 2.0 * half / (LAWNMOWER_LANES - 1)
    vertices = []
    for lane in range(LAWNMOWER_LANES):
        x = -half + lane * lane_step
        ys = (half, -half) if lane % 2 else (-half, half)
        vertices.append((x, ys[0]))
        vertices.append((x, ys[1]))
    return vertices


def _perimeter_path(archetype: MissionArchetype) -> list[tuple[float, float]]:
    half = math.sqrt(archetype.area) / 2.0
    return [(-half, -half), (half, -half), (half, half), (-half, half), (-half, -half)]


def _along_polyline(vertices, speed, times, *, pingpong: bool) -> Iterator[tuple[float, float]]:
    """Sample points along a polyline at constant speed; loop or reverse at the end."""
    cum = [0.0]
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        cum.append(cum[-1] + math.hypot(x1 - x0, y1 - y0))
    total = cum[-1]
    for t in times:
        u = speed * t
        if pingpong:
            m = u % (2.0 * total)
            u = 2.0 * total - m if m > total else m
        else:
            u = u % total
        i = min(bisect_right(cum, u) - 1, len(vertices) - 2)
        seg = cum[i + 1] - cum[i]
        f = (u - cum[i]) / seg if seg > 0 else 0.0
        x0, y0 = vertices[i]
        x1, y1 = vertices[i + 1]
        yield x0 + f * (x1 - x0), y0 + f * (y1 - y0)


def _target_follow(archetype: MissionArchetype, times, seed) -> Iterator[tuple[float, float]]:
    """Smoothed random walk inside the mission square, tracking a moving target."""
    rng = random.Random(seed)
    half = math.sqrt(archetype.area) / 2.0
    x, y = 0.0, 0.0
    heading = rng.uniform(-math.pi, math.pi)
    yield x, y
    step = archetype.speed * WAYPOINT_SPACING
    for _ in islice(times, 1, None):
        heading += rng.gauss(0.0, 0.35)
        nx = x + step * math.cos(heading)
        ny = y + step * math.sin(heading)
        if not -half <= nx <= half:
            heading = math.pi - heading
            nx = x + step * math.cos(heading)
        if not -half <= ny <= half:
            heading = -heading
            ny = y + step * math.sin(heading)
        x = min(max(nx, -half), half)
        y = min(max(ny, -half), half)
        yield x, y


def archetype_by_name(name: str, **overrides) -> MissionArchetype:
    """Resolve a mission name (dashes or underscores) to its archetype."""
    return MissionArchetype(kind=name.replace("-", "_"), **overrides)
