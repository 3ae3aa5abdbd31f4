"""Flight traces: geodetic ingestion, local-frame projection, waypoint interpolation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

# Equirectangular scale: meters per degree of latitude, constant per trace.
M_PER_DEG = 111_000.0

TRACE_CSV_HEADER = ("t_s", "lat_deg", "lon_deg", "alt_m")


class TraceParseError(ValueError):
    """A trace CSV row is malformed or violates trace invariants."""


@dataclass(frozen=True)
class GeoPoint:
    """A GPS-like fix: time, decimal degrees, altitude above ground."""

    t: float
    lat: float
    lon: float
    alt: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")
        if self.alt < 0.0:
            raise ValueError(f"altitude below ground: {self.alt}")
        if self.t < 0.0:
            raise ValueError(f"negative timestamp: {self.t}")


@dataclass(frozen=True)
class Waypoint:
    """Timestamped position in the local Cartesian frame (meters)."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.t, self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError("non-finite waypoint coordinate")
        if self.z < 0.0:
            raise ValueError(f"waypoint below ground: z={self.z}")


@dataclass(frozen=True)
class FlightTrace:
    """Ordered waypoints plus the geodetic origin used for projection."""

    origin: GeoPoint
    points: tuple[Waypoint, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("trace needs at least 2 waypoints")
        for a, b in zip(self.points, self.points[1:]):
            if b.t <= a.t:
                raise ValueError(f"timestamps not strictly increasing at t={b.t}")

    @property
    def duration(self) -> float:
        return self.points[-1].t - self.points[0].t

    def centroid(self) -> tuple[float, float, float]:
        n = len(self.points)
        return (
            sum(p.x for p in self.points) / n,
            sum(p.y for p in self.points) / n,
            sum(p.z for p in self.points) / n,
        )


@dataclass(frozen=True)
class MobilityState:
    """Position and velocity of the UAV at one instant."""

    position: tuple[float, float, float]
    velocity: tuple[float, float, float]


def latlon_to_xy(p: GeoPoint, ref: GeoPoint) -> tuple[float, float]:
    """Project a fix onto the local tangent plane anchored at ``ref``.

    Latitude lines are treated as a constant 111 km apart; longitude is scaled
    by cos(ref.lat), i.e. the plane warps negligibly over a few hundred meters.
    """
    y = (p.lat - ref.lat) * M_PER_DEG
    x = (p.lon - ref.lon) * M_PER_DEG * math.cos(math.radians(ref.lat))
    return x, y


def xy_to_latlon(x: float, y: float, ref: GeoPoint) -> tuple[float, float]:
    """Inverse of :func:`latlon_to_xy` around the same reference point."""
    lat = ref.lat + y / M_PER_DEG
    lon = ref.lon + x / (M_PER_DEG * math.cos(math.radians(ref.lat)))
    return lat, lon


def parse_trace(rows: Iterable[Mapping[str, str]]) -> FlightTrace:
    """Build a trace from CSV row dicts (columns t_s, lat_deg, lon_deg, alt_m).

    The first row anchors the projection; raises :class:`TraceParseError` with
    the offending line number on malformed values or non-monotone timestamps.
    """
    origin = None
    points: list[Waypoint] = []
    last_t = None
    for lineno, row in enumerate(rows, start=2):  # line 1 is the header
        try:
            p = GeoPoint(
                t=float(row["t_s"]),
                lat=float(row["lat_deg"]),
                lon=float(row["lon_deg"]),
                alt=float(row["alt_m"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
        if last_t is not None and p.t <= last_t:
            raise TraceParseError(
                f"line {lineno}: timestamp {p.t} not after previous {last_t}"
            )
        last_t = p.t
        if origin is None:
            origin = p
        x, y = latlon_to_xy(p, origin)
        points.append(Waypoint(t=p.t, x=x, y=y, z=p.alt))
    if origin is None or len(points) < 2:
        raise TraceParseError("trace needs at least 2 rows")
    return FlightTrace(origin=origin, points=tuple(points))


def read_trace_csv(path) -> FlightTrace:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != list(
            TRACE_CSV_HEADER
        ):
            raise TraceParseError(
                f"expected header {','.join(TRACE_CSV_HEADER)}, got {reader.fieldnames}"
            )
        return parse_trace(reader)


def write_trace_csv(trace: FlightTrace, path) -> None:
    """Emit the trace in the geodetic CSV format, inverting the projection."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_CSV_HEADER)
        for p in trace.points:
            lat, lon = xy_to_latlon(p.x, p.y, trace.origin)
            writer.writerow([repr(p.t), repr(lat), repr(lon), repr(p.z)])


def decimate(trace: FlightTrace, min_spacing: float) -> FlightTrace:
    """Thin a trace to waypoints at least ``min_spacing`` seconds apart.

    Greedy in time order; the first and last waypoints are always kept.
    """
    if min_spacing <= 0:
        raise ValueError("min_spacing must be positive")
    kept = [trace.points[0]]
    for p in trace.points[1:-1]:
        if p.t - kept[-1].t >= min_spacing:
            kept.append(p)
    last = trace.points[-1]
    if kept[-1].t != last.t:
        kept.append(last)
    return FlightTrace(origin=trace.origin, points=tuple(kept))


def state_at(trace: FlightTrace, t: float) -> MobilityState:
    """Piecewise-linear position/velocity at time ``t``.

    Outside the trace span the position clamps to the nearest endpoint with
    zero velocity.
    """
    t0, x0, y0, z0, vx, vy, vz, _ = TrajectorySampler(trace).segment(t)
    dt = t - t0
    return MobilityState((x0 + vx * dt, y0 + vy * dt, z0 + vz * dt), (vx, vy, vz))


class TrajectorySampler:
    """Cursor over a trace for monotonically increasing query times.

    The one trajectory interpolator: it amortizes the segment lookup and
    exposes the active segment's linear parameters, which :meth:`track`
    expands over every query time before ``t_end``.
    """

    def __init__(self, trace: FlightTrace):
        self._pts = trace.points
        self._i = -1  # before the first segment
        self._seg = None  # the last segment() result, reused by track()

    def track(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position, velocity) at non-decreasing times ``t``, each shaped (3, len(t)).

        One :meth:`segment` call per segment entered, carried across calls;
        position is x0 + v * (t - t0), as :func:`state_at` computes it.
        """
        pos, vel = np.empty((2, 3, len(t)))
        i = 0
        while i < len(t):
            if self._seg is None or t[i] >= self._seg[7]:
                self._seg = self.segment(float(t[i]))
            t0, x0, y0, z0, vx, vy, vz, t_end = self._seg
            j = int(np.searchsorted(t, t_end))  # the first time at or past t_end
            dt = t[i:j] - t0
            pos[:, i:j] = x0 + vx * dt, y0 + vy * dt, z0 + vz * dt
            vel[:, i:j] = ((vx,), (vy,), (vz,))
            i = j
        return pos, vel

    def segment(self, t: float) -> tuple[float, float, float, float, float, float, float, float]:
        """(t0, x0, y0, z0, vx, vy, vz, t_end) of the segment active at ``t``.

        Position at u in [t, t_end) is (x0 + (u - t0) * vx, ...). The clamped
        regions before the first and after the last waypoint appear as
        zero-velocity segments. Query times must be non-decreasing.
        """
        pts = self._pts
        last = len(pts) - 1
        i = self._i
        if i < 0 and t < pts[0].t:
            p = pts[0]
            return p.t, p.x, p.y, p.z, 0.0, 0.0, 0.0, p.t
        if i < 0:
            i = 0
        while i < last and t >= pts[i + 1].t:
            i += 1
        self._i = i
        if i >= last:
            p = pts[last]
            return p.t, p.x, p.y, p.z, 0.0, 0.0, 0.0, math.inf
        a, b = pts[i], pts[i + 1]
        inv_dt = 1.0 / (b.t - a.t)
        return (
            a.t,
            a.x,
            a.y,
            a.z,
            (b.x - a.x) * inv_dt,
            (b.y - a.y) * inv_dt,
            (b.z - a.z) * inv_dt,
            b.t,
        )
