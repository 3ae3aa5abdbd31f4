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
            inv_dt = 1.0 / (b.t - a.t)  # as TrajectorySampler computes the velocity
            if not all(math.isfinite((q - p) * inv_dt) for p, q in zip(
                    (a.x, a.y, a.z), (b.x, b.y, b.z))):
                raise ValueError(f"non-finite velocity in the step ending at t={b.t}")

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


class TrajectorySampler:
    """The one trajectory interpolator: a table of linear segments.

    Row k (t0, x0, y0, z0, vx, vy, vz, t_end) holds from waypoint k - 1 to k at
    x0 + vx * (u - t0), ...; rows 0 and n clamp to the end waypoints at rest.
    """

    def __init__(self, trace: FlightTrace):
        pts = trace.points
        rows = [(pts[0].t, pts[0].x, pts[0].y, pts[0].z, 0.0, 0.0, 0.0, pts[0].t)]
        for a, b in zip(pts, pts[1:]):
            inv_dt = 1.0 / (b.t - a.t)
            rows.append((a.t, a.x, a.y, a.z, (b.x - a.x) * inv_dt, (b.y - a.y) * inv_dt,
                         (b.z - a.z) * inv_dt, b.t))
        rows.append((pts[-1].t, pts[-1].x, pts[-1].y, pts[-1].z, 0.0, 0.0, 0.0, math.inf))
        self._rows = tuple(rows)
        self._t = np.array([p.t for p in pts])  # row k + 1 begins at waypoint k

    def track(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position, velocity) at non-decreasing times ``t``, each shaped (3, len(t)).

        Expands each row the times span over its slice; calls come in any order.
        """
        pos, vel = np.empty((2, 3, len(t)))
        k0, k1 = np.searchsorted(self._t, t[[0, -1]], side="right").tolist() if len(t) else (0, 0)
        cuts = [0, *np.searchsorted(t, self._t[k0:k1]).tolist(), len(t)]
        for (t0, x0, y0, z0, vx, vy, vz, _), i, j in zip(self._rows[k0:k1 + 1], cuts, cuts[1:]):
            dt = t[i:j] - t0
            pos[:, i:j] = x0 + vx * dt, y0 + vy * dt, z0 + vz * dt
            vel[:, i:j] = ((vx,), (vy,), (vz,))
        return pos, vel

    def segment(self, t: float) -> tuple[float, float, float, float, float, float, float, float]:
        """The row (t0, x0, y0, z0, vx, vy, vz, t_end) active at ``t``."""
        return self._rows[int(np.searchsorted(self._t, t, side="right"))]
