"""Flight traces: geodetic ingestion, local-frame projection, waypoint interpolation."""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

# Equirectangular scale: meters per degree of latitude, constant per trace.
M_PER_DEG = 111_000.0

TRACE_CSV_HEADER = ("t_s", "lat_deg", "lon_deg", "alt_m")
_WRITE_ROWS = 8192  # CSV rows per write (65536: +15 MB peak RSS, 120 s 10 Mb/s run)


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
        if not 0.0 <= self.alt < math.inf:
            raise ValueError(f"altitude below ground or not finite: {self.alt}")
        if not 0.0 <= self.t < math.inf:
            raise ValueError(f"timestamp negative or not finite: {self.t}")


@dataclass(frozen=True, eq=False)
class FlightTrace:
    """Waypoint columns ``t, x, y, z`` (s, local-frame m) plus the geodetic
    origin used for projection.

    ``v`` (3 x (n - 1)) holds each step's velocity, computed once here: the
    refusal of a non-finite one and :class:`TrajectorySampler` both read it.
    """

    origin: GeoPoint
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cols = np.array([self.t, self.x, self.y, self.z], dtype=float)
        cols.flags.writeable = False
        for name, col in zip("txyz", cols):
            object.__setattr__(self, name, col)
        t, _, _, z = cols
        if len(t) < 2:
            raise ValueError("trace needs at least 2 waypoints")
        if not np.isfinite(cols).all():
            raise ValueError("non-finite waypoint coordinate")
        if (z < 0.0).any():
            raise ValueError(f"waypoint below ground: z={z[z < 0.0][0]}")
        dt = np.diff(t)
        if (dt <= 0.0).any():
            raise ValueError(f"timestamps not strictly increasing at t={t[1:][dt <= 0.0][0]}")
        v = np.diff(cols[1:])
        with np.errstate(over="ignore", invalid="ignore"):  # a subnormal step overflows
            v *= 1.0 / dt
        bad = ~np.isfinite(v).all(axis=0)
        if bad.any():
            raise ValueError(f"non-finite velocity in the step ending at t={t[1:][bad][0]}")
        v.flags.writeable = False
        object.__setattr__(self, "v", v)

    def centroid(self) -> tuple[float, float, float]:
        # Left to right: np.mean sums pairwise, 3.12's sum compensates; both move the last bit.
        return tuple(float(np.add.accumulate(c)[-1]) / len(c) for c in (self.x, self.y, self.z))


def latlon_to_xy(p: GeoPoint, ref: GeoPoint) -> tuple[float, float]:
    """Project a fix onto the local tangent plane anchored at ``ref``.

    Latitude lines are treated as a constant 111 km apart; longitude is scaled
    by cos(ref.lat), i.e. the plane warps negligibly over a few hundred meters.
    """
    y = (p.lat - ref.lat) * M_PER_DEG
    x = (p.lon - ref.lon) * M_PER_DEG * math.cos(math.radians(ref.lat))
    return x, y


def xy_to_latlon(x, y, ref: GeoPoint):
    """Inverse of :func:`latlon_to_xy` around the same reference point, on
    floats or arrays."""
    lat = ref.lat + y / M_PER_DEG
    lon = ref.lon + x / (M_PER_DEG * math.cos(math.radians(ref.lat)))
    return lat, lon


def parse_trace(rows: Iterable[Mapping[str, str]]) -> FlightTrace:
    """Build a trace from CSV row dicts (columns t_s, lat_deg, lon_deg, alt_m).

    The first row anchors the projection; raises :class:`TraceParseError` with
    the offending line number on malformed values or non-monotone timestamps.
    """
    origin = None
    t, x, y, z = cols = ([], [], [], [])
    for lineno, row in enumerate(rows, start=2):  # line 1 is the header
        try:
            p = GeoPoint(*(float(row[name]) for name in TRACE_CSV_HEADER))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceParseError(f"line {lineno}: {exc}") from exc
        if t and p.t <= t[-1]:
            raise TraceParseError(f"line {lineno}: timestamp {p.t} not after previous {t[-1]}")
        origin = origin or p
        for col, value in zip(cols, (p.t, *latlon_to_xy(p, origin), p.alt)):
            col.append(value)
    if len(t) < 2:
        raise TraceParseError("trace needs at least 2 rows")
    return FlightTrace(origin, t, x, y, z)


def read_trace_csv(path) -> FlightTrace:
    """Parse a trace CSV; each refusal is a :class:`TraceParseError` (see :func:`read_csv`)."""
    with read_csv(path, TRACE_CSV_HEADER, TraceParseError) as rows:
        return parse_trace(rows)


@contextmanager
def read_csv(path, header: tuple[str, ...], error: type[ValueError] = ValueError):
    """Rows of CSV file ``path`` (UTF-8, BOM optional; header ``header``, padded or not). A
    ValueError or csv.Error is raised as ``error("PATH: ...")``, bad UTF-8 as ``PATH: line N``."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if [c.strip() for c in reader.fieldnames or ()] != list(header):
                raise ValueError(f"expected header {','.join(header)}, got {reader.fieldnames}")
            reader.fieldnames = header
            yield reader
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode()  # a BOM is valid UTF-8
                except UnicodeDecodeError as exc:
                    raise error(f"{path}: line {lineno}: {exc}") from None
        raise
    except (ValueError, csv.Error) as exc:
        raise error(f"{path}: {exc}") from None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_writers(n_chunks: int) -> int:
    """Processes that write a file of ``n_chunks`` chunks: the fewer of the chunks and
    ``usable_cpus``, and 1 in a ``multiprocessing`` worker (a matrix pool's), whose pool
    already keeps the CPUs busy."""
    if multiprocessing.parent_process():
        return 1
    return max(1, min(usable_cpus(), n_chunks))


def write_chunks(path, header: bytes, n_rows: int, chunk) -> None:
    """Write ``header``, then ``chunk(s0)``, the bytes of rows ``s0`` to ``s0 + _WRITE_ROWS``,
    for each ``s0`` in order. The chunks are split into W = ``chunk_writers`` contiguous
    groups: this process writes the first, and W - 1 forked children one each into a
    temporary file, appended once every child has exited. A child inherits what ``chunk``
    reads, so nothing is pickled; ``chunk`` must call no BLAS (fork safety)."""
    starts = range(0, n_rows, _WRITE_ROWS)
    n = chunk_writers(len(starts))
    groups = [starts[len(starts) * g // n:len(starts) * (g + 1) // n] for g in range(n)]
    with open(path, "wb") as fh, ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile(dir=os.path.dirname(
            os.path.abspath(path)))) for _ in groups[1:]]
        pids = []
        try:
            for group, part in zip(groups[1:], parts):
                pids.append(os.fork())
                if not pids[-1]:  # the child: its group, then out past the parent's cleanup
                    status = 1
                    try:
                        for s0 in group:
                            part.write(chunk(s0))
                        part.flush()
                        status = 0
                    except BaseException as exc:  # exits anyway: its message, not its rows
                        os.ftruncate(part.fileno(), 0)
                        os.pwrite(part.fileno(), f"{type(exc).__name__}: {exc}".encode(), 0)
                    finally:
                        os._exit(status)
            fh.write(header)
            for s0 in groups[0]:
                fh.write(chunk(s0))
        finally:
            statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        for group, part, status in zip(groups[1:], parts, statuses):
            part.seek(0)
            if status:  # 1, with the child's message, or a signal's negated number
                why = part.read(1000).decode(errors="replace") if status > 0 else (
                    f"signal {-status}")
                raise OSError(f"{path}: the child process writing from row {group[0]} "
                              f"failed: {why}")
            shutil.copyfileobj(part, fh)


def write_csv(path, header: tuple[str, ...], n_rows: int, chunk) -> None:
    """Write ``header`` and ``n_rows`` rows of floats as ``csv.writer`` writes them (repr),
    by ``write_chunks``; ``chunk(rows)`` gives the columns of the slice ``rows``."""
    line = ",".join(["{}"] * len(header)) + "\r\n"

    def text(s0: int) -> bytes:
        cols = chunk(slice(s0, s0 + _WRITE_ROWS))
        return "".join(map(line.format, *(c.tolist() for c in cols))).encode("ascii")

    write_chunks(path, (",".join(header) + "\r\n").encode(), n_rows, text)


def write_trace_csv(trace: FlightTrace, path) -> None:
    """Emit the trace in the geodetic CSV format, inverting the projection."""
    write_csv(path, TRACE_CSV_HEADER, len(trace.t), lambda rows: (
        trace.t[rows], *xy_to_latlon(trace.x[rows], trace.y[rows], trace.origin), trace.z[rows]))


def decimate(trace: FlightTrace, min_spacing: float) -> FlightTrace:
    """Thin a trace to waypoints at least ``min_spacing`` seconds apart.

    Greedy in time order; the first and last waypoints are always kept.
    """
    if not 0 < min_spacing < math.inf:
        raise ValueError(f"min_spacing must be positive and finite, got {min_spacing}")
    t = trace.t.tolist()
    kept = [0]
    for i in range(1, len(t) - 1):
        if t[i] - t[kept[-1]] >= min_spacing:
            kept.append(i)
    kept.append(len(t) - 1)
    return FlightTrace(trace.origin, *(c[kept] for c in (trace.t, trace.x, trace.y, trace.z)))


class TrajectorySampler:
    """The one trajectory interpolator: a table of linear segments.

    Row k (t0, x0, y0, z0, vx, vy, vz, t_end) holds from waypoint k - 1 to k at
    x0 + vx * (u - t0), ...; rows 0 and n clamp to the end waypoints at rest.
    """

    def __init__(self, trace: FlightTrace):
        t, x, y, z = (c.tolist() for c in (trace.t, trace.x, trace.y, trace.z))
        rest = (0.0, 0.0, 0.0)
        self._rows = ((t[0], x[0], y[0], z[0], *rest, t[0]),
                      *zip(t, x, y, z, *trace.v.tolist(), t[1:]),
                      (t[-1], x[-1], y[-1], z[-1], *rest, math.inf))
        self._t = trace.t  # row k + 1 begins at waypoint k

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
