"""Uniform planar arrays, DFT beam codebooks, the best beam pair (the nearest
DFT bin per axis), and the periodic tracking loop that holds a stale pair
between updates."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_UPDATE_PERIOD = 5e-3  # s, beam pair refresh cadence
GAIN_FLOOR_LINEAR = 1e-12  # keeps orthogonal-beam gains finite in dB
_GRID_TOL = 1e-9


@dataclass(frozen=True)
class ArrayConfig:
    """Planar array geometry: element grid and spacing in wavelengths."""

    n_h: int
    n_v: int
    spacing: float = 0.5

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError("array needs at least one element per axis")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    @property
    def size(self) -> int:
        return self.n_h * self.n_v


@dataclass(frozen=True)
class Geometry:
    """LOS ray direction in an array's local frame."""

    azimuth: float  # rad, (-pi, pi]
    elevation: float  # rad, [-pi/2, pi/2]

    def __post_init__(self):
        if not -math.pi < self.azimuth <= math.pi:
            raise ValueError(f"azimuth out of range: {self.azimuth}")
        if not -math.pi / 2 <= self.elevation <= math.pi / 2:
            raise ValueError(f"elevation out of range: {self.elevation}")

    def cosines(self) -> tuple[float, float]:
        """Direction cosines along the horizontal and vertical element axes."""
        return (
            math.sin(self.azimuth) * math.cos(self.elevation),
            math.sin(self.elevation),
        )


@dataclass(frozen=True)
class Beam:
    """One codebook entry: flattened index, DFT grid position, unit-norm weights."""

    index: int
    k: int  # horizontal DFT bin
    l: int  # vertical DFT bin
    weights: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class BeamPair:
    """Transmit (UAV) and receive (BS) beams selected at one update instant."""

    tx_beam: Beam
    rx_beam: Beam
    selected_at: float


def steering_vector(array: ArrayConfig, geom: Geometry) -> np.ndarray:
    """Unit-norm array response; element (p, q) is flattened to p * n_v + q."""
    cy, cz = geom.cosines()
    n = array.size
    p = np.repeat(np.arange(array.n_h), array.n_v)
    q = np.tile(np.arange(array.n_v), array.n_h)
    phase = 2.0 * math.pi * array.spacing * (p * cy + q * cz)
    return np.exp(1j * phase) / math.sqrt(n)


@lru_cache(maxsize=None)
def dft_codebook(array: ArrayConfig) -> tuple[Beam, ...]:
    """All n_h*n_v orthogonal DFT beams of the array, indexed k * n_v + l."""
    n = array.size
    p = np.repeat(np.arange(array.n_h), array.n_v)
    q = np.tile(np.arange(array.n_v), array.n_h)
    beams = []
    for k in range(array.n_h):
        for l in range(array.n_v):
            phase = 2.0 * math.pi * (p * k / array.n_h + q * l / array.n_v)
            w = np.exp(1j * phase) / math.sqrt(n)
            beams.append(Beam(index=k * array.n_v + l, k=k, l=l, weights=w))
    return tuple(beams)


def beam_gain_db(array: ArrayConfig, beam: Beam, geom: Geometry) -> float:
    """Beamforming gain 10*log10(N |<w, v>|^2) of a beam toward a direction."""
    ip = np.vdot(beam.weights, steering_vector(array, geom))
    g = array.size * (abs(ip) ** 2)
    return 10.0 * math.log10(max(g, GAIN_FLOOR_LINEAR))


def best_beam_pair(
    bs_array: ArrayConfig,
    uav_array: ArrayConfig,
    bs_geom: Geometry,
    uav_geom: Geometry,
    t: float,
) -> BeamPair:
    """The tx/rx beam pair with the largest combined gain over both codebooks.

    Uplink: the UAV transmits, the BS receives. The combined gain is the
    product of one gain per side, so each side's best beam is found on its
    own, as its nearest DFT bin (see :func:`_nearest_beam`). A direction
    exactly half a bin between two beams ties them; it goes to the even bin
    (``round`` halves to even), taken modulo the axis size.
    """
    return BeamPair(
        tx_beam=_nearest_beam(uav_array, uav_geom.cosines()),
        rx_beam=_nearest_beam(bs_array, bs_geom.cosines()),
        selected_at=t,
    )


def _nearest_beam(array: ArrayConfig, cos: tuple[float, float]) -> Beam:
    """The codebook beam whose DFT bin is nearest the direction on each axis.

    A beam's linear gain is a product of one Dirichlet kernel per axis,
    |sin(pi n x) / sin(pi x)|, in the offset x = spacing * c - k / n (mod 1)
    of the direction cosine c from bin k. For |x| <= 1/2n the kernel is at
    least 1/sin(pi / 2n) and elsewhere at most that, so the nearest bin,
    round(n * spacing * c) mod n, is the exhaustive-search optimum per axis.
    """
    k = int(_nearest_bin(array.n_h, array.spacing, cos[0]))
    l = int(_nearest_bin(array.n_v, array.spacing, cos[1]))
    return dft_codebook(array)[k * array.n_v + l]


def _nearest_bin(n: int, spacing: float, c):
    """round(n * spacing * c) mod n on one axis, halves to even, as float(s)."""
    return np.rint(n * spacing * c) % n


class BeamTracker:
    """Periodic beam-pair tracking with stale beams between updates.

    At every multiple of the update period the pair is refreshed to the
    exhaustive-search optimum for the instantaneous geometry, computed as the
    nearest DFT bin per axis (genie-aided, no sweep airtime); between updates
    the stored pair is evaluated against the true geometry, so motion shows up
    as misalignment loss. Query times must be non-decreasing.
    """

    def __init__(
        self,
        bs_array: ArrayConfig,
        uav_array: ArrayConfig,
        update_period: float = DEFAULT_UPDATE_PERIOD,
    ):
        if update_period <= 0:
            raise ValueError("update_period must be positive")
        self.bs_array = bs_array
        self.uav_array = uav_array
        self.update_period = update_period
        self.pair: BeamPair | None = None
        self._epoch = -math.inf  # update period of the stored pair
        self._bins = (0, 0, 0, 0)  # its (tx k, tx l, rx k, rx l)

    def gains_at(self, t: float, bs_geom: Geometry, uav_geom: Geometry) -> tuple[float, float]:
        """(tx_gain_db, rx_gain_db) of the tracked pair at time ``t``."""
        tx_lin, rx_lin = self.gains_at_cosines(t, bs_geom.cosines(), uav_geom.cosines())
        return (
            10.0 * math.log10(max(tx_lin, GAIN_FLOOR_LINEAR)),
            10.0 * math.log10(max(rx_lin, GAIN_FLOOR_LINEAR)),
        )

    def gains_at_cosines(self, t, bs_cos, uav_cos):
        """Linear (tx, rx) gains; refreshes the pair on update-period boundaries.

        ``t`` and each cosine are scalars (floats returned) or equal-length
        arrays of non-decreasing times (arrays returned). The pair is refreshed
        at the first query of each update period and carries over between calls.
        """
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(t)
        uav, bs = self.uav_array, self.bs_array
        axes = list(zip((uav.n_h, uav.n_v, bs.n_h, bs.n_v), (uav.spacing,) * 2 + (bs.spacing,) * 2,
                        (np.atleast_1d(c) for c in (*uav_cos, *bs_cos))))
        epoch = np.floor(t / self.update_period + 1e-9)
        fresh = np.diff(epoch, prepend=self._epoch) > 0  # first query of an update period
        # Per query, the number of refreshes so far in this call: 0 is the carried pair.
        which = np.cumsum(fresh)
        new_bins = [_nearest_bin(n, sp, c[fresh]) for n, sp, c in axes]
        d = [_dirichlet(n, sp * c - np.concatenate(([b], nb))[which] / n)
             for b, nb, (n, sp, c) in zip(self._bins, new_bins, axes)]
        if which[-1]:
            self._epoch = int(epoch[-1])
            self._bins = k, l, rk, rl = tuple(int(nb[-1]) for nb in new_bins)
            self.pair = BeamPair(tx_beam=dft_codebook(uav)[k * uav.n_v + l],
                                 rx_beam=dft_codebook(bs)[rk * bs.n_v + rl],
                                 selected_at=self._epoch * self.update_period)
        tx_lin = (d[0] * d[1]) ** 2 / uav.size
        rx_lin = (d[2] * d[3]) ** 2 / bs.size
        return (float(tx_lin[0]), float(rx_lin[0])) if scalar else (tx_lin, rx_lin)


def _dirichlet(n: int, x: np.ndarray) -> np.ndarray:
    """sin(pi n x) / sin(pi x) at the offset x from a DFT bin, taken mod 1.

    Its square over n is one axis's factor of a beam's linear gain; the sign
    cancels in the square. Within _GRID_TOL of the bin it is its limit n.
    """
    x = x - np.rint(x)
    on_bin = np.abs(x) < _GRID_TOL
    return np.where(on_bin, n, np.sin(np.pi * n * x) / np.sin(np.pi * np.where(on_bin, 0.5, x)))


def parse_antenna_combo(combo: str) -> tuple[ArrayConfig, ArrayConfig]:
    """Parse '64x16' (BS x UAV element totals) into square-ish planar arrays."""
    try:
        bs_n, uav_n = (int(part) for part in combo.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"bad antenna combination {combo!r}, expected e.g. 64x16") from exc
    if bs_n < 1 or uav_n < 1:
        raise ValueError(f"antenna counts must be positive: {combo!r}")
    return _squareish(bs_n), _squareish(uav_n)


def _squareish(n: int) -> ArrayConfig:
    """Factor a total element count into the most square n_h x n_v grid."""
    best = 1
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            best = d
    return ArrayConfig(n_h=n // best, n_v=best)


def array_basis(
    boresight: tuple[float, float, float],
) -> tuple[tuple[float, float, float], tuple[float, float, float], tuple[float, float, float]]:
    """Orthonormal (boresight, horizontal, vertical) axes for an array.

    The vertical axis is the global up direction projected off boresight; for
    near-vertical boresights the global +x axis seeds the projection instead.
    """
    bx, by, bz = boresight
    norm = math.sqrt(bx * bx + by * by + bz * bz)
    if norm == 0:
        raise ValueError("boresight must be non-zero")
    ex = (bx / norm, by / norm, bz / norm)
    ref = (0.0, 0.0, 1.0) if abs(ex[2]) < 0.999 else (1.0, 0.0, 0.0)
    dot = ref[0] * ex[0] + ref[1] * ex[1] + ref[2] * ex[2]
    rz = (ref[0] - dot * ex[0], ref[1] - dot * ex[1], ref[2] - dot * ex[2])
    rn = math.sqrt(rz[0] ** 2 + rz[1] ** 2 + rz[2] ** 2)
    ez = (rz[0] / rn, rz[1] / rn, rz[2] / rn)
    ey = (
        ez[1] * ex[2] - ez[2] * ex[1],
        ez[2] * ex[0] - ez[0] * ex[2],
        ez[0] * ex[1] - ez[1] * ex[0],
    )
    return ex, ey, ez


def geometry_toward(
    basis: tuple[tuple[float, float, float], ...],
    direction: tuple[float, float, float],
) -> Geometry:
    """Express a global LOS direction as azimuth/elevation in an array frame."""
    dx, dy, dz = direction
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if norm == 0:
        raise ValueError("direction must be non-zero")
    ex, ey, ez = basis
    ux = (dx * ex[0] + dy * ex[1] + dz * ex[2]) / norm
    uy = (dx * ey[0] + dy * ey[1] + dz * ey[2]) / norm
    uz = (dx * ez[0] + dy * ez[1] + dz * ez[2]) / norm
    az = math.atan2(uy, ux)
    if az <= -math.pi:
        az = math.pi
    return Geometry(azimuth=az, elevation=math.asin(max(-1.0, min(1.0, uz))))
