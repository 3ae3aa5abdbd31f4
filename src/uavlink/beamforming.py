"""Uniform planar arrays and the periodic tracking loop that refreshes the best
DFT beam pair (the nearest DFT bin per axis) and holds it stale between
updates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_UPDATE_PERIOD = 5e-3  # s, beam pair refresh cadence
SPACING = 0.5  # element spacing in wavelengths, on both axes of every array
GAIN_FLOOR_LINEAR = 1e-12  # keeps orthogonal-beam gains finite in dB
_GRID_TOL = 1e-9


@dataclass(frozen=True)
class ArrayConfig:
    """Planar array geometry: the element grid, at SPACING wavelengths."""

    n_h: int
    n_v: int

    def __post_init__(self):
        if self.n_h < 1 or self.n_v < 1:
            raise ValueError("array needs at least one element per axis")

    @property
    def size(self) -> int:
        return self.n_h * self.n_v


@dataclass(frozen=True)
class Beam:
    """One DFT beam: flattened index k * n_v + l of its horizontal and vertical bins."""

    index: int


@dataclass(frozen=True)
class BeamPair:
    """Transmit (UAV) and receive (BS) beams selected at one update instant."""

    tx_beam: Beam
    rx_beam: Beam


class BeamTracker:
    """Periodic beam-pair tracking with stale beams between updates.

    At every multiple of DEFAULT_UPDATE_PERIOD the pair is refreshed to the
    exhaustive-search optimum for the instantaneous geometry (genie-aided, no
    sweep airtime); between updates the stored pair is evaluated against the
    true geometry, so motion shows up as misalignment loss.

    The combined gain is a product of one gain per side, and each side's gain
    a product of one Dirichlet kernel per axis, |sin(pi n x) / sin(pi x)|, in
    the offset x = SPACING * c - k / n (mod 1) of the direction cosine c from
    bin k. For |x| <= 1/2n the kernel is at least 1/sin(pi / 2n) and elsewhere
    at most that, so the optimum is the nearest bin per axis,
    round(n * SPACING * c) mod n. A direction exactly half a bin between two
    beams ties them; it goes to the even bin (``np.rint`` halves to even).
    """

    def __init__(self, bs_array: ArrayConfig, uav_array: ArrayConfig):
        self.bs_array = bs_array
        self.uav_array = uav_array
        self.pair: BeamPair | None = None
        self._epoch = -math.inf  # update period of the stored pair
        self._bins = (0, 0, 0, 0)  # its (tx k, tx l, rx k, rx l)

    def gains_at_cosines(self, t: np.ndarray, bs_cos, uav_cos) -> tuple[np.ndarray, np.ndarray]:
        """Linear (tx, rx) gains at non-decreasing times ``t``.

        ``bs_cos`` and ``uav_cos`` each hold two arrays of direction cosines,
        as long as ``t``. The pair is refreshed at the first query of each
        update period and carries over between calls.
        """
        uav, bs = self.uav_array, self.bs_array
        axes = list(zip((uav.n_h, uav.n_v, bs.n_h, bs.n_v), (*uav_cos, *bs_cos)))
        epoch = np.floor(t / DEFAULT_UPDATE_PERIOD + 1e-9)
        fresh = np.diff(epoch, prepend=self._epoch) > 0  # first query of an update period
        # Per query, the number of refreshes so far in this call: 0 is the carried pair.
        which = np.cumsum(fresh)
        new_bins = [np.rint(n * SPACING * c[fresh]) % n for n, c in axes]  # nearest bins
        d = [_dirichlet(n, SPACING * c - np.concatenate(([b], nb))[which] / n)
             for b, nb, (n, c) in zip(self._bins, new_bins, axes)]
        if which[-1]:
            self._epoch = int(epoch[-1])
            self._bins = k, l, rk, rl = tuple(int(nb[-1]) for nb in new_bins)
            self.pair = BeamPair(tx_beam=Beam(index=k * uav.n_v + l),
                                 rx_beam=Beam(index=rk * bs.n_v + rl))
        return (d[0] * d[1]) ** 2 / uav.size, (d[2] * d[3]) ** 2 / bs.size


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
