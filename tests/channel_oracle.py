"""References for the channel stage that share no code with its production path.

- positions: ``np.interp`` over the waypoints, clamped to the end waypoints;
- beam gains: the inner product 10 log10(N |<w, v>|^2) of a DFT codebook
  beam's complex weights ``w`` with the steering vector ``v`` toward an
  azimuth/elevation ``Geometry``, where production evaluates one Dirichlet
  kernel per axis at the nearest DFT bin;
- the refreshed beam: a brute-force argmax of that gain over the codebook;
- shadowing: the Gauss-Markov recursion one point at a time, over
  ``np.random.default_rng(seed).standard_normal(n)``.

Arrays are anything with ``n_h``, ``n_v`` and ``size``; elements are half a
wavelength apart.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DECORRELATION_DISTANCE = 10.0  # m
GAIN_FLOOR_LINEAR = 1e-12  # keeps orthogonal-beam gains finite in dB


def interp_positions(trace, t) -> np.ndarray:
    """Positions at times ``t``, shaped (3, len(t))."""
    return np.array([np.interp(t, trace.t, col) for col in (trace.x, trace.y, trace.z)])


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


def key(beam) -> int:
    """The flattened index k * n_v + l of a production or an oracle beam."""
    return beam.index


def steering_vector(array, geom: Geometry) -> np.ndarray:
    """Unit-norm array response; element (p, q) is flattened to p * n_v + q."""
    cy, cz = geom.cosines()
    p = np.repeat(np.arange(array.n_h), array.n_v)
    q = np.tile(np.arange(array.n_v), array.n_h)
    phase = 2.0 * math.pi * 0.5 * (p * cy + q * cz)
    return np.exp(1j * phase) / math.sqrt(array.size)


@lru_cache(maxsize=None)
def dft_codebook(array) -> tuple[Beam, ...]:
    """All n_h*n_v orthogonal DFT beams of the array, indexed k * n_v + l."""
    p = np.repeat(np.arange(array.n_h), array.n_v)
    q = np.tile(np.arange(array.n_v), array.n_h)
    beams = []
    for k in range(array.n_h):
        for l in range(array.n_v):
            phase = 2.0 * math.pi * (p * k / array.n_h + q * l / array.n_v)
            w = np.exp(1j * phase) / math.sqrt(array.size)
            beams.append(Beam(index=k * array.n_v + l, k=k, l=l, weights=w))
    return tuple(beams)


def beam_gain_db(array, beam: Beam, geom: Geometry) -> float:
    """Beamforming gain 10*log10(N |<w, v>|^2) of a codebook beam toward a direction."""
    ip = np.vdot(beam.weights, steering_vector(array, geom))
    g = array.size * (abs(ip) ** 2)
    return 10.0 * math.log10(max(g, GAIN_FLOOR_LINEAR))


def best_beam(array, geom: Geometry) -> Beam:
    """The codebook beam with the largest gain toward ``geom``."""
    beams = dft_codebook(array)
    return beams[int(np.argmax([beam_gain_db(array, b, geom) for b in beams]))]


def best_gain_db(array, geom: Geometry) -> float:
    """The largest gain of any codebook beam toward ``geom``."""
    return max(beam_gain_db(array, b, geom) for b in dft_codebook(array))


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


def gauss_markov_shadowing(points, sigma: float, seed: int) -> list[float]:
    """v_i = rho_i v_(i-1) + sigma sqrt(1 - rho_i^2) w_i, rho_i = exp(-step_i / 10 m).

    The first point has rho = 0, so it is sigma w_0.
    """
    w = np.random.default_rng(seed).standard_normal(len(points)).tolist()
    vals, v, prev = [], 0.0, None
    for p, wi in zip(points, w):
        rho = 0.0 if prev is None else math.exp(-math.dist(prev, p) / DECORRELATION_DISTANCE)
        v = rho * v + sigma * math.sqrt(1.0 - rho * rho) * wi
        vals.append(v)
        prev = p
    return vals
