"""Single-ray LOS link quality terms: free-space pathloss, correlated
shadowing, Doppler and the noise floor. The link budget that sums them is
``simulation.channel_pass``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
THERMAL_NOISE_DBM_HZ = -174.0
FSPL_MIN_DISTANCE = 1.0  # m, formula validity floor
DECORRELATION_DISTANCE = 10.0  # m, shadowing correlation length


@dataclass
class ShadowingField:
    """Log-normal shadowing, spatially correlated along the query path.

    Gauss-Markov update per query: correlation decays as
    exp(-d / DECORRELATION_DISTANCE) with the distance moved since the previous
    query, so the stationary standard deviation is exactly ``sigma`` for any
    step pattern. Deterministic given (seed, query sequence); a zero-distance
    step repeats the last value.
    """

    sigma: float  # dB
    seed: int

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma}")
        self._rng = np.random.default_rng(self.seed)
        self._last = None  # [x, y, z] of the previous query, each of shape (1,)
        self._last_val = 0.0

    def sample_at(self, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Shadowing in dB at points of a path, advancing the along-path process.

        ``x``, ``y`` and ``z`` are equal-length arrays; one value per point,
        in path order, equal up to rounding to the per-point recursion.
        """
        pos = (x, y, z)
        n = len(x)
        last = [c[:1] for c in pos] if self._last is None else self._last
        dx, dy, dz = (np.diff(c, prepend=p) for c, p in zip(pos, last))
        # Decay exponent of each step; the first query ever decays fully (rho = 0).
        decay = np.sqrt(dx * dx + dy * dy + dz * dz) / DECORRELATION_DISTANCE
        if self._last is None:
            decay[0] = np.inf
        rho = np.exp(-decay)
        innov = self.sigma * np.sqrt(1.0 - rho * rho) * self._rng.standard_normal(n)
        # v_i = rho_i v_(i-1) + innov_i, scanned per block [b, e) as
        # (rho_b v_(b-1) + cumsum(exp(D) innov)) / exp(D), D the decay since b.
        # A block ends before D reaches 50, so exp(D) stays finite.
        acc = np.concatenate(([0.0], np.cumsum(decay[1:])))
        block = acc // 50.0
        edges = np.concatenate(([0], np.flatnonzero(block[1:] != block[:-1]) + 1, [n]))
        vals = np.empty(n)
        val = self._last_val
        for b, e in zip(edges[:-1], edges[1:]):
            grow = np.exp(acc[b:e] - acc[b])
            vals[b:e] = (rho[b] * val + np.cumsum(grow * innov[b:e])) / grow
            val = vals[e - 1]
        self._last, self._last_val = [c[-1:].copy() for c in pos], val
        return vals


def fspl_db(distance_3d, carrier_freq: float):
    """Free-space pathloss in dB for distances in meters (a float or an array)
    and a carrier in GHz. Distances below 1 m clamp to 1 m.
    """
    d = np.maximum(distance_3d, FSPL_MIN_DISTANCE)
    return 32.4 + 20.0 * np.log10(d) + 20.0 * math.log10(carrier_freq)


def doppler_shift(radial_speed: float, carrier_freq: float) -> float:
    """Doppler shift in Hz; ``radial_speed`` is positive toward the receiver."""
    return radial_speed * carrier_freq * 1e9 / SPEED_OF_LIGHT


def noise_floor_dbm(bandwidth: float, noise_figure: float) -> float:
    """Thermal noise power over ``bandwidth`` Hz plus the receiver noise figure."""
    return THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(bandwidth) + noise_figure
