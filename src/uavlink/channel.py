"""Single-ray LOS link quality: free-space pathloss, correlated shadowing,
Doppler, and the SNR link budget."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mobility import MobilityState

SPEED_OF_LIGHT = 299_792_458.0  # m/s
THERMAL_NOISE_DBM_HZ = -174.0
FSPL_MIN_DISTANCE = 1.0  # m, formula validity floor


@dataclass(frozen=True)
class LinkProfile:
    """Radio parameters of one carrier (frequencies in GHz, bandwidth in Hz)."""

    carrier_freq: float
    bandwidth: float
    tx_power: float  # dBm
    noise_figure: float  # dB

    def __post_init__(self):
        if self.carrier_freq <= 0 or self.bandwidth <= 0:
            raise ValueError("carrier_freq and bandwidth must be positive")


@dataclass
class ShadowingField:
    """Log-normal shadowing, spatially correlated along the query path.

    Gauss-Markov update per query: correlation decays as exp(-d/decorrelation)
    with the distance moved since the previous query, so the stationary
    standard deviation is exactly ``sigma`` for any step pattern. Deterministic
    given (seed, query sequence); a zero-distance step repeats the last value.
    """

    sigma: float = 4.0  # dB
    decorrelation_distance: float = 10.0  # m
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.decorrelation_distance <= 0:
            raise ValueError("decorrelation_distance must be positive")
        self._rng = np.random.default_rng(self.seed)
        self._last = None  # [x, y, z] of the previous query, each of shape (1,)
        self._last_val = 0.0

    def sample_at(self, x, y, z):
        """Shadowing in dB at a position, advancing the along-path process.

        Scalars give a float; equal-length arrays give one value per point,
        in path order, equal up to rounding to one scalar call per point.
        """
        scalar = np.ndim(x) == 0
        pos = np.atleast_1d(x, y, z)
        n = len(pos[0])
        if self.sigma == 0.0:
            return 0.0 if scalar else np.zeros(n)
        last = [c[:1] for c in pos] if self._last is None else self._last
        dx, dy, dz = (np.diff(c, prepend=p) for c, p in zip(pos, last))
        # Decay exponent of each step; the first query ever decays fully (rho = 0).
        decay = np.sqrt(dx * dx + dy * dy + dz * dz) / self.decorrelation_distance
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
        return float(val) if scalar else vals


@dataclass(frozen=True)
class ChannelSample:
    """Instantaneous link snapshot; carries every term of its own link budget.

    The single-ray model applies the Doppler shift as a carrier phase rotation
    only, so ``doppler_shift`` never enters ``snr``.
    """

    t: float
    distance_3d: float  # m
    pathloss: float  # dB (free-space term)
    shadowing: float  # dB
    doppler_shift: float  # Hz, positive when closing on the BS
    tx_gain: float  # dB
    rx_gain: float  # dB
    tx_power: float  # dBm
    noise_floor: float  # dBm
    snr: float  # dB


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


def sample_channel(
    profile: LinkProfile,
    ue_state: MobilityState,
    bs_position: tuple[float, float, float],
    tx_gain: float,
    rx_gain: float,
    shadowing: ShadowingField,
    t: float,
) -> ChannelSample:
    """Compose one link-budget snapshot for the given geometry and beam gains."""
    ux, uy, uz = ue_state.position
    bx, by, bz = bs_position
    dx, dy, dz = bx - ux, by - uy, bz - uz
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    pl = fspl_db(dist, profile.carrier_freq)
    sh = shadowing.sample_at(ux, uy, uz)
    vx, vy, vz = ue_state.velocity
    if dist > 0.0:
        closing = (vx * dx + vy * dy + vz * dz) / dist
    else:
        closing = 0.0
    nf = noise_floor_dbm(profile.bandwidth, profile.noise_figure)
    snr = profile.tx_power + tx_gain + rx_gain - pl - sh - nf
    return ChannelSample(
        t=t,
        distance_3d=dist,
        pathloss=pl,
        shadowing=sh,
        doppler_shift=doppler_shift(closing, profile.carrier_freq),
        tx_gain=tx_gain,
        rx_gain=rx_gain,
        tx_power=profile.tx_power,
        noise_floor=nf,
        snr=snr,
    )
