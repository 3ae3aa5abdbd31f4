"""References for the channel stage that share no code with its production path.

- positions: ``np.interp`` over the waypoints, clamped to the end waypoints;
- the refreshed beam: a brute-force argmax over ``dft_codebook`` of the
  inner-product gain ``beam_gain_db``;
- shadowing: the Gauss-Markov recursion one point at a time, over
  ``np.random.default_rng(seed).standard_normal(n)``.
"""

import math

import numpy as np

from uavlink.beamforming import beam_gain_db, dft_codebook

DECORRELATION_DISTANCE = 10.0  # m


def interp_positions(trace, t) -> np.ndarray:
    """Positions at times ``t``, shaped (3, len(t))."""
    times = [p.t for p in trace.points]
    return np.array([np.interp(t, times, [getattr(p, axis) for p in trace.points])
                     for axis in "xyz"])


def best_beam(array, geom):
    """The codebook beam with the largest gain toward ``geom``."""
    beams = dft_codebook(array)
    return beams[int(np.argmax([beam_gain_db(array, b, geom) for b in beams]))]


def best_gain_db(array, geom) -> float:
    """The largest gain of any codebook beam toward ``geom``."""
    return max(beam_gain_db(array, b, geom) for b in dft_codebook(array))


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
