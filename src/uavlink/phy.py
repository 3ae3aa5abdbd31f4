"""Link adaptation, transport-block sizing, block errors, and HARQ timing for
the mmWave and LTE-class radio profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import LinkProfile

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

# Peak PHY rates the per-profile overhead factors are calibrated against.
MMWAVE_PEAK_RATE = 3.2e9  # b/s at 1 GHz and the top MCS
LTE_PEAK_RATE = 75.2e6  # b/s at 20 MHz and the top MCS


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


@dataclass(frozen=True)
class RatProfile:
    """Frame-level parameters of one radio access technology."""

    name: str
    link: LinkProfile
    slot_duration: float  # s
    efficiency_factor: float  # control/reference overhead, calibrated
    harq_rtt: int  # slots between retransmission attempts
    max_harq_tx: int
    scheduling_delay: float  # s added before a packet's first transmission; whole slots
    mcs_table: tuple[McsEntry, ...]

    def __post_init__(self):
        if not 0 < self.efficiency_factor <= 1:
            raise ValueError("efficiency_factor must be in (0, 1]")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        wait = self.scheduling_delay / self.slot_duration
        if not (math.isfinite(wait) and wait >= 0 and abs(wait - round(wait)) < 1e-9):
            raise ValueError(f"scheduling_delay must be whole slots >= 0: {self.scheduling_delay}")


def shannon_gap_threshold(se: float) -> float:
    """SNR needed for spectral efficiency ``se`` plus the implementation margin."""
    return 10.0 * math.log10(2.0**se - 1.0) + SHANNON_GAP_DB


def build_mcs_table() -> tuple[McsEntry, ...]:
    ratio = (SE_TOP / SE_BOTTOM) ** (1.0 / (MCS_TABLE_SIZE - 1))
    return tuple(McsEntry(se, shannon_gap_threshold(se))
                 for se in (SE_BOTTOM * ratio**i for i in range(MCS_TABLE_SIZE)))


_DEFAULT_TABLE = build_mcs_table()


def tb_bits(profile: RatProfile, mcs: McsEntry) -> int:
    """Transport-block capacity of one slot at the given MCS."""
    raw = (
        mcs.spectral_efficiency
        * profile.link.bandwidth
        * profile.slot_duration
        * profile.efficiency_factor
    )
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


def mmwave_profile() -> RatProfile:
    """28 GHz / 1 GHz NR-like profile with a 125 us slot.

    The overhead factor is calibrated once so the top MCS carries exactly
    400000 bits per slot, a 3.2 Gb/s peak PHY rate.
    """
    link = LinkProfile(carrier_freq=28.0, bandwidth=1e9, tx_power=30.0, noise_figure=5.0)
    slot = 125e-6
    return RatProfile(
        name="mmwave",
        link=link,
        slot_duration=slot,
        efficiency_factor=MMWAVE_PEAK_RATE / (SE_TOP * link.bandwidth),
        harq_rtt=4,
        max_harq_tx=3,
        scheduling_delay=0.0,
        mcs_table=_DEFAULT_TABLE,
    )


def lte_profile() -> RatProfile:
    """2.1 GHz / 20 MHz LTE-class profile: 1 ms TTI and a 4 ms grant cycle.

    Calibrated to a 75.2 Mb/s peak PHY rate (75200 bits per TTI at the top
    MCS); the frame design cannot reach sub-ms latency by construction.
    """
    link = LinkProfile(carrier_freq=2.1, bandwidth=20e6, tx_power=30.0, noise_figure=5.0)
    slot = 1e-3
    return RatProfile(
        name="lte",
        link=link,
        slot_duration=slot,
        efficiency_factor=LTE_PEAK_RATE / (SE_TOP * link.bandwidth),
        harq_rtt=4,
        max_harq_tx=3,
        scheduling_delay=4e-3,
        mcs_table=_DEFAULT_TABLE,
    )


# The radio profiles by name; the first is the default.
PROFILES = {"mmwave": mmwave_profile, "lte": lte_profile}


def profile_by_name(name: str) -> RatProfile:
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}, expected {' or '.join(PROFILES)}")
    return PROFILES[name]()
