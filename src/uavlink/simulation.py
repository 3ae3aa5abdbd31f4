"""Slot-driven uplink simulation: a channel stage (mobility, beam tracking,
shadowing, link budget) and a MAC stage (CBR source, finite queue, link
adaptation, HARQ) joined by one SNR per slot, then PDCP-level metrics."""

from __future__ import annotations

import csv
import math
import os
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from . import phy
from .beamforming import (
    GAIN_FLOOR_LINEAR,
    ArrayConfig,
    BeamTracker,
    array_basis,
)
from .channel import (
    ChannelSample,
    ShadowingField,
    doppler_shift,
    fspl_db,
    noise_floor_dbm,
)
from .mobility import FlightTrace, TrajectorySampler
from .phy import Outcome, RatProfile, TransportBlock, harq_step

DEFAULT_BS_HEIGHT = 25.0  # m
DEFAULT_PAYLOAD = 1500  # bytes per source packet
DEFAULT_HEADER_OVERHEAD = 28  # bytes, IP + UDP
DEFAULT_BUFFER_LIMIT = 1_090_000  # bytes; calibrates the saturated-queue delay
DEFAULT_SNR_SAMPLE_INTERVAL = 5e-3  # s between recorded channel samples

# Packet outcome codes (the int8 column in MetricsLog).
IN_FLIGHT, DELIVERED, DROPPED_BUFFER, DROPPED_HARQ = 0, 1, 2, 3
OUTCOME_NAMES = ("in_flight", "delivered", "dropped_buffer", "dropped_harq")

PACKET_CSV_HEADER = ("seq", "t_gen_s", "t_deliver_s", "size_bits", "outcome")
SNR_CSV_HEADER = ("t_s", "distance_m", "snr_db", "tx_gain_db", "rx_gain_db")

# One record per recorded channel sample, with ChannelSample's fields.
SAMPLE_DTYPE = np.dtype([(f.name, np.float64) for f in fields(ChannelSample)])

_T_EPS = 1e-9


def check_sim_window(sim_window: float) -> None:
    """Raise ValueError unless the simulated window is finite and non-negative."""
    if not (math.isfinite(sim_window) and sim_window >= 0):
        raise ValueError(f"sim_window must be non-negative and finite, got {sim_window}")


@dataclass
class ScenarioConfig:
    """Everything one simulation run needs; identical configs replay identically."""

    trace: FlightTrace
    profile: RatProfile
    bs_array: ArrayConfig
    uav_array: ArrayConfig
    source_rate: float  # b/s of payload bits
    bs_position: tuple[float, float, float] | None = None  # default: centroid, 25 m
    payload: int = DEFAULT_PAYLOAD  # bytes
    header_overhead: int = DEFAULT_HEADER_OVERHEAD  # bytes
    sim_window: float = 60.0  # s
    seed: int = 0
    shadowing_sigma: float = 4.0  # dB

    def __post_init__(self):
        if not (math.isfinite(self.source_rate) and self.source_rate > 0):
            raise ValueError(f"source_rate must be positive and finite, got {self.source_rate}")
        if self.payload <= 0:
            raise ValueError("payload must be positive")
        if self.header_overhead < 0:
            raise ValueError("header_overhead must be non-negative")
        check_sim_window(self.sim_window)
        if self.bs_position is None:
            cx, cy, _ = self.trace.centroid()
            self.bs_position = (cx, cy, DEFAULT_BS_HEIGHT)


@dataclass
class MetricsLog:
    """Per-packet columns (one row per generated packet, in seq order) and the
    recorded channel samples of one run: ``snr_series.snr`` is a column, and
    each element reads ``.snr``, ``.tx_gain``, ... like a ChannelSample."""

    config: ScenarioConfig
    t_gen: np.ndarray  # float64, s
    t_deliver: np.ndarray  # float64, s; NaN when not delivered
    outcome: np.ndarray  # int8 codes into OUTCOME_NAMES
    packet_bits: int  # payload plus headers
    snr_series: np.recarray  # SAMPLE_DTYPE records

    @property
    def n_packets(self) -> int:
        return int(self.t_gen.shape[0])


@dataclass(frozen=True)
class Summary:
    empty: bool
    generated: int
    delivered: int
    dropped_buffer: int
    dropped_harq: int
    in_flight: int
    throughput_bps: float
    mean_latency_s: float
    median_latency_s: float
    p99_latency_s: float
    loss_fraction: float
    min_snr_db: float
    mean_snr_db: float


def _packet_bits(config: ScenarioConfig) -> int:
    return (config.payload + config.header_overhead) * 8


def _array_sizes(config: ScenarioConfig) -> tuple[int, int]:
    """(slots, packet rows) of a run; ValueError if its arrays exceed physical memory."""
    n_slots = int(round(config.sim_window / config.profile.slot_duration))
    max_pk = int(config.sim_window / (config.payload * 8 / config.source_rate)) + 2
    packet_bytes = max_pk * 17  # t_gen, t_deliver float64; outcome int8
    snr_bytes = n_slots * 8
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if packet_bytes + snr_bytes > physical:
        raise ValueError(f"run needs {packet_bytes} bytes of packet arrays and {snr_bytes} bytes "
                         f"of per-slot SNR, more than the {physical} bytes of physical memory")
    return n_slots, max_pk


def run(config: ScenarioConfig) -> MetricsLog:
    """Execute one scenario end to end: the channel stage, then the MAC stage.

    Deterministic for a fixed config including seed. Raises ValueError, before
    allocating anything, if the run's arrays would exceed physical memory.
    """
    # Independent RNG streams: shadowing draws must not shift when HARQ
    # consumption changes between configs sharing a seed.
    seeder = random.Random(config.seed)
    shadow = ShadowingField(sigma=config.shadowing_sigma, seed=seeder.getrandbits(64))
    harq_rng = random.Random(seeder.getrandbits(64))
    snr, samples = channel_pass(config, shadow)
    t_gen, t_deliver, outcome = mac_pass(config, snr, harq_rng)
    return MetricsLog(config, t_gen, t_deliver, outcome, _packet_bits(config), samples)


def channel_pass(config: ScenarioConfig, shadow: ShadowingField) -> tuple[np.ndarray, np.recarray]:
    """The SNR of every slot, and the channel samples recorded every 5 ms.

    Each slot: sample mobility, refresh or reuse the tracked beam pair, draw
    shadowing, and form the one link budget that drives the MCS and the BLER
    and that a recorded sample logs. Traffic plays no part.
    """
    prof = config.profile
    slot = prof.slot_duration
    n_slots, _ = _array_sizes(config)

    bsx, bsy, bsz = config.bs_position
    cx, cy_, cz_ = config.trace.centroid()
    aim = (cx - bsx, cy_ - bsy, cz_ - bsz)
    if math.hypot(aim[0], aim[1]) < 1.0:  # BS under the mission centroid
        aim = (0.0, 0.0, 1.0)
    (_, bs_ey, bs_ez) = array_basis(aim)
    (_, uav_ey, uav_ez) = array_basis((0.0, 0.0, -1.0))  # facing the ground, no attitude

    tracker = BeamTracker(config.bs_array, config.uav_array)
    sampler = TrajectorySampler(config.trace)

    link = prof.link
    nf = noise_floor_dbm(link.bandwidth, link.noise_figure)
    fc = link.carrier_freq
    tx_power = link.tx_power

    record_every = max(1, round(DEFAULT_SNR_SAMPLE_INTERVAL / slot))
    snr_arr = np.empty(n_slots)
    samples = np.recarray(len(range(0, n_slots, record_every)), dtype=SAMPLE_DTYPE)

    gains_at = tracker.gains_at_cosines
    sample_shadow = shadow.sample_at
    log10 = math.log10
    sqrt = math.sqrt

    seg_t0 = seg_x0 = seg_y0 = seg_z0 = vx = vy = vz = 0.0
    seg_end = -math.inf

    for s in range(n_slots):
        t = s * slot

        # Mobility, LOS geometry in both array frames, tracked beam gains.
        if t >= seg_end:
            seg_t0, seg_x0, seg_y0, seg_z0, vx, vy, vz, seg_end = sampler.segment(t)
        dt_seg = t - seg_t0
        x = seg_x0 + vx * dt_seg
        y = seg_y0 + vy * dt_seg
        z = seg_z0 + vz * dt_seg
        dx, dy, dz = bsx - x, bsy - y, bsz - z
        d2 = dx * dx + dy * dy + dz * dz
        dist = sqrt(d2) if d2 > 0.0 else 1e-9
        inv = 1.0 / dist
        bs_cy = -(dx * bs_ey[0] + dy * bs_ey[1] + dz * bs_ey[2]) * inv
        bs_cz = -(dx * bs_ez[0] + dy * bs_ez[1] + dz * bs_ez[2]) * inv
        uav_cy = (dx * uav_ey[0] + dy * uav_ey[1] + dz * uav_ey[2]) * inv
        uav_cz = (dx * uav_ez[0] + dy * uav_ez[1] + dz * uav_ez[2]) * inv
        gtx, grx = gains_at(t, (bs_cy, bs_cz), (uav_cy, uav_cz))
        sh = sample_shadow(x, y, z)

        tx_db = 10.0 * log10(gtx if gtx > GAIN_FLOOR_LINEAR else GAIN_FLOOR_LINEAR)
        rx_db = 10.0 * log10(grx if grx > GAIN_FLOOR_LINEAR else GAIN_FLOOR_LINEAR)
        pl = fspl_db(dist, fc)
        snr = tx_power + tx_db + rx_db - pl - sh - nf
        snr_arr[s] = snr

        if s % record_every == 0:
            closing = (vx * dx + vy * dy + vz * dz) * inv
            samples[s // record_every] = (
                t, dist, pl, sh, doppler_shift(closing, fc), tx_db, rx_db, tx_power, nf, snr
            )

    return snr_arr, samples


def mac_pass(config: ScenarioConfig, snr, harq_rng: random.Random) -> tuple[np.ndarray, ...]:
    """(t_gen, t_deliver, outcome) of the packets sent over ``snr``, one per slot.

    Each slot: admit the CBR arrivals (tail-drop over the buffer limit), pick
    an MCS, fill a transport block FIFO from the queue (byte-granular, a packet
    may span slots) and resolve HARQ. A failed block stalls the link until its
    retransmission slot; outage slots defer everything.
    """
    prof = config.profile
    slot = prof.slot_duration
    snr_at = np.asarray(snr, dtype=np.float64).item
    n_slots = len(snr)
    pkt_bits = _packet_bits(config)
    interarrival = config.payload * 8 / config.source_rate
    buffer_bits = DEFAULT_BUFFER_LIMIT * 8
    sched = prof.scheduling_delay

    table = prof.mcs_table
    thresholds = [e.snr_threshold for e in table]
    tb_caps = [phy.tb_bits(prof, e) // 8 * 8 for e in table]  # byte-aligned bits

    _, max_pk = _array_sizes(config)
    t_gen_arr = np.zeros(max_pk)
    t_del_arr = np.full(max_pk, np.nan)
    outcome_arr = np.zeros(max_pk, dtype=np.int8)

    queue: deque[list] = deque()  # [pkt_idx, bits_remaining]
    queued_bits = 0
    n_gen = 0
    next_gen = 0.0
    pending: TransportBlock | None = None
    pending_segs: list[tuple[int, bool]] = []
    pending_next = 0
    rng_draw = harq_rng.random

    for s in range(n_slots):
        t = s * slot

        # CBR arrivals up to the slot start; tail-drop over the buffer limit.
        while next_gen <= t + _T_EPS and n_gen < max_pk:
            if queued_bits + pkt_bits <= buffer_bits:
                queue.append([n_gen, pkt_bits])
                queued_bits += pkt_bits
            else:
                outcome_arr[n_gen] = DROPPED_BUFFER
            t_gen_arr[n_gen] = next_gen
            n_gen += 1
            next_gen = n_gen * interarrival

        if pending is None and not queue:
            continue  # nothing to send
        snr_s = snr_at(s)
        mcs_i = bisect_right(thresholds, snr_s) - 1
        if mcs_i < 0:
            continue  # outage: no grant, retransmissions wait too

        # Start a new block only when the link is idle, with packets past the scheduling delay.
        if pending is None:
            cap = tb_caps[mcs_i]
            room = cap
            segs = []
            while room >= 8 and queue:
                pkt = queue[0]
                if sched != 0.0 and t < t_gen_arr[pkt[0]] + sched - _T_EPS:
                    break
                rem = pkt[1]
                if rem <= room:
                    segs.append((pkt[0], True))
                    room -= rem
                    queued_bits -= rem
                    queue.popleft()
                else:
                    pkt[1] = rem - room
                    queued_bits -= room
                    segs.append((pkt[0], False))
                    room = 0
            if segs:
                pending = TransportBlock(bits=cap - room, mcs=mcs_i)
                pending_segs = segs
                pending_next = s

        if pending is not None and s >= pending_next:
            p_err = phy.bler(table[pending.mcs], snr_s)
            result, when = harq_step(pending, p_err, rng_draw(), harq_rtt=prof.harq_rtt,
                                     max_harq_tx=prof.max_harq_tx, current_slot=s)
            if result is Outcome.DELIVERED:
                t_end = t + slot
                for idx, completes in pending_segs:
                    if completes:
                        t_del_arr[idx] = t_end
                        outcome_arr[idx] = DELIVERED
                pending = None
            elif result is Outcome.DROPPED:
                for idx, _ in pending_segs:
                    outcome_arr[idx] = DROPPED_HARQ
                last_idx, last_done = pending_segs[-1]
                if not last_done and queue and queue[0][0] == last_idx:
                    queued_bits -= queue[0][1]
                    queue.popleft()
                pending = None
            else:
                pending_next = when

    return t_gen_arr[:n_gen], t_del_arr[:n_gen], outcome_arr[:n_gen]


def pdcp_throughput(log: MetricsLog, window: float) -> list[tuple[float, float]]:
    """Delivered PDCP bits (payload plus headers) per ``window``, as b/s bins."""
    if window <= 0:
        raise ValueError("window must be positive")
    sim_window = log.config.sim_window
    n_bins = max(1, math.ceil(sim_window / window - _T_EPS)) if sim_window > 0 else 0
    td = log.t_deliver[log.outcome == DELIVERED]
    packets = np.bincount(np.minimum((td / window).astype(np.int64), n_bins - 1), minlength=n_bins)
    return [(i * window, n * log.packet_bits / window) for i, n in enumerate(packets.tolist())]


def latency_series(log: MetricsLog, interval: float) -> list[tuple[float, float]]:
    """Mean one-way latency per interval of generation time; NaN marks gaps."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    sim_window = log.config.sim_window
    n_bins = max(1, math.ceil(sim_window / interval - _T_EPS)) if sim_window > 0 else 0
    delivered = log.outcome == DELIVERED
    tg, td = log.t_gen[delivered], log.t_deliver[delivered]
    bins = np.minimum((tg / interval).astype(np.int64), n_bins - 1)
    sums = np.bincount(bins, weights=td - tg, minlength=n_bins).tolist()  # summed in order
    counts = np.bincount(bins, minlength=n_bins).tolist()
    return [(i * interval, s / c if c else math.nan) for i, (s, c) in enumerate(zip(sums, counts))]


def summarize(log: MetricsLog) -> Summary:
    """Mission-level statistics, recomputed from the packet columns every call."""
    n = log.n_packets
    snrs = log.snr_series.snr.tolist()
    if n == 0 and not snrs:
        return Summary(True, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    counts = np.bincount(log.outcome, minlength=len(OUTCOME_NAMES)).tolist()
    in_flight, delivered, dropped_buffer, dropped_harq = counts
    delivered_mask = log.outcome == DELIVERED
    window = log.config.sim_window
    throughput = float(delivered * log.packet_bits) / window if window > 0 else 0.0
    if delivered:
        lat = log.t_deliver[delivered_mask] - log.t_gen[delivered_mask]
        mean_lat = float(lat.mean())
        median_lat = float(np.median(lat))
        p99_lat = float(np.percentile(lat, 99))
    else:
        mean_lat = median_lat = p99_lat = 0.0
    return Summary(
        empty=False,
        generated=n,
        delivered=delivered,
        dropped_buffer=dropped_buffer,
        dropped_harq=dropped_harq,
        in_flight=in_flight,
        throughput_bps=throughput,
        mean_latency_s=mean_lat,
        median_latency_s=median_lat,
        p99_latency_s=p99_lat,
        loss_fraction=(dropped_buffer + dropped_harq) / n if n else 0.0,
        min_snr_db=min(snrs) if snrs else 0.0,
        mean_snr_db=sum(snrs) / len(snrs) if snrs else 0.0,
    )


def _rows(*columns):
    """Rows of equal-length arrays as plain Python scalars, a chunk at a time; csv
    writes a numpy scalar as ``np.float64(...)``, a plain float as its repr."""
    for start in range(0, len(columns[0]), 65536):
        yield from zip(*(c[start:start + 65536].tolist() for c in columns))


def write_packet_log(log: MetricsLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PACKET_CSV_HEADER)
        writer.writerows(
            (i, tg, "" if math.isnan(td) else td, log.packet_bits, OUTCOME_NAMES[o])
            for i, (tg, td, o) in enumerate(_rows(log.t_gen, log.t_deliver, log.outcome))
        )


def write_snr_trace(log: MetricsLog, path) -> None:
    rec = log.snr_series
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SNR_CSV_HEADER)
        writer.writerows(_rows(rec.t, rec.distance_3d, rec.snr, rec.tx_gain, rec.rx_gain))
