"""Slot-driven uplink simulation: CBR source, finite transmit queue, beam
tracking, link adaptation, HARQ, and PDCP-level metrics."""

from __future__ import annotations

import csv
import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

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

_T_EPS = 1e-9


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
    buffer_limit: int = DEFAULT_BUFFER_LIMIT  # bytes of queued packets
    seed: int = 0
    shadowing_sigma: float = 4.0  # dB
    shadowing_decorrelation: float = 10.0  # m
    snr_sample_interval: float = DEFAULT_SNR_SAMPLE_INTERVAL  # s

    def __post_init__(self):
        if not (math.isfinite(self.source_rate) and self.source_rate > 0):
            raise ValueError(f"source_rate must be positive and finite, got {self.source_rate}")
        if self.payload <= 0:
            raise ValueError("payload must be positive")
        if self.header_overhead < 0:
            raise ValueError("header_overhead must be non-negative")
        if self.buffer_limit <= 0:
            raise ValueError("buffer_limit must be positive")
        if not (math.isfinite(self.sim_window) and self.sim_window >= 0):
            raise ValueError(f"sim_window must be non-negative and finite, got {self.sim_window}")
        if self.snr_sample_interval <= 0:
            raise ValueError("snr_sample_interval must be positive")
        if self.bs_position is None:
            cx, cy, _ = self.trace.centroid()
            self.bs_position = (cx, cy, DEFAULT_BS_HEIGHT)


@dataclass
class MetricsLog:
    """Per-packet and per-sample output of one run.

    Packet state is stored columnar (one row per generated packet, in seq
    order) so that gigabit-rate runs stay cheap to hold and to summarize.
    """

    config: ScenarioConfig
    t_gen: np.ndarray  # float64, s
    t_deliver: np.ndarray  # float64, s; NaN when not delivered
    size_bits: np.ndarray  # int64
    outcome: np.ndarray  # int8 codes into OUTCOME_NAMES
    snr_series: list[ChannelSample] = field(default_factory=list)

    @property
    def n_packets(self) -> int:
        return int(self.t_gen.shape[0])

    @property
    def summary(self) -> "Summary":
        return summarize(self)


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


def run(config: ScenarioConfig) -> MetricsLog:
    """Execute one scenario end to end.

    Each slot: sample mobility, refresh or reuse the tracked beam pair, draw
    shadowing, form the SNR, pick an MCS, fill a transport block FIFO from the
    queue (byte-granular, a packet may span slots), and resolve HARQ. A failed
    block stalls the link until its retransmission slot; outage slots defer
    everything. Deterministic for a fixed config including seed.
    """
    prof = config.profile
    slot = prof.slot_duration
    n_slots = int(round(config.sim_window / slot))
    pkt_bits = (config.payload + config.header_overhead) * 8
    interarrival = config.payload * 8 / config.source_rate
    buffer_bits = config.buffer_limit * 8
    sched = prof.scheduling_delay
    rtt = prof.harq_rtt
    max_tx = prof.max_harq_tx

    table = prof.mcs_table
    thresholds = [e.snr_threshold for e in table]
    tb_caps = [phy.tb_bits(prof, e) // 8 * 8 for e in table]  # byte-aligned bits

    # Independent RNG streams: shadowing draws must not shift when HARQ
    # consumption changes between configs sharing a seed.
    seeder = random.Random(config.seed)
    shadow_seed = seeder.getrandbits(64)
    harq_rng = random.Random(seeder.getrandbits(64))
    shadow = ShadowingField(
        sigma=config.shadowing_sigma,
        decorrelation_distance=config.shadowing_decorrelation,
        seed=shadow_seed,
    )

    bsx, bsy, bsz = config.bs_position
    cx, cy_, cz_ = config.trace.centroid()
    aim = (cx - bsx, cy_ - bsy, cz_ - bsz)
    if math.hypot(aim[0], aim[1]) < 1.0:  # BS under the mission centroid
        aim = (0.0, 0.0, 1.0)
    bs_basis = array_basis(aim)
    uav_basis = array_basis((0.0, 0.0, -1.0))  # facing the ground, no attitude
    (_, bs_ey, bs_ez) = bs_basis
    (_, uav_ey, uav_ez) = uav_basis

    tracker = BeamTracker(config.bs_array, config.uav_array)
    sampler = TrajectorySampler(config.trace)

    link = prof.link
    nf = noise_floor_dbm(link.bandwidth, link.noise_figure)
    fc = link.carrier_freq
    tx_power = link.tx_power

    record_every = max(1, round(config.snr_sample_interval / slot))

    max_pk = int(config.sim_window / interarrival) + 2
    t_gen_arr = np.zeros(max_pk)
    t_del_arr = np.full(max_pk, np.nan)
    outcome_arr = np.zeros(max_pk, dtype=np.int8)
    samples: list[ChannelSample] = []

    queue: deque[list] = deque()  # [pkt_idx, bits_remaining]
    queued_bits = 0
    n_gen = 0
    next_gen = 0.0
    pending: TransportBlock | None = None
    pending_segs: list[tuple[int, bool]] = []
    pending_next = 0

    rng_draw = harq_rng.random
    gains_at = tracker.gains_at_cosines
    sample_shadow = shadow.sample_at
    log10 = math.log10
    sqrt = math.sqrt

    seg_t0 = seg_x0 = seg_y0 = seg_z0 = vx = vy = vz = 0.0
    seg_end = -math.inf

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

        # The one link budget of the slot: it drives the MCS and the BLER and
        # is what a recorded sample logs.
        tx_db = 10.0 * log10(gtx if gtx > GAIN_FLOOR_LINEAR else GAIN_FLOOR_LINEAR)
        rx_db = 10.0 * log10(grx if grx > GAIN_FLOOR_LINEAR else GAIN_FLOOR_LINEAR)
        pl = fspl_db(dist, fc)
        snr = tx_power + tx_db + rx_db - pl - sh - nf

        if s % record_every == 0:
            closing = (vx * dx + vy * dy + vz * dz) * inv
            samples.append(
                ChannelSample(
                    t=t,
                    distance_3d=dist,
                    pathloss=pl,
                    shadowing=sh,
                    doppler_shift=doppler_shift(closing, fc),
                    tx_gain=tx_db,
                    rx_gain=rx_db,
                    tx_power=tx_power,
                    noise_floor=nf,
                    snr=snr,
                )
            )

        mcs_i = bisect_right(thresholds, snr) - 1
        if mcs_i < 0:
            continue  # outage: no grant, retransmissions wait too

        # Start a new transport block only when the link is idle.
        if pending is None and queue:
            head_idx = queue[0][0]
            if sched == 0.0 or t >= t_gen_arr[head_idx] + sched - _T_EPS:
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
                    pending = TransportBlock(bits=cap - room, mcs=mcs_i, created_slot=s)
                    pending_segs = segs
                    pending_next = s

        if pending is not None and s >= pending_next:
            p_err = phy.bler(table[pending.mcs], snr)
            result, when = harq_step(
                pending,
                p_err,
                rng_draw(),
                harq_rtt=rtt,
                max_harq_tx=max_tx,
                current_slot=s,
            )
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

    log = MetricsLog(
        config=config,
        t_gen=t_gen_arr[:n_gen],
        t_deliver=t_del_arr[:n_gen],
        size_bits=np.full(n_gen, pkt_bits, dtype=np.int64),
        outcome=outcome_arr[:n_gen],
        snr_series=samples,
    )
    return log


def pdcp_throughput(log: MetricsLog, window: float) -> list[tuple[float, float]]:
    """Delivered PDCP bits (payload plus headers) per ``window``, as b/s bins."""
    if window <= 0:
        raise ValueError("window must be positive")
    sim_window = log.config.sim_window
    n_bins = max(1, math.ceil(sim_window / window - _T_EPS)) if sim_window > 0 else 0
    bins = [0.0] * n_bins
    delivered = log.outcome == DELIVERED
    for td, size in zip(log.t_deliver[delivered], log.size_bits[delivered]):
        i = min(int(td / window), n_bins - 1)
        bins[i] += float(size)
    return [(i * window, b / window) for i, b in enumerate(bins)]


def latency_series(log: MetricsLog, interval: float) -> list[tuple[float, float]]:
    """Mean one-way latency per interval of generation time; NaN marks gaps."""
    if interval <= 0:
        raise ValueError("interval must be positive")
    sim_window = log.config.sim_window
    n_bins = max(1, math.ceil(sim_window / interval - _T_EPS)) if sim_window > 0 else 0
    sums = [0.0] * n_bins
    counts = [0] * n_bins
    delivered = log.outcome == DELIVERED
    for tg, td in zip(log.t_gen[delivered], log.t_deliver[delivered]):
        i = min(int(tg / interval), n_bins - 1)
        sums[i] += td - tg
        counts[i] += 1
    return [
        (i * interval, sums[i] / counts[i] if counts[i] else math.nan)
        for i in range(n_bins)
    ]


def summarize(log: MetricsLog) -> Summary:
    """Mission-level statistics, recomputed from the packet columns every call."""
    n = log.n_packets
    snrs = [s.snr for s in log.snr_series]
    if n == 0 and not snrs:
        return Summary(True, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    delivered_mask = log.outcome == DELIVERED
    delivered = int(delivered_mask.sum())
    dropped_buffer = int((log.outcome == DROPPED_BUFFER).sum())
    dropped_harq = int((log.outcome == DROPPED_HARQ).sum())
    in_flight = n - delivered - dropped_buffer - dropped_harq
    window = log.config.sim_window
    throughput = float(log.size_bits[delivered_mask].sum()) / window if window > 0 else 0.0
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


def write_packet_log(log: MetricsLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PACKET_CSV_HEADER)
        for i in range(log.n_packets):
            td = float(log.t_deliver[i])
            writer.writerow(
                [
                    i,
                    repr(float(log.t_gen[i])),
                    "" if math.isnan(td) else repr(td),
                    int(log.size_bits[i]),
                    OUTCOME_NAMES[int(log.outcome[i])],
                ]
            )


def write_snr_trace(log: MetricsLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SNR_CSV_HEADER)
        for s in log.snr_series:
            writer.writerow(
                [repr(s.t), repr(s.distance_3d), repr(s.snr), repr(s.tx_gain), repr(s.rx_gain)]
            )
