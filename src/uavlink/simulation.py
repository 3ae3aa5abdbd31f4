"""Slot-driven uplink simulation: a channel stage (mobility, beam tracking,
shadowing, link budget) and a MAC stage (CBR source, finite queue, link
adaptation, HARQ) joined by one SNR per slot, then PDCP-level metrics."""

from __future__ import annotations

import math
import os
import random
from collections import deque
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import phy
from .beamforming import (
    GAIN_FLOOR_LINEAR,
    ArrayConfig,
    BeamTracker,
    array_basis,
)
from .channel import ShadowingField, doppler_shift, fspl_db, noise_floor_dbm
from .mobility import FlightTrace, TrajectorySampler
from .phy import Outcome, RatProfile, TransportBlock, harq_step

DEFAULT_BS_HEIGHT = 25.0  # m
# BS placements: offset in m along +x from the mission centroid; the first is the default.
BS_OFFSETS = {"on_premise": 0.0, "distant_2km": 2000.0}
DEFAULT_PAYLOAD = 1500  # bytes per source packet
DEFAULT_HEADER_OVERHEAD = 28  # bytes, IP + UDP
DEFAULT_BUFFER_LIMIT = 1_090_000  # bytes; calibrates the saturated-queue delay
DEFAULT_SNR_SAMPLE_INTERVAL = 5e-3  # s between recorded channel samples

# Packet outcome codes (the int8 column in MetricsLog).
IN_FLIGHT, DELIVERED, DROPPED_BUFFER, DROPPED_HARQ = 0, 1, 2, 3
OUTCOME_NAMES = ("in_flight", "delivered", "dropped_buffer", "dropped_harq")

PACKET_CSV_HEADER = ("seq", "t_gen_s", "t_deliver_s", "size_bits", "outcome")
SNR_CSV_HEADER = ("t_s", "distance_m", "snr_db", "tx_gain_db", "rx_gain_db")

# One record per recorded channel sample, every term of its own link budget:
# time (s), distance (m), pathloss and shadowing (dB), Doppler (Hz, positive when
# closing on the BS), tx and rx gains (dB), tx power and noise floor (dBm), SNR
# (dB). Doppler is a carrier phase rotation only, so it never enters snr.
SAMPLE_DTYPE = np.dtype([(name, np.float64) for name in (
    "t", "distance_3d", "pathloss", "shadowing", "doppler_shift", "tx_gain", "rx_gain",
    "tx_power", "noise_floor", "snr")])

_T_EPS = 1e-9
_CHUNK_SLOTS = 2048  # channel-stage chunk; its temporaries add to peak RSS (4096: +2.8 %)
_MIN_SCAN_SLOTS = 8  # a shorter MAC scan doubles the slot-by-slot run before the next one
_WRITE_ROWS = 8192  # CSV rows per write (65536: +15 MB peak RSS, 120 s 10 Mb/s run)


def bs_position_for(trace: FlightTrace, placement: str) -> tuple[float, float, float]:
    if placement not in BS_OFFSETS:
        raise ValueError(f"unknown placement {placement!r}, expected {' or '.join(BS_OFFSETS)}")
    cx, cy, _ = trace.centroid()
    return (cx + BS_OFFSETS[placement], cy, DEFAULT_BS_HEIGHT)


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
    bs_position: tuple[float, float, float] | None = None  # default: the default placement
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
        if not math.isfinite(self.payload * 8 / self.source_rate):
            raise ValueError(f"source_rate {self.source_rate} is too small: "
                             "the packet interarrival time overflows")
        if self.header_overhead < 0:
            raise ValueError("header_overhead must be non-negative")
        check_sim_window(self.sim_window)
        if self.bs_position is None:
            self.bs_position = bs_position_for(self.trace, next(iter(BS_OFFSETS)))


@dataclass
class MetricsLog:
    """Per-packet columns (one row per generated packet, in seq order) and the
    recorded channel samples of one run: ``snr_series.snr`` is a column, and
    each element reads ``.snr``, ``.tx_gain``, ... (the SAMPLE_DTYPE fields)."""

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

    Computed in chunks of slots as arrays: mobility, the tracked beam pair
    (refreshed at the first slot of each update period), shadowing, and the
    one link budget that drives the MCS and the BLER and that a recorded
    sample logs. Tracker, sampler and shadowing state carry from one chunk to
    the next. Traffic plays no part.
    """
    prof = config.profile
    slot = prof.slot_duration
    n_slots, _ = _array_sizes(config)

    bs = np.reshape(config.bs_position, (3, 1))
    aim = tuple(np.subtract(config.trace.centroid(), config.bs_position).tolist())
    if math.hypot(aim[0], aim[1]) < 1.0:  # BS under the mission centroid
        aim = (0.0, 0.0, 1.0)
    (_, bs_ey, bs_ez) = array_basis(aim)
    (_, uav_ey, uav_ez) = array_basis((0.0, 0.0, -1.0))  # facing the ground, no attitude
    # Cosines of the BS->UAV ray in the BS frame and of the UAV->BS ray in the UAV frame.
    axes = (np.negative(bs_ey), np.negative(bs_ez), uav_ey, uav_ez)

    tracker = BeamTracker(config.bs_array, config.uav_array)
    sampler = TrajectorySampler(config.trace)

    link = prof.link
    nf = noise_floor_dbm(link.bandwidth, link.noise_figure)
    fc = link.carrier_freq

    record_every = max(1, round(DEFAULT_SNR_SAMPLE_INTERVAL / slot))
    snr_arr = np.empty(n_slots)
    samples = np.empty(len(range(0, n_slots, record_every)), dtype=SAMPLE_DTYPE)
    samples["tx_power"], samples["noise_floor"] = link.tx_power, nf

    for s0 in range(0, n_slots, _CHUNK_SLOTS):
        t = np.arange(s0, min(s0 + _CHUNK_SLOTS, n_slots)) * slot
        pos, vel = sampler.track(t)
        # LOS geometry in both array frames, the tracked beam gains, shadowing.
        dx, dy, dz = bs - pos
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        dist[dist == 0.0] = 1e-9
        inv = 1.0 / dist
        bs_cy, bs_cz, uav_cy, uav_cz = ((dx * e[0] + dy * e[1] + dz * e[2]) * inv for e in axes)
        gtx, grx = tracker.gains_at_cosines(t, (bs_cy, bs_cz), (uav_cy, uav_cz))
        sh = shadow.sample_at(*pos)

        tx_db = 10.0 * np.log10(np.maximum(gtx, GAIN_FLOOR_LINEAR))
        rx_db = 10.0 * np.log10(np.maximum(grx, GAIN_FLOOR_LINEAR))
        pl = fspl_db(dist, fc)
        snr = link.tx_power + tx_db + rx_db - pl - sh - nf
        snr_arr[s0:s0 + len(t)] = snr

        # Recorded samples: every record_every-th slot of the run.
        sel = slice(-s0 % record_every, None, record_every)
        rec = samples[-(-s0 // record_every):][:len(t[sel])]
        vx, vy, vz = vel[:, sel]
        closing = (vx * dx[sel] + vy * dy[sel] + vz * dz[sel]) * inv[sel]
        rec["doppler_shift"] = doppler_shift(closing, fc)
        for name, col in (("t", t), ("distance_3d", dist), ("pathloss", pl), ("shadowing", sh),
                          ("tx_gain", tx_db), ("rx_gain", rx_db), ("snr", snr)):
            rec[name] = col[sel]

    return snr_arr, samples.view(np.recarray)


def packets_generated(slots: np.ndarray, slot: float, interarrival: float,
                      max_pk: int) -> np.ndarray:
    """Packets generated by the start of each slot ``s``, at most ``max_pk``: the
    closed form ``floor((s * slot + 1e-9) / interarrival) + 1`` settled by the
    exact test of packet ``n``, ``n * interarrival <= s * slot + 1e-9``."""
    lim = slots * slot + _T_EPS
    n = np.clip(np.floor(lim / interarrival) + 1, 0, max_pk).astype(np.int64)
    while True:
        more = (n < max_pk) & (n * interarrival <= lim)
        fewer = (n > 0) & ((n - 1) * interarrival > lim)
        if not (more.any() or fewer.any()):
            return n
        n += more
        n -= fewer


def mac_pass(config: ScenarioConfig, snr, harq_rng: random.Random) -> tuple[np.ndarray, ...]:
    """(t_gen, t_deliver, outcome) of the packets sent over ``snr``, one per slot.

    Each slot: admit the CBR arrivals (tail-drop over the buffer limit), pick
    an MCS, fill a transport block FIFO from the queue (byte-granular, a packet
    may span slots) and resolve HARQ. A failed block stalls the link until its
    retransmission slot; outage slots defer everything.

    With no block pending, the slots up to the next event, at most a chunk, are
    one integer prefix scan: the bits sent by the end of slot ``s``, ``D[s] =
    min(A[s], D[s-1] + c[s])``, are ``C[s] + min(0, min(A[:s+1] - C[:s+1]))``
    for the cumulative capacity ``C`` and bits admitted ``wait`` slots earlier
    ``A``. A slot whose ``D`` grows sends a block; a packet completes in the
    first slot whose ``D`` reaches its end. An event (a failed first attempt,
    arrivals that overflow the buffer, a queue with gaps from drops) goes to the
    slot-by-slot code until no block is pending.
    """
    prof = config.profile
    slot = prof.slot_duration
    snr = np.asarray(snr, dtype=np.float64)
    n_slots = len(snr)
    pkt_bits = _packet_bits(config)
    interarrival = config.payload * 8 / config.source_rate
    buffer_bits = DEFAULT_BUFFER_LIMIT * 8
    wait = round(prof.scheduling_delay / slot)  # a whole number of slots (RatProfile)

    table = prof.mcs_table
    thresholds = np.array([e.snr_threshold for e in table])
    tb_caps = [phy.tb_bits(prof, e) // 8 * 8 for e in table]  # byte-aligned bits
    caps = np.array(tb_caps + [0])  # caps[-1]: no grant in outage

    _, max_pk = _array_sizes(config)
    t_del_arr = np.full(max_pk, np.nan)
    outcome_arr = np.zeros(max_pk, dtype=np.int8)

    draws, di = [], 0  # HARQ uniforms drawn ahead, used in attempt order from draws[di]
    queue: deque[list] = deque()  # [first, end) ranges of admitted packet indices
    head_sent = 0  # bits of packet queue[0][0] already placed in a block
    queued_bits = 0
    n_gen = 0
    pending: TransportBlock | None = None
    pending_next = 0
    c0 = c1 = 0  # the chunk [c0, c1) of slots whose per-slot arrays are at hand
    next_scan, backoff, span = 0, 0, _CHUNK_SLOTS

    nxt = 0
    while nxt < n_slots:
        if nxt >= c1:
            c0, c1 = nxt, min(nxt + _CHUNK_SLOTS, n_slots)
            mcs_c = thresholds.searchsorted(snr[c0:c1], side="right") - 1
            cap_c = np.cumsum(caps[mcs_c])
            # Packets a block may take in each slot; gen_c[wait:] have arrived by it.
            gen_c = packets_generated(np.arange(c0 - wait, c1), slot, interarrival, max_pk)
            bits_c = gen_c * pkt_bits
            t_end_c = np.arange(c0, c1) * slot + slot  # the delivery time of each slot
            mcs_l, gen_l, snr_l = mcs_c.tolist(), gen_c.tolist(), snr[c0:c1].tolist()
            # A slot makes at most one attempt: top the uniforms drawn ahead up to a chunk.
            draws = draws[di:] + [harq_rng.random() for _ in range(c1 - c0 + di - len(draws))]
            di = 0

        if pending is None and nxt >= next_scan:
            i, head = nxt - c0, queue[0][0] if queue else n_gen
            w = min(c1 - c0, i + span)  # it looks at slots [nxt, c0 + w); short scans, short arrays
            stop = 0  # and resolves slots [nxt, nxt + stop)
            if all(a[1] == b[0] for a, b in pairwise([*queue, [n_gen]])):  # no gap from drops
                base = head * pkt_bits + head_sent
                sent = np.minimum.accumulate(np.maximum(bits_c[i:w] - base, 0) - cap_c[i:w])
                sent = cap_c[i:w] + np.minimum(sent, -cap_c[i - 1] if i else 0)
                before = np.concatenate(([0], sent[:-1]))
                overflow = bits_c[wait + i:wait + w] - before > base + buffer_bits
                stop = int(overflow.argmax()) if overflow.any() else w - i
                blocks = ((sent[:stop] > before[:stop]).nonzero()[0] + i).tolist()
                for j, u in zip(blocks, draws[di:di + len(blocks)]):  # first attempts, in order
                    if u < phy.bler(table[mcs_l[j]], snr_l[j]):
                        stop = j - i
                        break
                    di += 1
            if stop:
                done, rest = divmod(int(sent[stop - 1]) + head_sent, pkt_bits)
                # Packet head + k completes in the first slot with (k + 1) * pkt_bits sent.
                ends = np.arange(pkt_bits - head_sent, done * pkt_bits - head_sent + 1, pkt_bits)
                t_del_arr[head:head + done] = t_end_c[i:i + stop][sent.searchsorted(ends)]
                outcome_arr[head:head + done] = DELIVERED
                n_gen = gen_l[wait + i + stop - 1]
                head, head_sent = head + done, rest
                queue = deque([[head, n_gen]] if head < n_gen else [])
                queued_bits = (n_gen - head) * pkt_bits - head_sent
            nxt += stop
            if stop < w - i:  # an event at slot nxt
                backoff = 0 if stop >= _MIN_SCAN_SLOTS else min(2 * backoff or _MIN_SCAN_SLOTS,
                                                                 _CHUNK_SLOTS)
                next_scan, span = nxt + 1 + backoff, max(2 * stop, 8 * _MIN_SCAN_SLOTS)
            else:
                span *= 2
            continue

        s, nxt = nxt, nxt + 1
        j = s - c0

        # CBR arrivals up to the slot start; tail drops.
        n = gen_l[wait + j]
        if n > n_gen:
            admit = n_gen + (buffer_bits - queued_bits) // pkt_bits
            if admit < n:
                outcome_arr[admit:n] = DROPPED_BUFFER
            else:
                admit = n
            if admit > n_gen:
                queue.append([n_gen, admit])
                queued_bits += (admit - n_gen) * pkt_bits
            n_gen = n

        mcs_i = mcs_l[j]
        if mcs_i < 0:
            continue  # outage: no grant, retransmissions wait too

        # Start a new block only when the link is idle, with the packets of ``wait`` slots ago.
        if pending is None:
            ready = gen_l[j]
            cap = room = tb_caps[mcs_i]
            pending_done = []  # [first, end) ranges of the packets the block completes
            while room and queue:  # every size is a multiple of 8 bits
                r = queue[0]
                first, end = r
                if end > ready:
                    end = ready
                if first >= end:
                    break
                take = min(room, (end - first) * pkt_bits - head_sent)
                k, head_sent = divmod(head_sent + take, pkt_bits)
                room -= take
                queued_bits -= take
                pending_done.append((first, first + k))
                r[0] = first + k
                if r[0] == r[1]:
                    queue.popleft()
            if room < cap:
                pending = TransportBlock(bits=cap - room, mcs=mcs_i)
                pending_next = s

        if pending is not None and s >= pending_next:
            p_err = phy.bler(table[pending.mcs], snr_l[j])
            result, when = harq_step(pending, p_err, draws[di], harq_rtt=prof.harq_rtt,
                                     max_harq_tx=prof.max_harq_tx, current_slot=s)
            di += 1
            if result is Outcome.DELIVERED:
                for a, b in pending_done:
                    at = a if b - a == 1 else slice(a, b)  # an item sets faster than a slice
                    t_del_arr[at] = t_end_c[j]
                    outcome_arr[at] = DELIVERED
            elif result is Outcome.DROPPED:
                if head_sent:  # the block ends in part of the head packet: drop all of it
                    r = queue[0]
                    pending_done.append((r[0], r[0] + 1))
                    queued_bits -= pkt_bits - head_sent
                    head_sent = 0
                    r[0] += 1
                    if r[0] == r[1]:
                        queue.popleft()
                for a, b in pending_done:
                    outcome_arr[a:b] = DROPPED_HARQ
            else:
                pending_next = when
                continue
            pending = None

    t_gen = np.arange(n_gen, dtype=np.float64)
    t_gen *= interarrival  # bit-equal to n * interarrival
    return t_gen, t_del_arr[:n_gen], outcome_arr[:n_gen]


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
        lat, at = log.t_deliver[delivered_mask], 0  # the one latency-sized array
        for r0 in range(0, n, _WRITE_ROWS):  # less t_gen, a chunk at a time
            t_gen = log.t_gen[r0:r0 + _WRITE_ROWS][delivered_mask[r0:r0 + _WRITE_ROWS]]
            lat[at:at + len(t_gen)] -= t_gen
            at += len(t_gen)
        mean_lat = float(lat.mean())  # before the order statistics reorder lat
        median_lat = float(np.median(lat, overwrite_input=True))
        p99_lat = float(np.percentile(lat, 99, overwrite_input=True))
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
    """The packet columns as ``csv.writer`` writes them: repr floats, NaN as ""."""
    tails = [f",{log.packet_bits},{name}\r\n" for name in OUTCOME_NAMES]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(PACKET_CSV_HEADER) + "\r\n")
        for s0 in range(0, log.n_packets, _WRITE_ROWS):
            rows = slice(s0, s0 + _WRITE_ROWS)
            # A slot delivers at one time, so format each distinct time once.
            t_del, inverse = np.unique(log.t_deliver[rows], return_inverse=True)
            t_del_text = ["" if math.isnan(v) else repr(v) for v in t_del.tolist()]
            fh.write("".join(map("{},{},{}{}".format, range(s0, s0 + _WRITE_ROWS),
                                 log.t_gen[rows].tolist(),
                                 map(t_del_text.__getitem__, inverse.tolist()),
                                 map(tails.__getitem__, log.outcome[rows].tolist()))))


def write_snr_trace(log: MetricsLog, path) -> None:
    rec = log.snr_series
    cols = (rec.t, rec.distance_3d, rec.snr, rec.tx_gain, rec.rx_gain)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(SNR_CSV_HEADER) + "\r\n")
        for s0 in range(0, len(rec), _WRITE_ROWS):
            fh.write("".join(map("{},{},{},{},{}\r\n".format,
                                 *(c[s0:s0 + _WRITE_ROWS].tolist() for c in cols))))
