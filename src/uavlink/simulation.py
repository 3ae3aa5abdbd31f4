"""Slot-driven uplink simulation: a channel stage (mobility, beam tracking,
shadowing, link budget) and a MAC stage (CBR source, finite queue, link
adaptation, HARQ) joined by one SNR per slot, then PDCP-level metrics."""

from __future__ import annotations

import math
import os
import random
import shutil
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import phy
from .beamforming import (
    GAIN_FLOOR_LINEAR,
    ArrayConfig,
    BeamTracker,
    array_basis,
)
from .channel import ShadowingField, doppler_shift, fspl_db, noise_floor_dbm
from .mobility import _WRITE_ROWS, FlightTrace, TrajectorySampler, write_chunks, write_csv
from .phy import Outcome, RatProfile, TransportBlock, harq_step

DEFAULT_BS_HEIGHT = 25.0  # m
# BS placements: offset in m along +x from the mission centroid; the first is the default.
BS_OFFSETS = {"on_premise": 0.0, "distant_2km": 2000.0}
DEFAULT_PAYLOAD = 1500  # bytes per source packet
SHADOWING_SIGMA = 4.0  # dB
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
_SUMMARY_ROWS = 32768  # rows per chunk of summarize (8192: 1.3x its time over the sweep cells)


def bs_position_for(trace: FlightTrace, placement: str) -> tuple[float, float, float]:
    if placement not in BS_OFFSETS:
        raise ValueError(f"unknown placement {placement!r}, expected {' or '.join(BS_OFFSETS)}")
    cx, cy, _ = trace.centroid()
    return (cx + BS_OFFSETS[placement], cy, DEFAULT_BS_HEIGHT)


@dataclass
class ScenarioConfig:
    """Everything one simulation run needs; identical configs replay identically."""

    trace: FlightTrace
    profile: RatProfile
    bs_array: ArrayConfig
    uav_array: ArrayConfig
    source_rate: float  # b/s of payload bits
    bs_position: tuple[float, float, float]  # see bs_position_for
    sim_window: float  # s
    seed: int
    payload: int = DEFAULT_PAYLOAD  # bytes
    header_overhead: ClassVar[int] = 28  # bytes, IP + UDP

    def __post_init__(self):
        if not (math.isfinite(self.source_rate) and self.source_rate > 0):
            raise ValueError("source rate must be positive and finite, got "
                             f"{self.source_rate / 1e6!r} Mb/s")
        if self.payload <= 0:
            raise ValueError("payload must be positive")
        if not math.isfinite(self.interarrival):
            raise ValueError(f"source rate {self.source_rate / 1e6!r} Mb/s is too small: "
                             "the packet interarrival time overflows")
        if not (math.isfinite(self.sim_window) and self.sim_window >= 0):
            raise ValueError(f"sim_window must be non-negative and finite, got {self.sim_window}")
        packet_bytes, snr_bytes = run_bytes(self)
        physical = physical_memory()
        if packet_bytes + snr_bytes > physical:
            raise ValueError(f"run needs {packet_bytes:.3g} bytes for packets and {snr_bytes:.3g} "
                             f"bytes for channel samples, more than the {physical:.3g} bytes of "
                             "physical memory")

    @property
    def interarrival(self) -> float:  # s between packets; packet n is sent at n * interarrival
        return self.payload * 8 / self.source_rate


@dataclass
class MetricsLog:
    """Per-packet columns (one row per generated packet, in seq order) and the
    recorded channel samples of one run: ``snr_series.snr`` is a column, and
    each element reads ``.snr``, ``.tx_gain``, ... (the SAMPLE_DTYPE fields)."""

    config: ScenarioConfig
    deliver_slot: np.ndarray  # int32 (int64 past 2**31 slots); -1 when not delivered
    outcome: np.ndarray  # int8 codes into OUTCOME_NAMES
    snr_series: np.recarray  # SAMPLE_DTYPE records

    @property
    def n_packets(self) -> int:
        return int(self.outcome.shape[0])

    def columns(self, r0: int = 0, r1: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(t_gen, t_deliver) in s of packets ``r0`` to ``r1``: packet n is sent at
        ``n * interarrival`` and delivered at the end of its slot, NaN if it is not."""
        r1 = self.n_packets if r1 is None else min(r1, self.n_packets)
        t_gen = np.arange(r0, r1, dtype=np.float64)
        t_gen *= self.config.interarrival
        slot = self.config.profile.slot_duration
        slots = self.deliver_slot[r0:r1]
        t_deliver = slots * slot + slot
        t_deliver[slots < 0] = np.nan
        return t_gen, t_deliver


@dataclass(frozen=True)
class Summary:
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


def physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _array_sizes(config: ScenarioConfig) -> tuple[int, int, int, np.dtype]:
    """(slots, packet rows, slots per recorded channel sample, dtype of a delivery slot)
    of a run; a delivery slot is an int32 unless the run has 2**31 slots or more."""
    if not math.isfinite(config.sim_window / min(config.profile.slot_duration,
                                                 config.interarrival)):
        raise ValueError(f"a {config.sim_window} s window has more slots or packets than a "
                         "float can count, more than physical memory")
    n_slots = int(round(config.sim_window / config.profile.slot_duration))
    max_pk = int(config.sim_window / config.interarrival) + 2
    record_every = max(1, round(DEFAULT_SNR_SAMPLE_INTERVAL / config.profile.slot_duration))
    return n_slots, max_pk, record_every, np.dtype(np.int32 if n_slots < 2**31 else np.int64)


def run_bytes(config: ScenarioConfig) -> tuple[float, float]:
    """Bytes of a run's packet arrays and of its channel arrays. ``summarize`` and the
    writers add only temporaries of a chunk each, whatever the run's length."""
    n_slots, max_pk, record_every, slot_dtype = _array_sizes(config)
    packet_bytes = max_pk * (slot_dtype.itemsize + 1.0)  # deliver_slot and outcome
    # Per-slot SNR, and each recorded sample.
    snr_bytes = n_slots * 8.0 + -(-n_slots // record_every) * SAMPLE_DTYPE.itemsize
    return packet_bytes, snr_bytes


_shared: dict | None = None  # what runs reuse inside shared_channel(); None outside it


def channel_key(config: ScenarioConfig) -> tuple:
    """Every input of ``config``'s channel stage: all but its traffic. Configs with equal
    keys (so the same trace object, as FlightTrace compares by identity) have one channel
    stage, bit for bit."""
    return (config.trace, config.profile, config.bs_array, config.uav_array,
            config.bs_position, config.sim_window, config.seed)


@contextmanager
def shared_channel():
    """Within the block, ``run`` reuses the last run's channel stage for a config with
    the same ``channel_key``, and ``write_snr_trace`` copies the last file it wrote for
    the same samples. Leaving the block frees both. Outside any such block nothing is
    reused, so two equal configs run two channel stages."""
    global _shared
    outer, _shared = _shared, {}
    try:
        yield
    finally:
        _shared = outer


def run(config: ScenarioConfig) -> MetricsLog:
    """Execute one scenario end to end: the channel stage, then the MAC stage.

    Deterministic for a fixed config including seed. A run whose arrays would
    exceed physical memory is refused earlier, when its ScenarioConfig is built
    (``run_bytes``). Inside ``shared_channel`` the channel stage may be the last run's.
    """
    # Independent RNG streams: shadowing draws must not shift when HARQ
    # consumption changes between configs sharing a seed.
    seeder = random.Random(config.seed)
    shadow = ShadowingField(sigma=SHADOWING_SIGMA, seed=seeder.getrandbits(64))
    harq_rng = random.Random(seeder.getrandbits(64))
    if _shared is None:
        snr, samples = channel_pass(config, shadow)
    else:  # see shared_channel
        key = channel_key(config)
        if _shared.get("key") != key:
            _shared.clear()
            _shared["key"], _shared["channel"] = key, channel_pass(config, shadow)
        snr, samples = _shared["channel"]
    deliver_slot, outcome = mac_pass(config, snr, harq_rng)
    return MetricsLog(config, deliver_slot, outcome, samples)


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
    n_slots, _, record_every, _ = _array_sizes(config)

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

    nf = noise_floor_dbm(prof.bandwidth, prof.noise_figure)
    fc = prof.carrier_freq

    snr_arr = np.empty(n_slots)
    samples = np.empty(-(-n_slots // record_every), dtype=SAMPLE_DTYPE)
    samples["tx_power"], samples["noise_floor"] = prof.tx_power, nf

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
        snr = prof.tx_power + tx_db + rx_db - pl - sh - nf
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
    """(deliver_slot, outcome) of the packets sent over ``snr``, one per slot: the
    slot each packet is delivered in (-1 if it is not) and its code.

    Each slot admits the CBR arrivals that fit the buffer (tail drop) and fills
    a transport block FIFO from the queue, byte-granular: in admission order,
    slot s admits ``K[s] = min(K[s-1] + arrivals, (buffer + D[s-1]) // P)``
    packets and puts ``D[s] = min(P * K[s - wait], D[s-1] + c[s])`` bits in
    blocks. A scan solves both as prefix scans up to the first failed first
    attempt or the first slot its form fails: *saturated*, ``D`` the capacity
    ``C`` and ``K - G`` the prefix-min of ``(buffer + D[s-1]) // P - G`` for
    arrivals ``G``; *sparse*, no drop, ``D - C`` the prefix-min of ``P * K -
    C``. A failed block stalls the link; ``harq_step`` takes its next attempts,
    each in the first live slot a round trip after the last.
    """
    prof = config.profile
    slot = prof.slot_duration
    snr = np.asarray(snr, dtype=np.float64)
    n_slots = len(snr)
    pkt_bits = _packet_bits(config)
    interarrival = config.interarrival
    buffer_bits = DEFAULT_BUFFER_LIMIT * 8
    wait = round(prof.scheduling_delay / slot)  # a whole number of slots (RatProfile)

    thresholds = np.array([e.snr_threshold for e in prof.mcs_table])
    caps = np.array([phy.tb_bits(prof, e) // 8 * 8 for e in prof.mcs_table] + [0])  # outage: 0

    _, max_pk, _, slot_dtype = _array_sizes(config)
    slot_arr = np.full(max_pk, -1, dtype=slot_dtype)
    outcome_arr = np.zeros(max_pk, dtype=np.int8)

    # Packets admitted (k_tab) and generated (g_tab) by the end of each slot of the chunk
    # and of the wait + 1 slots before it; the indices of the packets admitted and not yet
    # settled, in admission order, the first being packet done[0] // pkt_bits of that order.
    k_tab = g_tab = np.zeros(wait + 1, dtype=np.int64)
    queue = np.zeros(0, dtype=np.int64)
    draws, di = np.empty(0), 0  # HARQ uniforms, one per slot of a chunk ahead, used from di on
    # harq_rng's stream, drawn in bulk: CPython's random() and RandomState's random_sample
    # both make a double of two MT19937 words (genrand_res53), so the draws are the same.
    version, (*key, pos), gauss = harq_rng.getstate()
    uniforms = np.random.RandomState()
    uniforms.set_state(("MT19937", np.array(key, dtype=np.uint32), pos))
    sent, done = 0, np.zeros(1, dtype=np.int64)  # D; per slot, D less a block yet to succeed
    block, lo, nxt = None, 0, 0  # a failed block, the bits before it and its next attempt's slot
    form = "sparse"

    def first_failure(slots, p_fail):
        """Of the first attempts in ``slots``, failing with probabilities ``p_fail`` on
        draws[di:], the index m of the first to fail and the count of slots i .. slots[m]."""
        fails = draws[di:di + len(slots)] < p_fail
        m = int(fails.argmax()) if len(slots) else 0
        if m < len(slots) and fails[m]:
            return m, slots.item(m) + 1 - i
        return len(slots), n - i

    for c0 in range(0, n_slots, _CHUNK_SLOTS):
        n = min(_CHUNK_SLOTS, n_slots - c0)
        snr_c = snr[c0:c0 + n]
        mcs = thresholds.searchsorted(snr_c, side="right") - 1
        cum = np.concatenate(([0], np.cumsum(caps[mcs])))  # cum[j]: capacity of slots c0 .. c0+j-1
        live = np.append(np.flatnonzero(mcs >= 0), n)
        live_before = np.concatenate(([0], np.cumsum(mcs >= 0)))  # live[live_before[j]] >= j
        p_err = phy.bler(thresholds[mcs], snr_c)  # of a first attempt in each slot
        p_live = p_err[live[:-1]]
        b = len(k_tab)  # the row of slot c0
        k_tab = np.concatenate((k_tab, np.empty(n, dtype=np.int64)))
        g_tab = np.concatenate((g_tab, packets_generated(np.arange(c0, c0 + n), slot,
                                                         interarrival, max_pk)))
        done = np.concatenate((done[-1:], np.empty(n, dtype=np.int64)))  # done[j + 1]: slot c0+j
        draws = np.append(draws[di:], uniforms.random_sample(max(0, n + di - len(draws))))
        di = i = 0
        dropped = []  # admission-order ranges of HARQ drops
        while i < n or block is not None and nxt < c0 + n:  # a chunk's last slot may fail
            row = b + i
            lag = g_tab.item(row - 1) - k_tab.item(row - 1)  # packets dropped so far
            if block is not None:  # its next attempt goes in the first live slot r from nxt on
                r = live.item(live_before.item(min(max(nxt - c0, 0), n)))
                if r < n:
                    p_retx = phy.bler(thresholds.item(block.mcs), snr_c.item(r))
                    result, nxt = harq_step(block, p_retx, draws.item(di), harq_rtt=prof.harq_rtt,
                                            max_harq_tx=prof.max_harq_tx, current_slot=c0 + r)
                    di += 1
                    if result is Outcome.RETRANSMIT:
                        continue
                # Until its last attempt the link sends nothing, and arrivals fill the buffer.
                k_tab[row:b + r + 1] = np.minimum(g_tab[row:b + r + 1] - lag,
                                                  (buffer_bits + sent) // pkt_bits)
                done[i + 1:r + 2] = lo
                i = max(i, r + 1)
                if r == n:
                    break
                if result is Outcome.DROPPED:  # with the part-sent packet it ends in
                    sent = -(-sent // pkt_bits) * pkt_bits
                    dropped.append((lo // pkt_bits, sent // pkt_bits))
                done[r + 1], block = sent, None
                continue

            if form == "saturated":  # a block in every live slot
                a = live_before.item(i)
                slots = live[a:-1]
                m, w = first_failure(slots, p_live[a:])
                gen = g_tab[row:row + w]
                np.add(cum[i:i + w + 1], sent - cum[i], out=done[i:i + w + 1])
                k = (buffer_bits + done[i:i + w]) // pkt_bits - gen
                np.minimum.accumulate(k, out=k)
                np.add(np.minimum(k, -lag, out=k), gen, out=k_tab[row:row + w])
                bad = done[i + 1:i + w + 1] > k_tab[row - wait:row + w - wait] * pkt_bits  # unready
            else:  # slot i admits what fits, and no later slot drops
                gen = g_tab[row:b + n]
                k_i = min(gen.item(0) - lag, (buffer_bits + sent) // pkt_bits)
                np.subtract(gen, gen.item(0) - k_i, out=k_tab[row:b + n])
                d = done[i + 1:]
                np.subtract(k_tab[row - wait:b + n - wait] * pkt_bits, cum[i + 1:], out=d)
                np.minimum.accumulate(d, out=d)
                np.add(np.minimum(d, sent - cum[i], out=d), cum[i + 1:], out=d)
                slots = np.flatnonzero(d > done[i:n]) + i
                m, w = first_failure(slots, p_err[slots])
                bad = k_tab[row:row + w] * pkt_bits - done[i:i + w] > buffer_bits
            stop = int(bad.argmax())
            stop = stop if bad[stop] else w
            if stop < w:  # the form fails, and the other one takes over from slot i + stop
                form = "sparse" if form == "saturated" else "saturated"
                m = int(slots.searchsorted(i + stop))
            sent = done.item(i + stop)
            if stop == w and m < len(slots):  # the link stalls on the failed block
                lo, nxt = done.item(i + stop - 1), c0 + i + stop - 1
                block = TransportBlock(bits=sent - lo, mcs=mcs.item(i + stop - 1))
                done[i + stop] = lo
            di, i = di + m, i + stop

        # Slot s admits the first of its arrivals that fit: packet k of the admission
        # order is k + G - K of the slot before.
        lag = g_tab[b - 1:-1] - k_tab[b - 1:-1]
        queue = np.concatenate((queue, np.arange(k_tab.item(b - 1), k_tab.item(-1))
                                + lag.repeat(np.diff(k_tab[b - 1:]))))
        # Packet k completes in the first slot whose done reaches (k + 1) * pkt_bits.
        k0, head = done.item(0) // pkt_bits, done.item(n) // pkt_bits
        at = queue[:head - k0]
        slot_arr[at] = np.arange(c0, c0 + n).repeat(np.diff(done // pkt_bits))
        outcome_arr[at] = DELIVERED
        for k1, k2 in dropped:
            at = queue[k1 - k0:k2 - k0]
            slot_arr[at] = -1
            outcome_arr[at] = DROPPED_HARQ
        queue, k_tab, g_tab = queue[head - k0:], k_tab[-wait - 1:], g_tab[-wait - 1:]

    _, key, pos, *_ = uniforms.get_state()
    harq_rng.setstate((version, (*key.tolist(), pos), gauss))
    n_gen, n_adm = g_tab.item(-1), k_tab.item(-1)
    if n_gen > n_adm:  # what was neither settled nor queued was dropped on arrival
        outcome_arr[:n_gen][outcome_arr[:n_gen] == IN_FLIGHT] = DROPPED_BUFFER
        outcome_arr[queue] = IN_FLIGHT
    return slot_arr[:n_gen], outcome_arr[:n_gen]


def summarize(log: MetricsLog) -> Summary:
    """Mission-level statistics, recomputed from the packet columns every call.

    The latency statistics are bit for bit ``np.mean``, ``np.median`` and
    ``np.percentile(..., 99)`` of ``t_deliver - t_gen`` over the delivered packets, but
    no array is sized by the packet count: the latencies are streamed a chunk at a time,
    twice (``_latencies``)."""
    n = log.n_packets
    snr = log.snr_series.snr
    counts = [0] * len(OUTCOME_NAMES)
    for r0 in range(0, n, _SUMMARY_ROWS):
        chunk = log.outcome[r0:r0 + _SUMMARY_ROWS]
        counts = [c + int(np.count_nonzero(chunk == code)) for code, c in enumerate(counts)]
    in_flight, delivered, dropped_buffer, dropped_harq = counts
    window = log.config.sim_window
    throughput = float(delivered * _packet_bits(log.config)) / window if window > 0 else 0.0
    if delivered:
        hist = _Histogram()
        mean_lat = _pairwise_sum(delivered, _taker(  # its buffers go as the sum ends
            hist.add(lat, bins) for lat, bins in _latencies(log))) / delivered
        # np.median's mean of the middle one or two; np.percentile's linear method.
        half, odd = divmod(delivered, 2)
        at = 0.99 * (delivered - 1)
        i, gamma = int(at), at - int(at)
        below, middle, a, b = _order_statistics(
            log, hist, [half - 1 + odd, half, i, min(i + 1, delivered - 1)])
        median_lat = middle if odd else (below + middle) / 2
        p99_lat = b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma
    else:
        mean_lat = median_lat = p99_lat = 0.0
    # Left to right, as FlightTrace.centroid sums, carrying the sum from chunk to chunk.
    acc = snr[:0]
    for s0 in range(0, len(snr), _SUMMARY_ROWS):
        acc = np.add.accumulate(np.concatenate((acc[-1:], snr[s0:s0 + _SUMMARY_ROWS])))
    return Summary(
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
        min_snr_db=float(snr.min()) if len(snr) else 0.0,
        mean_snr_db=float(acc[-1]) / len(snr) if len(snr) else 0.0,
    )


def _latencies(log: MetricsLog):
    """The delivered packets' latencies, one chunk of packets at a time, with their bins
    (``_BIN_SHIFT``): bit for bit ``t_deliver - t_gen`` of ``log.columns``, without forming
    either column. Every chunk is written into the same buffers, made once, so a consumer
    copies what it keeps of a chunk before it asks for the next."""
    slot, interarrival = log.config.profile.slot_duration, log.config.interarrival
    lat, t_gen = np.empty(_SUMMARY_ROWS), np.empty(_SUMMARY_ROWS)
    bins = np.empty(_SUMMARY_ROWS, np.int64)
    for r0 in range(0, log.n_packets, _SUMMARY_ROWS):
        idx = np.flatnonzero(log.outcome[r0:r0 + _SUMMARY_ROWS] == DELIVERED)
        k = len(idx)
        x = np.multiply(log.deliver_slot[r0:r0 + _SUMMARY_ROWS][idx], slot, out=lat[:k])
        x += slot
        idx += r0
        x -= np.multiply(idx, interarrival, out=t_gen[:k])
        yield x, np.right_shift(x.view(np.int64), _BIN_SHIFT, out=bins[:k])


def _taker(chunks):
    """``take(k)``: the next ``k`` values of the arrays that ``chunks`` yields. Only a copy
    of a chunk's last values is held while the next chunk is built."""
    rest = np.zeros(0)

    def take(k: int) -> np.ndarray:
        nonlocal rest
        parts = []
        while len(rest) < k:
            parts.append(rest.copy())
            k -= len(rest)
            rest = next(chunks)
        parts.append(rest[:k])
        rest = rest[k:]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    return take


# Fewer than _CARRY latencies of a chunk are held while the next chunk is built: the
# pairwise sum's nodes and the selection's unmerged latencies are at most this many.
_CARRY = 4096


def _pairwise_sum(n: int, take) -> float:
    """``np.add.reduce`` of the next ``n`` values of ``take``, bit for bit: numpy's pairwise
    sum splits a node of n values at ``n // 2`` rounded down to a multiple of 8, and so
    does this, down to nodes of at most ``_CARRY`` values."""
    if n <= _CARRY:
        return float(np.add.reduce(take(n)))
    h = n // 2 - n // 2 % 8
    return _pairwise_sum(h, take) + _pairwise_sum(n - h, take)


# A positive float's int64 bit pattern orders as the float does. A latency's bin is
# its bit pattern >> _BIN_SHIFT: 2**10 bins a binade, each about 0.1 % wide.
_BIN_SHIFT = 52 - 10


class _Histogram:
    """Counts of positive latencies per bin, ``counts[b - base]`` for bin ``b``; the range
    grows to cover each chunk added."""

    def __init__(self):
        self.base, self.counts = 0, np.zeros(0, np.int64)

    def add(self, lat: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """Counts ``lat``, whose ``bins`` it overwrites, and returns it."""
        if len(lat):
            lo, hi = int(bins.min()), int(bins.max())
            if not len(self.counts):
                self.base = lo
            end = self.base + len(self.counts)
            if lo < self.base or hi >= end:
                self.counts = np.pad(self.counts, (max(self.base - lo, 0), max(hi + 1 - end, 0)))
                self.base = min(lo, self.base)
            bins -= lo
            self.counts[lo - self.base:hi + 1 - self.base] += np.bincount(bins)
        return lat


def _order_statistics(log: MetricsLog, hist: _Histogram, ranks: list[int]) -> list[float]:
    """The latencies of 0-based ``ranks`` in ascending order, exactly. A second stream keeps
    only the latencies of the bins that hold a wanted rank, as distinct values and counts."""
    cum = np.cumsum(hist.counts)
    bins = np.searchsorted(cum, ranks, side="right")
    wanted = np.zeros(len(cum), bool)
    wanted[bins] = True
    # A rank's place among the kept latencies: less those in lower bins not kept.
    places = np.array(ranks) - np.cumsum(np.where(wanted, 0, hist.counts))[bins]
    values, counts, pending, held = np.zeros(0), np.zeros(0, np.int64), [], 0

    def merge():
        nonlocal values, counts, held
        new, new_counts = np.unique(np.concatenate(pending), return_counts=True)
        pending.clear()
        held = 0
        merged = np.union1d(values, new)
        merged_counts = np.zeros(len(merged), np.int64)
        merged_counts[np.searchsorted(merged, values)] = counts
        merged_counts[np.searchsorted(merged, new)] += new_counts
        values, counts = merged, merged_counts

    for lat, lat_bins in _latencies(log):
        lat_bins -= hist.base
        pending.append(lat[wanted[lat_bins]])
        held += len(pending[-1])
        if held >= _CARRY:
            merge()
    if held:
        merge()
    return values[np.searchsorted(np.cumsum(counts), places, side="right")].tolist()


_POW10 = (10 ** np.arange(19)).astype(np.float64)  # exact doubles: 5**18 < 2**53


def _digits(out: np.ndarray, q: np.ndarray, keep=lambda j, q: (q > 0) | (j == -1)) -> None:
    """Digits of ints ``q`` >= 0, right-aligned in ``out``; column j < 0 where ``keep(j, rest)``."""
    for j in range(-1, -out.shape[1] - 1, -1):
        nq = q // 10
        out[:, j] = (q - nq * 10 + 48) * keep(j, q)
        q = nq


def _float_field(x: np.ndarray):
    """``(width, put)``: ``put(out)`` writes ``repr`` of each float of ``x`` into the zeroed
    byte matrix ``out`` (a row each, ``width`` columns; a 0 byte is no byte). 0 and each ``x``
    in [1e-4, 1e15) with ``rint(x * 10**k) / 10**k == x`` for the k of 15 digits are written
    here, exactly (the argument is in README.md); ``repr`` writes the others."""
    ok = ~np.signbit(x) & ((x == 0) | ((x >= 1e-4) & (x < 1e15)))
    y = np.where(ok, x, 0.0)
    k = (14 - np.floor(np.log10(np.where(y > 0, y, 1.0)))).clip(0, 18).astype(np.intp)
    k = (k + (y * _POW10[k] < 1e14) - (y * _POW10[k] >= 1e15)).clip(0, 18)  # log10 rounding
    m = np.rint(y * _POW10[k])
    ok &= (m < 1e15) & (m / _POW10[k] == y)
    m, k = np.where(ok, m, 0.0), np.where(ok, k, 0)
    for s in (8, 4, 2, 1):  # strip trailing zeros, keeping k >= 0; m / 10**s is exact
        q = m / _POW10[s]  # if whole, and more than an ulp from a whole number if not
        strip = (k >= s) & (q == np.floor(q))
        m, k = np.where(strip, q, m), k - s * strip
    whole = np.floor(m / _POW10[k])  # exact: the fraction is at least 10**-k from 1
    n_int, n_frac = len(str(int(whole.max()))), max(int(k.max()), 1)
    frac = (m - whole * _POW10[k]).astype(np.int64) * _POW10[n_frac - k].astype(np.int64)
    n_kept = np.maximum(k, ok)  # fraction digits: k, or the "0" of a whole number
    slow = ~ok & ~np.isnan(x)
    text = np.array([repr(v) for v in x[slow].tolist()], "S")

    def put(out: np.ndarray) -> None:
        _digits(out[:, :n_int], whole.astype(np.int64), lambda j, q: ok & ((q > 0) | (j == -1)))
        out[:, n_int] = ord(".") * ok
        _digits(out[:, n_int + 1:n_int + 1 + n_frac], frac, lambda j, q: n_kept > n_frac + j)
        out[slow, :text.itemsize] = text.view(np.uint8).reshape(-1, text.itemsize)

    return max(n_int + 1 + n_frac, text.itemsize), put


def write_packet_log(log: MetricsLog, path) -> None:
    """The packet columns as ``csv.writer`` writes them: repr floats, NaN as "". A chunk is a
    byte matrix, a row per line and a field in columns of its own, its 0 bytes dropped."""
    bits = _packet_bits(log.config)
    tails = np.array([[f",{bits},{o}\r\n"] for o in OUTCOME_NAMES], "S").view(np.uint8)
    # The byte matrix and its mask, made once for all the chunks a process writes. Made
    # afresh, glibc returned them to the system after each chunk, and the page faults of
    # two writer processes taking them back slowed both.
    bufs = []

    def chunk(s0: int) -> np.ndarray:
        rows = slice(s0, s0 + _WRITE_ROWS)
        seq = np.arange(s0, min(s0 + _WRITE_ROWS, log.n_packets))
        t_gen, t_deliver = log.columns(s0, s0 + _WRITE_ROWS)
        gen_width, put_gen = _float_field(t_gen)
        # A slot delivers at one time, so format each distinct time once.
        t_del, inverse = np.unique(t_deliver, return_inverse=True)
        del_width, put_del = _float_field(t_del)
        put_del(t_del := np.zeros((len(t_del), del_width), np.uint8))
        edges = np.cumsum([0, len(str(seq[-1])), 1, gen_width, 1, del_width, tails.shape[1]])
        size = len(seq) * int(edges[-1])
        if not bufs or len(bufs[0]) < size:
            bufs.clear()  # the old ones go before the new are made
            bufs.extend([np.empty(size, np.uint8), np.empty(size, bool)])
        mat = bufs[0][:size].reshape(len(seq), -1)
        mat.fill(0)
        _digits(mat[:, :edges[1]], seq)
        mat[:, edges[1]] = mat[:, edges[3]] = ord(",")
        put_gen(mat[:, edges[2]:edges[3]])
        np.take(t_del, inverse, axis=0, out=mat[:, edges[4]:edges[5]], mode="clip")
        np.take(tails, log.outcome[rows], axis=0, out=mat[:, edges[5]:], mode="clip")
        return mat[np.not_equal(mat, 0, out=bufs[1][:size].reshape(mat.shape))]

    write_chunks(path, (",".join(PACKET_CSV_HEADER) + "\r\n").encode(), log.n_packets, chunk)


def write_snr_trace(log: MetricsLog, path) -> None:
    rec = log.snr_series
    if _shared is not None and _shared.get("snr_series") is rec:  # see shared_channel
        with suppress(shutil.SameFileError):  # the same samples, so the same bytes
            shutil.copyfile(_shared["snr_path"], path)
        return
    cols = (rec.t, rec.distance_3d, rec.snr, rec.tx_gain, rec.rx_gain)
    write_csv(path, SNR_CSV_HEADER, len(rec), lambda rows: [c[rows] for c in cols])
    if _shared is not None:
        _shared["snr_series"], _shared["snr_path"] = rec, path
