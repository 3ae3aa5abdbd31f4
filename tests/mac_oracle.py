"""The deque-based MAC stage, one ``[idx, bits_remaining]`` entry per queued
packet, kept as the reference that ``simulation.mac_pass`` must reproduce bit
for bit (``tests/test_mac.py``)."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import deque

import numpy as np

from uavlink import phy
from uavlink.phy import Outcome, TransportBlock, harq_step
from uavlink.simulation import (
    DEFAULT_BUFFER_LIMIT,
    DELIVERED,
    DROPPED_BUFFER,
    DROPPED_HARQ,
    SAMPLE_DTYPE,
    _T_EPS,
    MetricsLog,
    ScenarioConfig,
    _array_sizes,
    _packet_bits,
)


def columns_of(config: ScenarioConfig, deliver_slot, outcome) -> tuple[np.ndarray, ...]:
    """``simulation.mac_pass``'s (deliver_slot, outcome) as this oracle's three columns:
    t_gen and t_deliver rebuilt whole by ``MetricsLog.columns``, and outcome."""
    log = MetricsLog(config, deliver_slot, outcome, np.recarray(0, dtype=SAMPLE_DTYPE))
    return (*log.columns(), outcome)


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

    max_pk = _array_sizes(config)[1]
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

    nxt = 0
    while nxt < n_slots:
        s, nxt = nxt, nxt + 1
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

        if pending is None and not queue:  # idle: jump to the slot of the next arrival
            if n_gen >= max_pk:
                break
            nxt = max(nxt, math.ceil((next_gen - _T_EPS) / slot) - 1)
            while next_gen > nxt * slot + _T_EPS:
                nxt += 1
            continue
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
            p_err = phy.bler(thresholds[pending.mcs], snr_s)
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
