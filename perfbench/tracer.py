"""Run the uavlink CLI in this process with timing wrappers around the public
functions of each module, then write the per-module metrics as JSON.

    python3 perfbench/tracer.py METRICS.json -- simulate --mission ... --out DIR

The wrappers are installed by replacing module and class attributes, so
nothing under src/ is edited; they are removed again before the metrics are
written, and the run fails (exit 3) if any attribute is not the original
afterwards. Calls made once per slot are aggregated as a call count and a
total time, not recorded one span per call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Unit of every per-layer metric the benchmark prints with --trace 1; the
# trace.* and campaign.workers/untraced_wall_s/parallel_efficiency entries are
# filled in by run.py from the untraced reps.
UNITS = {
    "cli.import_s": "s",
    "missions.synth_trace.calls": "count",
    "missions.synth_trace.s": "s",
    "campaign.build_scenario.s": "s",
    "campaign.cells": "count",
    "campaign.cell_s.sum": "s",
    "campaign.cell_s.max": "s",
    "campaign.write_report.s": "s",
    "campaign.workers": "count",
    "campaign.untraced_wall_s": "s",
    "campaign.parallel_efficiency": "frac",
    "mobility.segment.calls": "count",
    "mobility.segment.s": "s",
    "beamforming.gains.calls": "count",
    "beamforming.gains.s": "s",
    "beamforming.refreshes": "count",
    "beamforming.pair_changes": "count",
    "beamforming.refresh_useful_ratio": "frac",
    "channel.shadowing.calls": "count",
    "channel.shadowing.s": "s",
    "channel.outage_frac_sampled": "frac",
    "phy.bler.calls": "count",
    "phy.bler.s": "s",
    "phy.harq.calls": "count",
    "phy.harq.s": "s",
    "phy.harq.delivered": "count",
    "phy.harq.retransmit": "count",
    "phy.harq.dropped": "count",
    "phy.harq.success_ratio": "frac",
    "simulation.run.s": "s",
    "simulation.run.self_s": "s",
    "simulation.slots": "count",
    "simulation.packets.generated": "count",
    "simulation.packets.delivered": "count",
    "simulation.packets.dropped_buffer": "count",
    "simulation.packets.dropped_harq": "count",
    "simulation.packets.in_flight": "count",
    "simulation.delivery_ratio": "frac",
    "simulation.log_mb": "MB",
    "simulation.summarize.s": "s",
    "simulation.write_packet_log.s": "s",
    "simulation.write_packet_log.mb": "MB",
    "simulation.write_snr_trace.s": "s",
    "simulation.write_snr_trace.mb": "MB",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "frac",
}


class Probe:
    """Per-layer metrics, keyed by their names in UNITS, gathered by the wrappers."""

    def __init__(self):
        self.m = defaultdict(float)
        self.in_run_s = 0.0  # time spent in the wrapped callees of run()

    def timed(self, key, fn, *, in_run=False):
        """Adds ``key.calls`` and ``key.s``."""
        m, clock = self.m, time.perf_counter
        calls, secs = f"{key}.calls", f"{key}.s"

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            m[calls] += 1
            m[secs] += dt
            if in_run:
                self.in_run_s += dt
            return result

        return wrapper

    def gains(self, fn):
        """BeamTracker.gains_at_cosines, counting pair refreshes and beam changes."""
        inner = self.timed("beamforming.gains", fn, in_run=True)
        m = self.m

        def wrapper(tracker, *args):
            before = tracker.pair
            result = inner(tracker, *args)
            after = tracker.pair
            if after is not before:
                m["beamforming.refreshes"] += 1
                if before is None or (
                    (after.tx_beam.index, after.rx_beam.index)
                    != (before.tx_beam.index, before.rx_beam.index)
                ):
                    m["beamforming.pair_changes"] += 1
            return result

        return wrapper

    def harq(self, fn):
        from uavlink.phy import Outcome

        names = {
            Outcome.DELIVERED: "phy.harq.delivered",
            Outcome.RETRANSMIT: "phy.harq.retransmit",
            Outcome.DROPPED: "phy.harq.dropped",
        }
        inner = self.timed("phy.harq", fn, in_run=True)
        m = self.m

        def wrapper(*args, **kwargs):
            outcome, when = inner(*args, **kwargs)
            m[names[outcome]] += 1
            return outcome, when

        return wrapper

    def run(self, fn):
        """simulation.run: total and self time, and what the returned log holds."""
        import numpy as np

        from uavlink.simulation import OUTCOME_NAMES

        m, clock = self.m, time.perf_counter

        def wrapper(config):
            inner_before = self.in_run_s
            t0 = clock()
            log = fn(config)
            dt = clock() - t0
            m["simulation.run.s"] += dt
            m["simulation.run.self_s"] += dt - (self.in_run_s - inner_before)
            m["simulation.slots"] += round(config.sim_window / config.profile.slot_duration)
            m["simulation.packets.generated"] += log.outcome.shape[0]
            for code, name in enumerate(OUTCOME_NAMES):
                m[f"simulation.packets.{name}"] += int(np.count_nonzero(log.outcome == code))
            floor = config.profile.mcs_table[0].snr_threshold
            m["snr_samples"] += len(log.snr_series)
            m["snr_outage"] += sum(1 for s in log.snr_series if s.snr < floor)
            m["simulation.log_mb"] = max(m["simulation.log_mb"], _log_mb(log))
            return log

        return wrapper

    def writer(self, key, fn):
        """A CSV writer: time, and the size of the file it wrote."""
        from pathlib import Path

        inner = self.timed(key, fn)

        def wrapper(log, path):
            inner(log, path)
            self.m[f"{key}.mb"] += Path(path).stat().st_size / 1e6

        return wrapper

    def cell(self, fn):
        """campaign._execute_cell: one matrix cell."""
        m, clock = self.m, time.perf_counter

        def wrapper(job):
            t0 = clock()
            row = fn(job)
            dt = clock() - t0
            m["campaign.cells"] += 1
            m["campaign.cell_s.sum"] += dt
            m["campaign.cell_s.max"] = max(m["campaign.cell_s.max"], dt)
            return row

        return wrapper

    def metrics(self, import_s: float) -> dict:
        """Every metric in UNITS; run.py fills in the trace.* and campaign pool bases."""
        m = self.m

        def ratio(a, b):
            return m[a] / m[b] if m[b] else 0.0

        m["cli.import_s"] = import_s
        m["beamforming.refresh_useful_ratio"] = ratio("beamforming.pair_changes",
                                                      "beamforming.refreshes")
        m["channel.outage_frac_sampled"] = ratio("snr_outage", "snr_samples")
        m["phy.harq.success_ratio"] = ratio("phy.harq.delivered", "phy.harq.calls")
        m["simulation.delivery_ratio"] = ratio("simulation.packets.delivered",
                                               "simulation.packets.generated")
        return {name: m[name] for name in UNITS}


def _log_mb(log) -> float:
    """MB held by a MetricsLog: its arrays, plus each list sized by its first item."""
    import numpy as np

    total = 0
    for value in vars(log).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list) and value:
            fields = getattr(value[0], "__dict__", {})
            per_item = (sys.getsizeof(value[0]) + sys.getsizeof(fields)
                        + sum(sys.getsizeof(v) for v in fields.values()))
            total += sys.getsizeof(value) + per_item * len(value)
    return total / 1e6


def install(probe: Probe) -> list[tuple[object, str, object]]:
    """Wrap each traced attribute; returns (owner, name, original) for uninstall()."""
    from uavlink import beamforming, campaign, channel, cli, mobility, phy, simulation

    targets = [
        (cli, "synth_trace", lambda f: probe.timed("missions.synth_trace", f)),
        (campaign, "synth_trace", lambda f: probe.timed("missions.synth_trace", f)),
        (cli, "build_scenario", lambda f: probe.timed("campaign.build_scenario", f)),
        (campaign, "build_scenario", lambda f: probe.timed("campaign.build_scenario", f)),
        (campaign, "_execute_cell", probe.cell),
        (campaign, "write_report_csv", lambda f: probe.timed("campaign.write_report", f)),
        (campaign, "render_report", lambda f: probe.timed("campaign.write_report", f)),
        (mobility.TrajectorySampler, "segment",
         lambda f: probe.timed("mobility.segment", f, in_run=True)),
        (beamforming.BeamTracker, "gains_at_cosines", probe.gains),
        (channel.ShadowingField, "sample_at",
         lambda f: probe.timed("channel.shadowing", f, in_run=True)),
        (phy, "bler", lambda f: probe.timed("phy.bler", f, in_run=True)),
        (simulation, "harq_step", probe.harq),
        (cli, "run", probe.run),
        (campaign, "run", probe.run),
        (cli, "summarize", lambda f: probe.timed("simulation.summarize", f)),
        (campaign, "summarize", lambda f: probe.timed("simulation.summarize", f)),
        (simulation, "summarize", lambda f: probe.timed("simulation.summarize", f)),
    ]
    for owner in (cli, campaign):
        for name in ("write_packet_log", "write_snr_trace"):
            targets.append((owner, name,
                            lambda f, key=f"simulation.{name}": probe.writer(key, f)))
    patched = []
    for owner, name, wrap in targets:
        original = vars(owner)[name]
        setattr(owner, name, wrap(original))
        patched.append((owner, name, original))
    return patched


def uninstall(patched) -> list[str]:
    """Restore every original; returns the names that are not the original afterwards."""
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)
    return [f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in patched if vars(owner)[name] is not original]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    metrics_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import uavlink.cli

    import_s = time.perf_counter() - t0
    probe = Probe()
    patched = install(probe)
    try:
        rc = uavlink.cli.main(cli_args)
    finally:
        not_restored = uninstall(patched)
    if not_restored:
        print(f"tracer: not restored: {', '.join(not_restored)}", file=sys.stderr)
        return 3
    with open(metrics_path, "w") as fh:
        json.dump(probe.metrics(import_s), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
