"""Record the correctness reference that every benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/reference.py

For each workload and each of the REFERENCE_SEEDS scenario seeds it runs every
cell in process, through the same public functions the CLI calls, and stores
the cell's Summary in reference.json. It also runs the calibrated 60 s cells
once and refuses to write the file unless they reproduce the published
figures. Rerun it only when the model is meant to change; a speed-only change
must leave reference.json as it is.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from run import REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, cell_key

from uavlink.campaign import RunMatrix, build_scenario, expand_cells
from uavlink.missions import archetype_by_name, synth_trace
from uavlink.simulation import run, summarize

# (profile, antennas, rate b/s, placement) on the overwatch orbit, seed 42,
# 60 s; the expected figures at the precision they are published with.
CALIBRATION = [
    ("mmwave", "64x16", 10e6, "on_premise", {"throughput_mbps": (10.19, 0.005)}),
    ("mmwave", "64x16", 1000e6, "on_premise", {"throughput_mbps": (1018.66, 0.005)}),
    ("mmwave", "16x4", 1000e6, "distant_2km",
     {"throughput_mbps": (313.3, 0.05), "mean_latency_ms": (27.7, 0.05)}),
    ("lte", "1x1", 1000e6, "on_premise",
     {"throughput_mbps": (75.19, 0.005), "mean_latency_ms": (116.8, 0.05)}),
]
CALIBRATION_SEED = 42
CALIBRATION_WINDOW_S = 60.0


def cell_summary(mission, profile, antennas, rate_bps, placement, seed, window) -> dict:
    """Summary of one cell, run as `simulate --mission` and matrix cells run it."""
    trace = synth_trace(mission, seed=seed)
    config = build_scenario(trace, profile, antennas, rate_bps, placement, seed, window)
    s = summarize(run(config))
    return {
        **dataclasses.asdict(s),
        "slots": int(round(window / config.profile.slot_duration)),
        "pkt_bits": (config.payload + config.header_overhead) * 8,
    }


def workload_cells(workload, seed: int, window: float) -> dict:
    """Reference summaries of every cell a workload runs, keyed by cell_key()."""
    matrix = RunMatrix(
        missions=[archetype_by_name(m) for m in workload.missions],
        profiles=list(workload.profiles),
        antenna_combos=list(workload.antennas),
        source_rates=[float(r) * 1e6 for r in workload.rates_mbps],
        bs_placements=[p.replace("-", "_") for p in workload.placements],
        seeds=[seed],
        sim_window=window,
    )
    cells = {}
    for mission, profile, antennas, rate, placement, cell_seed in expand_cells(matrix):
        summary = cell_summary(mission, profile, antennas, rate, placement, cell_seed, window)
        cells[cell_key(mission.kind, profile, antennas, rate / 1e6, placement)] = summary
    return cells


def calibration() -> list[dict]:
    """Run the calibrated cells; raises if one misses its published figure."""
    results = []
    mission = archetype_by_name("overwatch_orbit")
    for profile, antennas, rate, placement, expected in CALIBRATION:
        s = cell_summary(mission, profile, antennas, rate, placement, CALIBRATION_SEED,
                         CALIBRATION_WINDOW_S)
        got = {"throughput_mbps": s["throughput_bps"] / 1e6,
               "mean_latency_ms": s["mean_latency_s"] * 1e3}
        for field, (want, tol) in expected.items():
            if abs(got[field] - want) > tol:
                raise SystemExit(f"calibration: {profile} {antennas} {rate / 1e6:g} Mb/s "
                                 f"{placement}: {field} {got[field]} != {want} +/- {tol}")
        results.append({"profile": profile, "antennas": antennas, "rate_mbps": rate / 1e6,
                        "placement": placement, "expected": expected, **got})
        print(f"calibration {profile} {antennas} {rate / 1e6:g} {placement}: {got}", flush=True)
    return results


def main() -> int:
    reference = {"calibration": calibration(), "workloads": {}}
    for workload in WORKLOADS.values():
        seeds = {}
        for seed in range(REFERENCE_SEEDS):
            seeds[str(seed)] = {"cells": workload_cells(workload, seed, workload.window_s)}
            print(f"{workload.name} seed {seed}: {len(seeds[str(seed)]['cells'])} cells",
                  flush=True)
        reference["workloads"][workload.name] = {"window_s": workload.window_s, "seeds": seeds}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
