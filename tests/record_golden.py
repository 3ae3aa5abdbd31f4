"""Record the golden fixture that tests/test_golden.py replays.

    PYTHONPATH=src python3 tests/record_golden.py

Runs a fixed set of short cells (every mission x link x placement at a low
rate, plus one HARQ-heavy gigabit cell) and stores each cell's Summary and
every logged (snr, tx_gain, rx_gain) sample in golden.json. A refactor that
must not change the numerics is checked against the file as recorded before
it; rerun this script only when the model is meant to change.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from uavlink.campaign import build_scenario
from uavlink.missions import MISSION_KINDS, archetype_by_name, synth_trace
from uavlink.simulation import run, summarize

GOLDEN_PATH = Path(__file__).with_name("golden.json")
SEED = 42
WINDOW_S = 1.0
LINKS = (("mmwave", "64x16"), ("mmwave", "16x4"), ("mmwave", "1x1"), ("lte", "1x1"))
PLACEMENTS = ("on_premise", "distant_2km")
LOW_RATE_MBPS = 10.0


def golden_cells() -> list[dict]:
    """Coordinates of every recorded cell, in file order."""
    cells = [
        {"mission": m, "profile": p, "antennas": a, "rate_mbps": LOW_RATE_MBPS, "placement": pl}
        for m in MISSION_KINDS
        for p, a in LINKS
        for pl in PLACEMENTS
    ]
    cells.append({"mission": "overwatch_orbit", "profile": "mmwave", "antennas": "16x4",
                  "rate_mbps": 1000.0, "placement": "distant_2km"})
    return cells


def run_cell(cell: dict, seed: int, window: float):
    """Run one cell the way `simulate --mission` does; returns its MetricsLog."""
    trace = synth_trace(archetype_by_name(cell["mission"]), seed=seed)
    config = build_scenario(trace, cell["profile"], cell["antennas"],
                            cell["rate_mbps"] * 1e6, cell["placement"], seed, window)
    return run(config)


def record() -> dict:
    cells = []
    for cell in golden_cells():
        log = run_cell(cell, SEED, WINDOW_S)
        cells.append({
            **cell,
            "summary": dataclasses.asdict(summarize(log)),
            "samples": [[s.snr, s.tx_gain, s.rx_gain] for s in log.snr_series],
        })
    return {"seed": SEED, "window_s": WINDOW_S, "cells": cells}


def main() -> int:
    golden = record()
    with open(GOLDEN_PATH, "w") as fh:
        # One cell per line keeps a re-recording reviewable as a diff.
        fh.write('{"seed": %d, "window_s": %r, "cells": [\n' % (golden["seed"],
                                                                 golden["window_s"]))
        fh.write(",\n".join(json.dumps(c, separators=(",", ":")) for c in golden["cells"]))
        fh.write("\n]}\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden['cells'])} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
