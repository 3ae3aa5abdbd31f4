"""Read a uavlink output directory and print each cell's Summary fields as JSON.

    python3 perfbench/check.py OUT_DIR WINDOW_S SEED [CELL_KEY]

With CELL_KEY the directory is a `simulate` output holding that one cell;
without it, a `matrix` output. run.py compares the result with the reference.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

from run import cell_key


def _snr_stats(path: Path) -> tuple[float, float]:
    with open(path, newline="") as fh:
        snrs = [float(rec["snr_db"]) for rec in csv.DictReader(fh)]
    if not snrs:
        return 0.0, 0.0
    return min(snrs), sum(snrs) / len(snrs)


def _packet_summary(path: Path, window: float) -> dict:
    """The Summary fields that the packet log determines, as summarize() computes them."""
    counts = {"delivered": 0, "dropped_buffer": 0, "dropped_harq": 0, "in_flight": 0}
    lat = []
    delivered_bits = 0
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, t_gen, t_deliver, size_bits, outcome = line.rstrip("\n").split(",")
            counts[outcome] += 1
            if outcome == "delivered":
                lat.append(float(t_deliver) - float(t_gen))
                delivered_bits += int(size_bits)
    generated = sum(counts.values())
    arr = np.array(lat)
    return {
        "generated": generated,
        **counts,
        "throughput_bps": delivered_bits / window if window > 0 else 0.0,
        "mean_latency_s": float(arr.mean()) if lat else 0.0,
        "median_latency_s": float(np.median(arr)) if lat else 0.0,
        "p99_latency_s": float(np.percentile(arr, 99)) if lat else 0.0,
        "loss_fraction": (counts["dropped_buffer"] + counts["dropped_harq"]) / generated
        if generated else 0.0,
    }


def read_simulate(out: Path, key: str, window: float) -> dict[str, dict | None]:
    """Summary fields of the one cell a `simulate` output directory holds."""
    label = key.split("/")[0]
    packets, snr = out / f"{label}_packets.csv", out / f"{label}_snr.csv"
    if not packets.exists() or not snr.exists():
        return {key: None}
    got = _packet_summary(packets, window)
    got["min_snr_db"], got["mean_snr_db"] = _snr_stats(snr)
    return {key: got}


def read_matrix(out: Path, seed: int) -> dict[str, dict | None]:
    """Summary fields of every cell in a `matrix` output directory (None: SNR trace missing)."""
    cells = {}
    summary = out / "summary.csv"
    if not summary.exists():
        return cells
    with open(summary, newline="") as fh:
        for rec in csv.DictReader(fh):
            key = cell_key(rec["mission"], rec["profile"], rec["antennas"],
                           float(rec["rate_mbps"]), rec["placement"])
            mission, profile, antennas, rate, placement = key.split("/")
            snr = out / f"{mission}_{profile}_{antennas}_{rate}mbps_{placement}_s{seed}_snr.csv"
            if not snr.exists():
                cells[key] = None
                continue
            cells[key] = {
                "throughput_bps": float(rec["throughput_mbps"]) * 1e6,
                "mean_latency_s": float(rec["mean_latency_ms"]) / 1e3,
                "p99_latency_s": float(rec["p99_latency_ms"]) / 1e3,
                "loss_fraction": float(rec["loss_frac"]),
                **dict(zip(("min_snr_db", "mean_snr_db"), _snr_stats(snr))),
            }
    return cells


def main(argv: list[str]) -> int:
    out, window, seed = Path(argv[0]), float(argv[1]), int(argv[2])
    cells = read_simulate(out, argv[3], window) if len(argv) > 3 else read_matrix(out, seed)
    json.dump(cells, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
