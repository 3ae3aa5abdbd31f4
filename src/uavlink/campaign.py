"""Batch execution across missions, radio profiles, antenna combinations, and
BS placements, with report emission for the whole grid."""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .beamforming import parse_antenna_combo
from .missions import MissionArchetype, synth_trace
from .mobility import FlightTrace
from .phy import profile_by_name
from .simulation import (
    DEFAULT_BS_HEIGHT,
    MetricsLog,
    ScenarioConfig,
    check_sim_window,
    run,
    summarize,
    write_packet_log,
    write_snr_trace,
)

PLACEMENTS = ("on_premise", "distant_2km")
DISTANT_OFFSET = 2000.0  # m along +x from the mission centroid

REPORT_CSV_HEADER = (
    "mission",
    "profile",
    "antennas",
    "rate_mbps",
    "placement",
    "throughput_mbps",
    "mean_latency_ms",
    "p99_latency_ms",
    "loss_frac",
)


@dataclass(frozen=True)
class ReportRow:
    mission: str
    profile: str
    antennas: str
    rate_mbps: float
    placement: str
    throughput_mbps: float
    mean_latency_ms: float
    p99_latency_ms: float
    loss_frac: float


@dataclass
class RunMatrix:
    """The experimental grid; LTE cells ignore the antenna axis (single antenna)."""

    missions: list[MissionArchetype]
    profiles: list[str]
    antenna_combos: list[str]
    source_rates: list[float]  # b/s
    bs_placements: list[str]
    seeds: list[int]
    sim_window: float = 60.0

    def __post_init__(self):
        for axis, name in (
            (self.missions, "missions"),
            (self.profiles, "profiles"),
            (self.antenna_combos, "antenna_combos"),
            (self.source_rates, "source_rates"),
            (self.bs_placements, "bs_placements"),
            (self.seeds, "seeds"),
        ):
            if not axis:
                raise ValueError(f"empty matrix axis: {name}")
        for p in self.bs_placements:
            if p not in PLACEMENTS:
                raise ValueError(f"unknown placement {p!r}")
        for p in self.profiles:
            if p not in ("mmwave", "lte"):
                raise ValueError(f"unknown profile {p!r}")
        check_sim_window(self.sim_window)


def bs_position_for(trace: FlightTrace, placement: str) -> tuple[float, float, float]:
    cx, cy, _ = trace.centroid()
    if placement == "on_premise":
        return (cx, cy, DEFAULT_BS_HEIGHT)
    if placement == "distant_2km":
        return (cx + DISTANT_OFFSET, cy, DEFAULT_BS_HEIGHT)
    raise ValueError(f"unknown placement {placement!r}")


def build_scenario(
    trace: FlightTrace,
    profile_name: str,
    antennas: str,
    source_rate: float,
    placement: str,
    seed: int,
    sim_window: float,
) -> ScenarioConfig:
    """Wire one grid cell into a runnable scenario.

    The LTE baseline is single-antenna: its cells force a 1x1 combination.
    """
    if profile_name == "lte":
        antennas = "1x1"
    bs_array, uav_array = parse_antenna_combo(antennas)
    return ScenarioConfig(
        trace=trace,
        profile=profile_by_name(profile_name),
        bs_array=bs_array,
        uav_array=uav_array,
        source_rate=source_rate,
        bs_position=bs_position_for(trace, placement),
        sim_window=sim_window,
        seed=seed,
    )


def expand_cells(matrix: RunMatrix) -> list[tuple]:
    """Grid cells as (mission, profile, antennas, rate, placement, seed) tuples.

    The antenna axis applies to mmWave only; LTE contributes one cell per
    remaining combination, mirroring a {mmwave x combos, lte} link axis.
    """
    links = []
    for profile in matrix.profiles:
        if profile == "mmwave":
            links.extend(("mmwave", combo) for combo in matrix.antenna_combos)
        else:
            links.append(("lte", "1x1"))
    cells = []
    for mission in matrix.missions:
        for profile, antennas in links:
            for rate in matrix.source_rates:
                for placement in matrix.bs_placements:
                    for seed in matrix.seeds:
                        cells.append((mission, profile, antennas, rate, placement, seed))
    return cells


def cell_name(mission: MissionArchetype, profile, antennas, rate, placement, seed) -> str:
    rate_mbps = rate / 1e6
    rate_str = f"{rate_mbps:g}"
    return f"{mission.kind}_{profile}_{antennas}_{rate_str}mbps_{placement}_s{seed}"


def _execute_cell(args) -> ReportRow:
    (mission, profile, antennas, rate, placement, seed, sim_window, trace_seed,
     out_dir, packet_logs) = args
    trace = synth_trace(mission, seed=trace_seed)
    config = build_scenario(trace, profile, antennas, rate, placement, seed, sim_window)
    log = run(config)
    name = cell_name(mission, profile, antennas, rate, placement, seed)
    if out_dir is not None:
        out = Path(out_dir)
        write_snr_trace(log, out / f"{name}_snr.csv")
        if packet_logs:
            write_packet_log(log, out / f"{name}_packets.csv")
    return summary_row(log, mission.kind, placement)


def summary_row(log: MetricsLog, mission: str, placement: str) -> ReportRow:
    s = summarize(log)
    cfg = log.config
    antennas = f"{cfg.bs_array.size}x{cfg.uav_array.size}"
    return ReportRow(
        mission=mission,
        profile=cfg.profile.name,
        antennas=antennas,
        rate_mbps=cfg.source_rate / 1e6,
        placement=placement,
        throughput_mbps=s.throughput_bps / 1e6,
        mean_latency_ms=s.mean_latency_s * 1e3,
        p99_latency_ms=s.p99_latency_s * 1e3,
        loss_frac=s.loss_fraction,
    )


def run_matrix(
    matrix: RunMatrix,
    out_dir,
    *,
    workers: int = 1,
    packet_logs: bool = False,
) -> tuple[list[ReportRow], list[str]]:
    """Run every cell, write per-cell logs plus the summary table.

    Cell failures are collected and reported without aborting the rest of the
    grid, and no summary is written when none succeeds. Output files are
    independent of execution order: rows are sorted by grid coordinates first.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_seed = matrix.seeds[0]  # one trace per mission, shared across cells
    cells = expand_cells(matrix)
    jobs = [
        (*cell, matrix.sim_window, trace_seed, str(out), packet_logs) for cell in cells
    ]
    rows: list[ReportRow] = []
    errors: list[str] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_cell, job) for job in jobs]
            for cell, fut in zip(cells, futures):
                try:
                    rows.append(fut.result())
                except Exception as exc:  # per-cell isolation
                    errors.append(f"{cell_name(*cell)}: {exc}")
    else:
        for cell, job in zip(cells, jobs):
            try:
                rows.append(_execute_cell(job))
            except Exception as exc:
                errors.append(f"{cell_name(*cell)}: {exc}")
    rows.sort(key=_row_key)
    if rows:
        write_report_csv(rows, out / "summary.csv")
        (out / "report.txt").write_text(render_report(rows))
    return rows, errors


def _row_key(row: ReportRow):
    return (row.mission, row.profile, row.antennas, row.rate_mbps, row.placement)


def render_report(rows) -> str:
    """Aligned text table of the summary grid."""
    if not rows:
        raise ValueError("nothing to report")
    header = REPORT_CSV_HEADER
    cells = [
        (
            r.mission,
            r.profile,
            r.antennas,
            f"{r.rate_mbps:g}",
            r.placement,
            f"{r.throughput_mbps:.2f}",
            f"{r.mean_latency_ms:.3f}",
            f"{r.p99_latency_ms:.3f}",
            f"{r.loss_frac:.4f}",
        )
        for r in rows
    ]
    widths = [
        max(len(header[i]), max(len(c[i]) for c in cells)) for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(c[i].ljust(widths[i]) for i in range(len(c))) for c in cells)
    return "\n".join(lines) + "\n"


def write_report_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.mission,
                    r.profile,
                    r.antennas,
                    repr(r.rate_mbps),
                    r.placement,
                    repr(r.throughput_mbps),
                    repr(r.mean_latency_ms),
                    repr(r.p99_latency_ms),
                    repr(r.loss_frac),
                ]
            )


def read_report_csv(path) -> list[ReportRow]:
    """Rows of a summary.csv written by :func:`write_report_csv`.

    Raises ValueError, naming the file and line, on a foreign header or a
    malformed row.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(REPORT_CSV_HEADER):
            raise ValueError(
                f"{path}: expected header {','.join(REPORT_CSV_HEADER)}, "
                f"got {reader.fieldnames}"
            )
        for lineno, rec in enumerate(reader, start=2):
            try:
                rows.append(
                    ReportRow(
                        mission=rec["mission"],
                        profile=rec["profile"],
                        antennas=rec["antennas"],
                        rate_mbps=float(rec["rate_mbps"]),
                        placement=rec["placement"],
                        throughput_mbps=float(rec["throughput_mbps"]),
                        mean_latency_ms=float(rec["mean_latency_ms"]),
                        p99_latency_ms=float(rec["p99_latency_ms"]),
                        loss_frac=float(rec["loss_frac"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return rows
