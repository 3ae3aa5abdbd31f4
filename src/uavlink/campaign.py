"""Batch execution across missions, radio profiles, antenna combinations, and
BS placements, with report emission for the whole grid."""

from __future__ import annotations

import csv
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass, fields
from functools import partial
from pathlib import Path

from .beamforming import parse_antenna_combo
from .missions import MissionArchetype, synth_trace
from .mobility import FlightTrace, read_csv
from .phy import profile_by_name
from .simulation import (
    ScenarioConfig,
    bs_position_for,
    channel_key,
    physical_memory,
    run,
    run_bytes,
    shared_channel,
    summarize,
    write_packet_log,
    write_snr_trace,
)


@dataclass(frozen=True, order=True)  # rows sort by grid coordinates, the first seven fields
class ReportRow:
    mission: str
    profile: str
    antennas: str
    rate_mbps: float
    placement: str
    seed: int
    window_s: float
    throughput_mbps: float
    mean_latency_ms: float
    p99_latency_ms: float
    loss_frac: float


REPORT_CSV_HEADER = tuple(f.name for f in fields(ReportRow))
_REPORT_FORMATS = ("", "", "", "g", "", "", "g", ".2f", ".3f", ".3f", ".4f")  # report.txt
_PARSERS = {"str": str, "int": int, "float": float}  # by annotation, a string here


@dataclass
class RunMatrix:
    """The experimental grid; LTE cells ignore the antenna axis (single antenna).

    Construction synthesizes one trace per mission (at the first seed, shared
    by the mission's cells) and builds ``cells``: one (name, coordinates,
    ScenarioConfig) per :func:`expand_cells` tuple, where the coordinates are the
    first seven ReportRow fields. So a bad axis, a window too large for memory,
    or two cells that share a name or coordinates, is refused before any cell runs.
    """

    missions: list[MissionArchetype]
    profiles: list[str]
    antenna_combos: list[str]
    source_rates: list[float]  # b/s
    bs_placements: list[str]
    seeds: list[int]
    sim_window: float

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
        for combo in self.antenna_combos:  # checked even when every profile is LTE (1x1)
            parse_antenna_combo(combo)
        traces = {m: synth_trace(m, seed=self.seeds[0]) for m in self.missions}
        self.cells: list[tuple[str, tuple, ScenarioConfig]] = []
        for mission, profile, antennas, rate, placement, seed in expand_cells(self):
            cfg = build_scenario(traces[mission], profile, antennas, rate, placement, seed,
                                 self.sim_window)
            self.cells.append((
                f"{mission.kind}_{profile}_{antennas}_{rate / 1e6:g}mbps_{placement}_s{seed}",
                (mission.kind, profile, f"{cfg.bs_array.size}x{cfg.uav_array.size}",
                 rate / 1e6, placement, seed, self.sim_window),
                cfg,
            ))
        seen = Counter(key for name, coordinates, _ in self.cells for key in (name, coordinates))
        if clashes := [key for key, n in seen.items() if n > 1]:
            raise ValueError(f"matrix cells share a name or grid coordinates: {clashes}")


def profile_antennas(profile: str, combos: list[str]) -> list[str]:
    """The antenna combinations a profile's cells run: the LTE baseline is single-antenna."""
    return ["1x1"] if profile == "lte" else combos


def build_scenario(
    trace: FlightTrace,
    profile_name: str,
    antennas: str,
    source_rate: float,
    placement: str,
    seed: int,
    sim_window: float,
) -> ScenarioConfig:
    """Wire one grid cell into a runnable scenario (see :func:`profile_antennas`)."""
    [antennas] = profile_antennas(profile_name, [antennas])
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

    The link axis is each profile with each of its :func:`profile_antennas`.
    """
    links = [(p, a) for p in matrix.profiles for a in profile_antennas(p, matrix.antenna_combos)]
    cells = []
    for mission in matrix.missions:
        for profile, antennas in links:
            for rate in matrix.source_rates:
                for placement in matrix.bs_placements:
                    for seed in matrix.seeds:
                        cells.append((mission, profile, antennas, rate, placement, seed))
    return cells


def _execute_cell(job) -> ReportRow:
    name, coordinates, config, out_dir, packet_logs = job
    log = run(config)
    out = Path(out_dir)
    write_snr_trace(log, out / f"{name}_snr.csv")
    if packet_logs:
        write_packet_log(log, out / f"{name}_packets.csv")
    s = summarize(log)
    return ReportRow(*coordinates, s.throughput_bps / 1e6, s.mean_latency_s * 1e3,
                     s.p99_latency_s * 1e3, s.loss_fraction)


def _execute_group(jobs) -> list:
    """Cells of one ``channel_key``, in grid order, sharing one channel stage and one SNR
    CSV write (``shared_channel``): each cell's ReportRow, or the exception it raised."""
    results = []
    with shared_channel():
        for job in jobs:
            try:
                results.append(_execute_cell(job))
            except Exception as exc:  # per-cell isolation
                results.append(exc)
    return results


def run_matrix(
    matrix: RunMatrix,
    out_dir,
    *,
    workers: int = 1,
    packet_logs: bool = False,
) -> tuple[list[ReportRow], list[str]]:
    """Run every cell of ``matrix.cells``, write per-cell logs plus the summary table.

    Cells with one ``channel_key`` (those that differ only in rate) run as one job
    (``_execute_group``); see ``split_groups`` for when a pool gets more jobs than that.
    Cell failures are collected and reported, by cell name in grid order, without
    aborting the rest of the grid, and no summary is written when none succeeds. Output
    files are independent of execution order: rows are sorted by grid coordinates.
    """
    largest = max(sum(run_bytes(config)) for *_, config in matrix.cells)
    workers = pool_size(workers, len(matrix.cells), largest)
    out = Path(out_dir)
    groups: dict[tuple, list] = {}
    for name, coordinates, config in matrix.cells:
        groups.setdefault(channel_key(config), []).append(
            (name, coordinates, config, str(out), packet_logs))
    out.mkdir(parents=True, exist_ok=True)
    outcomes = {}  # by cell name: its ReportRow, or the exception it or its job raised
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # Each job and its results as a call: its future's, or in process the job itself.
        results = [(jobs, pool.submit(_execute_group, jobs).result if pool
                    else partial(_execute_group, jobs))
                   for jobs in split_groups(groups.values(), workers)]
        for jobs, result in results:
            try:
                job_outcomes = result()
            except Exception as exc:  # the job itself failed, e.g. a broken pool
                job_outcomes = [exc] * len(jobs)
            outcomes.update(zip((name for name, *_ in jobs), job_outcomes))
    rows: list[ReportRow] = []
    errors: list[str] = []
    for name, *_ in matrix.cells:
        outcome = outcomes[name]
        if isinstance(outcome, Exception):
            errors.append(f"{name}: {outcome}")
        else:
            rows.append(outcome)
    rows.sort()
    if rows:
        write_report_csv(rows, out / "summary.csv")
        (out / "report.txt").write_text(render_report(rows))
    return rows, errors


def split_groups(groups, workers: int) -> list[list]:
    """Jobs for a pool of ``workers`` processes, no more than the cells: the groups, the
    largest halved until there is a job for each worker. So the pool is never smaller
    than with one job a cell, and a job's cells share a channel stage."""
    jobs = list(groups)
    while len(jobs) < workers:
        large = jobs.pop(max(range(len(jobs)), key=lambda i: len(jobs[i])))
        jobs += [large[:len(large) // 2], large[len(large) // 2:]]
    return jobs


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int, cells: int, cell_bytes: float) -> int:
    """Worker processes for a matrix: no more than its cells, ``usable_cpus``, or the
    cells of ``cell_bytes`` each (see ``run_bytes``) that fit in physical memory at once."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    fit = int(physical_memory() // cell_bytes)
    return max(1, min(workers, cells, usable_cpus(), fit))


def render_report(rows) -> str:
    """Aligned text table of the summary grid."""
    if not rows:
        raise ValueError("nothing to report")
    header = REPORT_CSV_HEADER
    cells = [tuple(format(v, f) for v, f in zip(astuple(r), _REPORT_FORMATS)) for r in rows]
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
    """Floats as ``csv.writer`` writes them, their repr: :func:`read_report_csv` reads them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_HEADER)
        writer.writerows(map(astuple, rows))


def read_report_csv(path) -> list[ReportRow]:
    """Rows of a summary.csv written by :func:`write_report_csv`.

    Raises ValueError, naming the file and line, on a foreign header, a
    malformed row or bytes that are not UTF-8 (see ``mobility.read_csv``).
    """
    rows = []
    with read_csv(path, REPORT_CSV_HEADER) as reader:
        for lineno, rec in enumerate(reader, start=2):
            try:
                rows.append(ReportRow(*(_PARSERS[f.type](rec[f.name]) for f in fields(ReportRow))))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return rows
