"""Command-line front end: trace synthesis, single runs, batch matrices, reports."""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

from .campaign import (
    RunMatrix,
    build_scenario,
    read_report_csv,
    render_report,
    run_matrix,
)
from .missions import MISSION_KINDS, MissionArchetype, archetype_by_name, synth_trace
from .mobility import decimate, read_trace_csv, write_trace_csv
from .phy import PROFILES
from .simulation import BS_OFFSETS, run, summarize, write_packet_log, write_snr_trace

DEFAULT_DECIMATE_S = 1.0
DEFAULT_WINDOW_S = 60.0
DEFAULT_SEED = 0
BS_FLAGS = [p.replace("_", "-") for p in BS_OFFSETS]  # --bs spelling of each placement


def _placement(flag: str) -> str:
    return flag.replace("-", "_")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavlink",
        description="Trace-driven simulator of a 28 GHz mmWave (and LTE-class) UAV uplink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth-trace", help="generate a synthetic mission trace CSV")
    synth.add_argument("--mission", default="overwatch-orbit",
                       help=f"one of: {', '.join(k.replace('_', '-') for k in MISSION_KINDS)}")
    synth.add_argument("--area-m2", type=float, default=MissionArchetype.area)
    synth.add_argument("--speed-ms", type=float, default=MissionArchetype.speed)
    synth.add_argument("--altitude-m", type=float, default=MissionArchetype.altitude)
    synth.add_argument("--duration-s", type=float, default=MissionArchetype.duration)
    synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    synth.add_argument("--out", required=True, help="output directory")

    sim = sub.add_parser("simulate", help="run one scenario and write its logs")
    sim.add_argument("--trace", help="input trace CSV (t_s,lat_deg,lon_deg,alt_m)")
    sim.add_argument("--mission", help="synthesize this mission instead of reading --trace")
    sim.add_argument("--profile", choices=list(PROFILES), default=next(iter(PROFILES)))
    sim.add_argument("--antennas", default="64x16", help="BSxUAV element totals, e.g. 64x16")
    sim.add_argument("--rate-mbps", type=float, default=10.0)
    sim.add_argument("--bs", choices=BS_FLAGS, default=BS_FLAGS[0])
    sim.add_argument("--window-s", type=float, default=DEFAULT_WINDOW_S)
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--decimate-s", type=float, default=DEFAULT_DECIMATE_S,
                     help="minimum waypoint spacing in s applied to input traces; "
                          "0 keeps every waypoint")
    sim.add_argument("--config", help="INI file with a [scenario] section of flag defaults")
    sim.add_argument("--out", help="output directory (may come from --config)")

    mat = sub.add_parser("matrix", help="run a grid of scenarios and write a report")
    mat.add_argument("--missions", default=",".join(MISSION_KINDS),
                     help="comma-separated mission kinds")
    mat.add_argument("--profile", default=",".join(PROFILES), help="comma-separated profiles")
    mat.add_argument("--antennas", default="64x16,16x4", help="comma-separated combos")
    mat.add_argument("--rate-mbps", default="10,1000", help="comma-separated rates")
    mat.add_argument("--bs", default=BS_FLAGS[0], help="comma-separated placements")
    mat.add_argument("--window-s", type=float, default=DEFAULT_WINDOW_S)
    mat.add_argument("--seed", type=int, default=DEFAULT_SEED)
    mat.add_argument("--workers", type=_positive_int, default=1,
                     help="worker processes, capped by the cells and the CPUs this "
                          "process may run on")
    mat.add_argument("--packet-logs", action="store_true",
                     help="also write per-cell packet CSVs (large at high rates)")
    mat.add_argument("--out", required=True, help="output directory")

    rep = sub.add_parser("report", help="re-render the summary table of a matrix run")
    rep.add_argument("--out", required=True, help="matrix output directory")

    parser.simulate_parser = sim  # config-file defaults hook
    return parser


def _apply_config_file(path: str, parser: argparse.ArgumentParser) -> None:
    """Let an INI [scenario] section provide defaults that flags override."""
    ini = configparser.ConfigParser(interpolation=None)  # every value is literal
    try:
        found = ini.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"config file {path}: {exc}") from None
    if not found:
        raise ValueError(f"config file not found: {path}")
    if "scenario" not in ini:
        raise ValueError(f"config file {path} lacks a [scenario] section")
    sim = parser.simulate_parser
    actions = {a.dest: a for a in sim._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, value in ini["scenario"].items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config file {path}: unknown key {key!r} in [scenario]")
        try:
            defaults[action.dest] = action.type(value) if action.type is not None else value
        except ValueError:
            raise ValueError(f"config file {path}: bad value {value!r} for {key!r}") from None
    sim.set_defaults(**defaults)


def cmd_synth_trace(args) -> int:
    arch = archetype_by_name(
        args.mission,
        area=args.area_m2,
        speed=args.speed_ms,
        altitude=args.altitude_m,
        duration=args.duration_s,
    )
    trace = synth_trace(arch, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"trace_{arch.kind}.csv"
    write_trace_csv(trace, path)
    print(f"wrote {path} ({len(trace.t)} waypoints)")
    return 0


def cmd_simulate(args) -> int:
    if not args.out:
        raise ValueError("simulate needs --out (flag or config file)")
    if not 0 <= args.decimate_s < math.inf:
        raise ValueError(f"decimate_s must be non-negative and finite, got {args.decimate_s}")
    if args.trace:
        trace = read_trace_csv(args.trace)
        if args.decimate_s > 0:
            trace = decimate(trace, args.decimate_s)
        label = Path(args.trace).stem
    elif args.mission:
        arch = archetype_by_name(args.mission)
        trace = synth_trace(arch, seed=args.seed)
        label = arch.kind
    else:
        raise ValueError("simulate needs --trace or --mission")
    config = build_scenario(
        trace,
        args.profile,
        args.antennas,
        args.rate_mbps * 1e6,
        _placement(args.bs),
        args.seed,
        args.window_s,
    )
    log = run(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_packet_log(log, out / f"{label}_packets.csv")
    write_snr_trace(log, out / f"{label}_snr.csv")
    s = summarize(log)
    print(
        f"{label}: throughput {s.throughput_bps / 1e6:.2f} Mbps, "
        f"mean latency {s.mean_latency_s * 1e3:.3f} ms, "
        f"p99 {s.p99_latency_s * 1e3:.3f} ms, loss {s.loss_fraction:.4f}, "
        f"mean SNR {s.mean_snr_db:.1f} dB"
    )
    return 0


def cmd_matrix(args) -> int:
    try:
        rates = [float(r) * 1e6 for r in args.rate_mbps.split(",")]
    except ValueError as exc:
        raise ValueError(f"--rate-mbps {args.rate_mbps}: {exc}") from None
    matrix = RunMatrix(
        missions=[archetype_by_name(m) for m in args.missions.split(",")],
        profiles=args.profile.split(","),
        antenna_combos=args.antennas.split(","),
        source_rates=rates,
        bs_placements=[_placement(b) for b in args.bs.split(",")],
        seeds=[args.seed],
        sim_window=args.window_s,
    )
    rows, errors = run_matrix(
        matrix, args.out, workers=args.workers, packet_logs=args.packet_logs
    )
    if rows:
        print(render_report(rows), end="")
    for err in errors:
        print(f"cell failed: {err}", file=sys.stderr)
    return 1 if errors else 0


def cmd_report(args) -> int:
    path = Path(args.out) / "summary.csv"
    rows = read_report_csv(path)
    print(render_report(rows), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synth-trace": cmd_synth_trace,
        "simulate": cmd_simulate,
        "matrix": cmd_matrix,
        "report": cmd_report,
    }
    try:
        if getattr(args, "config", None) is not None:
            _apply_config_file(args.config, parser)
            args = parser.parse_args(argv)  # explicit flags win over the file
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
