"""Benchmark of the uavlink simulator: host time, memory and output size of
`uavlink simulate` and `uavlink matrix`, with every run's simulated results
checked against a reference recorded in this directory.

Run from the root of a source checkout (the CLI is imported from ./src):

    python3 perfbench/run.py --workload gigabit-orbit --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs in fresh
processes; ``--trace 1`` prints the per-module metrics of a traced run (see
tracer.py). The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. README.md describes every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
TRACER = HERE / "tracer.py"
CHECKER = HERE / "check.py"
WORK_DIR = ".perfbench_work"  # under the checkout root; deleted after each run

# The benchmark seed selects one of this many recorded scenario seeds, so
# every run, whatever its seed, is checked against an exact reference.
REFERENCE_SEEDS = 16
DEFAULT_SEED = 0

SETUP_PER_TIMED = 2  # window-0 launches after each timed one; setup_s is their median
MIN_REPS = 3  # timed launches per end-to-end run, however short --seconds is
REP_TIMEOUT_S = 150.0

# Relative tolerance on throughput, latency and SNR statistics; packet
# counts must match exactly. It admits a reordered floating-point sum and
# nothing a model change would produce.
REL_TOL = 1e-9
ABS_TOL = 1e-12

CONSOLE_SCRIPT = "import sys; from uavlink.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; the grid axes are passed through as the CLI's flags."""

    name: str
    command: str  # "simulate" (one cell) or "matrix" (the product of the axes)
    missions: tuple[str, ...]
    profiles: tuple[str, ...]
    antennas: tuple[str, ...]
    rates_mbps: tuple[str, ...]
    placements: tuple[str, ...]  # CLI spelling: on-premise, distant-2km
    window_s: float
    workers: int = 1

    def cli_args(self, seed: int, out: Path, *, window_s=None, workers=None) -> list[str]:
        window = self.window_s if window_s is None else window_s
        if self.command == "simulate":
            args = ["simulate", "--mission", self.missions[0], "--profile", self.profiles[0],
                    "--antennas", self.antennas[0], "--rate-mbps", self.rates_mbps[0],
                    "--bs", self.placements[0]]
        else:
            args = ["matrix", "--missions", ",".join(self.missions),
                    "--profile", ",".join(self.profiles),
                    "--antennas", ",".join(self.antennas),
                    "--rate-mbps", ",".join(self.rates_mbps),
                    "--bs", ",".join(self.placements),
                    "--workers", str(self.workers if workers is None else workers)]
        return args + ["--window-s", repr(window), "--seed", str(seed), "--out", str(out)]


# Why each workload is here, and what it should and should not move, is in
# README.md; the windows size one launch at a few seconds of host time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gigabit-orbit", "simulate", ("overwatch-orbit",), ("mmwave",), ("64x16",),
                 ("1000",), ("on-premise",), window_s=10.0),
        Workload("telemetry-lawnmower", "simulate", ("search-lawnmower",), ("mmwave",),
                 ("64x16",), ("10",), ("on-premise",), window_s=120.0),
        Workload("sweep-matrix", "matrix", ("overwatch_orbit", "search_lawnmower"),
                 ("mmwave", "lte"), ("64x16", "16x4"), ("10", "1000"),
                 ("on-premise", "distant-2km"), window_s=10.0, workers=2),
    )
}


def cell_key(mission: str, profile: str, antennas: str, rate_mbps: float, placement: str) -> str:
    """Grid coordinates as the matrix summary spells them (LTE cells are 1x1)."""
    return "/".join(
        (mission.replace("-", "_"), profile, antennas, f"{rate_mbps:g}", placement.replace("-", "_"))
    )


# ---------------------------------------------------------------------------
# Launching the CLI


@dataclass
class Launch:
    wall_s: float
    rss_mb: float  # ru_maxrss of the CLI and its reaped children (pool workers)
    returncode: int
    out_mb: float
    load_1m: float  # os.getloadavg()[0] just before the launch
    stderr: str


def launch(argv: list[str], root: Path, rep_dir: Path) -> Launch:
    """Run one command in a fresh process and time it from spawn to exit."""
    out = rep_dir / "out"
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time the CLI as installed: byte-compiled
    load = os.getloadavg()[0]
    with open(rep_dir / "stdout.txt", "wb") as so, open(rep_dir / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=so, stderr=se)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                exited, _, _ = select.select([fd], [], [], REP_TIMEOUT_S)
            finally:
                os.close(fd)
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:  # interrupted while waiting
                proc.kill()
                proc.wait()
    out_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return Launch(
        wall_s=wall,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        returncode=proc.returncode,
        out_mb=out_bytes / 1e6,
        load_1m=load,
        stderr=(rep_dir / "stderr.txt").read_text(errors="replace")[-2000:],
    )


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CONSOLE_SCRIPT, *args]


def traced_command(args: list[str], metrics_path: Path) -> list[str]:
    return [sys.executable, str(TRACER), str(metrics_path), "--", *args]


# ---------------------------------------------------------------------------
# Checking outputs against the reference


def read_output(workload: Workload, out: Path, ref_cells: dict, window: float, seed: int) -> dict:
    """Summary fields per cell of an output directory, read by check.py in a process of its own.

    Parsing a large packet log grows a process by tens of MB. Kept out of this
    process, that growth cannot leak into a launched CLI's ru_maxrss, which
    Linux seeds from the launching process's peak RSS at exec.
    """
    argv = [sys.executable, str(CHECKER), str(out), repr(window), str(seed)]
    if workload.command == "simulate":
        argv += list(ref_cells)
    done = subprocess.run(argv, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"check.py failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout)


def mismatches(got: dict | None, ref: dict, window: float) -> list[str]:
    """How one cell's outputs differ from its reference Summary (empty when they agree)."""
    if got is None:
        return ["output files missing"]
    bad = []
    for field, value in got.items():
        want = ref[field]
        if isinstance(want, int):
            same = value == want
        else:
            same = math.isclose(value, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        if not same:
            bad.append(f"{field} {value!r} != reference {want!r}")
    if "generated" not in got:  # the matrix summary carries rates, not packet counts
        delivered = round(got["throughput_bps"] * window / ref["pkt_bits"])
        lost = round(got["loss_fraction"] * ref["generated"])
        if delivered != ref["delivered"]:
            bad.append(f"delivered {delivered} != reference {ref['delivered']}")
        if lost != ref["dropped_buffer"] + ref["dropped_harq"]:
            bad.append(f"lost {lost} != reference")
    return bad


def check_output(workload: Workload, out: Path, ref_cells: dict, window: float, seed: int):
    """Per-cell list of mismatches against the reference; missing or extra cells fail."""
    try:
        got = read_output(workload, out, ref_cells, window, seed)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return {key: [f"unreadable output: {exc}"] for key in ref_cells}
    result = {key: mismatches(got.pop(key, None), ref, window) for key, ref in ref_cells.items()}
    result.update({key: ["cell not in the reference"] for key in got})
    return result


def _digest(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, by relative path."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
        digests[str(path.relative_to(out))] = h.hexdigest()
    return digests


def load_reference(workload: Workload, seed: int) -> dict:
    """Reference cells of this workload and scenario seed, recorded by reference.py."""
    ref = json.loads(REFERENCE_PATH.read_text())["workloads"][workload.name]
    if ref["window_s"] != workload.window_s:
        raise SystemExit(f"reference for {workload.name} was recorded with another window; "
                         "rerun perfbench/reference.py")
    return ref["seeds"][str(seed)]["cells"]


# ---------------------------------------------------------------------------
# One benchmark run


class Runner:
    """Launches, checks and tallies the reps of one benchmark run."""

    def __init__(self, workload: Workload, seed: int, root: Path, ref_cells: dict):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.ref_cells = ref_cells
        self.slots = sum(c["slots"] for c in ref_cells.values())
        self.work = root / WORK_DIR / f"run-{os.getpid()}-{time.time_ns()}"
        self.attempted = 0
        self.failed = 0
        self.n = 0
        self.verified = None  # digest of the last output that matched the reference

    def rep(self, label: str, *, window_s=None, workers=None, traced=False) -> tuple[Launch, dict]:
        """Launch one rep in a fresh output directory, check it, then delete it."""
        self.n += 1
        rep_dir = self.work / f"rep-{self.n:03d}"
        out = rep_dir / "out"
        args = self.workload.cli_args(self.seed, out, window_s=window_s, workers=workers)
        metrics_path = rep_dir / "trace.json"
        argv = traced_command(args, metrics_path) if traced else cli_command(args)
        result = launch(argv, self.root, rep_dir)
        traced_metrics = {}
        if result.returncode == 0:
            if window_s == 0:  # set-up launch: nothing simulated, nothing to compare
                cells = {key: [] for key in self.ref_cells}
            else:
                cells = self.check(out)
            if traced:
                traced_metrics = json.loads(metrics_path.read_text())
        else:
            cells = {key: [f"exit code {result.returncode}"] for key in self.ref_cells}
        shutil.rmtree(rep_dir)
        bad = {key: why for key, why in cells.items() if why}
        self.attempted += len(cells)
        self.failed += len(bad)
        status = "ok" if not bad else f"FAILED {len(bad)}/{len(cells)} cells"
        print(f"{label:>8} {self.n:3d}  wall {result.wall_s:8.4f} s  rss {result.rss_mb:7.1f} MB  "
              f"out {result.out_mb:8.3f} MB  load {result.load_1m:5.2f}  {status}", flush=True)
        for key, why in list(bad.items())[:5]:
            print(f"         {key}: {'; '.join(why[:3])}", file=sys.stderr)
        if result.returncode != 0:
            print(result.stderr, file=sys.stderr)
        return result, traced_metrics

    def check(self, out: Path) -> dict[str, list[str]]:
        """Compare with the reference; outputs byte-identical to a checked one pass at once."""
        digest = _digest(out)
        if digest == self.verified:
            return {key: [] for key in self.ref_cells}
        cells = check_output(self.workload, out, self.ref_cells, self.workload.window_s, self.seed)
        if not any(cells.values()):
            self.verified = digest
        return cells

    def reps_for(self, seconds: float, label: str, **kw) -> list:
        """Launch reps until their summed wall time reaches ``seconds``."""
        reps, spent = [], 0.0
        while spent < seconds or not reps:
            reps.append(self.rep(label, **kw))
            spent += reps[-1][0].wall_s
        return reps

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Timed launches until ``seconds`` of them, each followed by set-up launches.

    Interleaving spreads both samples over the whole run, so a slow drift in
    the machine's speed moves their medians alike.
    """
    runner.rep("warm-up", window_s=0)  # byte-compiles src/ on a fresh checkout
    timed, setup = [], []
    while len(timed) < MIN_REPS or sum(r.wall_s for r in timed) < seconds:
        timed.append(runner.rep("timed")[0])
        setup += [runner.rep("setup", window_s=0)[0] for _ in range(SETUP_PER_TIMED)]
    med = statistics.median
    return {
        "wall_s": (med(r.wall_s for r in timed), "s"),
        "setup_s": (med(r.wall_s for r in setup), "s"),
        "slots_per_s": (med(runner.slots / r.wall_s for r in timed), "1/s"),
        "peak_rss_mb": (med(r.rss_mb for r in timed), "MB"),
        "output_mb": (med(r.out_mb for r in timed), "MB"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    """Traced reps in-process (matrix at --workers 1), against untraced reps of the same command."""
    runner.rep("warm-up", window_s=0)
    share = seconds / 3
    untraced = [r.wall_s for r, _ in runner.reps_for(share, "untraced", workers=1)]
    traced = runner.reps_for(share, "traced", workers=1, traced=True)
    workers = runner.workload.workers
    if workers > 1:
        parallel = [r.wall_s for r, _ in runner.reps_for(share, "parallel")]
    else:
        parallel = untraced
    med = statistics.median
    succeeded = [t for _, t in traced if t]  # a failed launch already fails the run
    metrics = {name: med(t[name] for t in succeeded) if succeeded else 0.0
               for name in tracer.UNITS}
    traced_wall = med(r.wall_s for r, _ in traced)
    untraced_wall = med(untraced)
    parallel_wall = med(parallel)
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["campaign.workers"] = workers
    metrics["campaign.untraced_wall_s"] = parallel_wall
    # Traced cell time, deflated by the tracing overhead, over the pool's capacity.
    metrics["campaign.parallel_efficiency"] = (
        metrics["campaign.cell_s.sum"] / (traced_wall / untraced_wall) / (workers * parallel_wall)
    )
    return {name: (value, tracer.UNITS[name]) for name, value in metrics.items()}


def environment(root: Path) -> dict:
    init = (root / "src" / "uavlink" / "__init__.py").read_text()
    version = re.search(r'__version__ = "([^"]+)"', init)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "uavlink": version.group(1) if version else "unknown",
        "commit": commit or "unknown (not a git checkout)",
        "loadavg": os.getloadavg(),
    }


def report(metrics: dict, runner: Runner) -> None:
    """Print every metric by name with its unit, then the one-line JSON result."""
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"failed_frac {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} cells)")
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(f"benchmark process peak RSS {own:.1f} MB (a floor under every launch's peak_rss_mb)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    try:
        return per_layer(runner, seconds) if trace else end_to_end(runner, seconds)
    finally:
        runner.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "uavlink" / "cli.py").is_file():
        print("error: run from the root of a uavlink checkout (src/uavlink/cli.py not found)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % REFERENCE_SEEDS
    print("env " + json.dumps({**environment(root), "workload": workload.name,
                               "seed": args.seed, "scenario_seed": seed,
                               "window_s": workload.window_s}), flush=True)
    runner = Runner(workload, seed, root, load_reference(workload, seed))
    report(measure(runner, args.seconds, bool(args.trace)), runner)
    return 0


if __name__ == "__main__":
    sys.exit(main())
