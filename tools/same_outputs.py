"""Check that two commits of uavlink write the same bytes: stdout and every output file
of the benchmark commands.

    python3 tools/same_outputs.py BASE [HEAD] [--work DIR]

BASE and HEAD are git revisions. HEAD defaults to the working tree: its tracked files as
they are now, staged or not (``git stash create``), or the HEAD commit when none is
modified. Each side is checked out into its own ``git worktree`` under a temporary
directory (or ``--work``), removed at the end.

Each side runs, in a fresh process from its own ``src/``, the three commands of
``perfbench/run.py``'s workloads at seeds 0 and 13, the sweep matrix again at
``--workers 1`` (its cells in process, not in a pool) at both seeds, an LTE ``simulate``
at 100 Mb/s from the distant placement over 10 s at both seeds (saturated: buffer drops
and HARQ retransmissions in its packet CSV), a 1x1 mmWave ``simulate`` at 10 Mb/s from the
distant placement over 0.5 s at both seeds (no packet is delivered, so it pins the
summary of an empty latency sample), one more matrix,
the sweep matrix's axes with ``--antennas 64X16,16x4 --packet-logs`` over a 2 s
window, and ``synth-trace`` of each mission kind at seed 13 over 20 000 s (three
8192-row chunks of the trace writer). Both sides run the commands of this checkout's
``perfbench/run.py`` on one machine, so numpy's SIMD paths and the Python version are
the same on both.

It prints each file that differs, is missing on one side, or whose command exited
differently, and for a CSV the largest absolute difference in each column that
differs. Exit status: 0 when every byte is the same, 1 when something differs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import CONSOLE_SCRIPT, WORKLOADS  # noqa: E402  (the benchmark's own commands)

SEEDS = (0, 13)
MISSIONS = ("overwatch-orbit", "search-lawnmower", "perimeter-patrol", "target-follow")


def commands() -> dict[str, list[str]]:
    """CLI arguments by run name; every run writes to ``out`` in its own directory."""
    out = Path("out")
    runs = {f"{name}-s{seed}": w.cli_args(seed, out)
            for name, w in WORKLOADS.items() for seed in SEEDS}
    sweep = WORKLOADS["sweep-matrix"]
    for seed in SEEDS:  # the in-process path, beside the pool's
        runs[f"sweep-matrix-workers-1-s{seed}"] = sweep.cli_args(seed, out, workers=1)
    lte = dataclasses.replace(WORKLOADS["gigabit-orbit"], profiles=("lte",), rates_mbps=("100",),
                              placements=("distant-2km",))
    for seed in SEEDS:
        runs[f"lte-100mbps-distant-2km-s{seed}"] = lte.cli_args(seed, out)
    undelivered = dataclasses.replace(WORKLOADS["gigabit-orbit"], antennas=("1x1",),
                                      rates_mbps=("10",), placements=("distant-2km",))
    for seed in SEEDS:
        runs[f"nothing-delivered-s{seed}"] = undelivered.cli_args(seed, out, window_s=0.5)
    args = sweep.cli_args(SEEDS[0], out, window_s=2.0)
    args[args.index("--antennas") + 1] = "64X16,16x4"
    runs["matrix-64X16-packet-logs-s0"] = args + ["--packet-logs"]
    for kind in MISSIONS:
        runs[f"synth-trace-{kind}-s13"] = ["synth-trace", "--mission", kind, "--seed", "13",
                                           "--duration-s", "20000", "--out", str(out)]
    return runs


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_side(rev: str, side: Path) -> None:
    """Check ``rev`` out into ``side/tree`` and run every command in ``side/runs/<run>``."""
    tree = side / "tree"
    git("worktree", "add", "--detach", str(tree), rev)
    try:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        for name, args in commands().items():
            run_dir = side / "runs" / name
            run_dir.mkdir(parents=True)
            with open(run_dir / "stdout.txt", "wb") as so:
                code = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *args],
                                      cwd=run_dir, env=env, stdout=so,
                                      stderr=subprocess.DEVNULL).returncode
            (run_dir / "exit_code.txt").write_text(f"{code}\n")
            print(f"{rev[:12]} {name}: exit {code}", flush=True)
    finally:
        git("worktree", "remove", "--force", str(tree))


def column_diffs(a: Path, b: Path) -> list[str]:
    """For CSVs of one header, each differing column's largest absolute difference."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = csv.reader(fa), csv.reader(fb)
        header = next(ra, None)
        if header != next(rb, None):
            return ["headers differ"]
        worst: dict[str, float] = {}
        extra = {"BASE": 0, "HEAD": 0}
        for x, y in zip_longest(ra, rb):
            if x is None or y is None:
                extra["HEAD" if x is None else "BASE"] += 1
                continue
            for col, u, v in zip(header, x, y):
                if u != v:
                    worst[col] = max(worst.get(col, 0.0), _abs_diff(u, v))
    return ([f"{col}: largest |difference| {d:.3g}" for col, d in worst.items()]
            + [f"{n} more rows in {side}" for side, n in extra.items() if n])


def _abs_diff(u: str, v: str) -> float:
    try:
        d = abs(float(u) - float(v))
    except ValueError:  # text, or a number against an empty field
        return math.inf
    return math.inf if math.isnan(d) else d


def compare(base: Path, head: Path) -> list[str]:
    """One line per difference between the two trees of run outputs."""
    files_a = {p.relative_to(base) for p in base.rglob("*") if p.is_file()}
    files_b = {p.relative_to(head) for p in head.rglob("*") if p.is_file()}
    lines = [f"only in {side}: {p}" for side, only in (("BASE", files_a - files_b),
                                                       ("HEAD", files_b - files_a))
             for p in sorted(only)]
    for rel in sorted(files_a & files_b):
        a, b = base / rel, head / rel
        if a.read_bytes() == b.read_bytes():
            continue
        lines.append(f"differs: {rel}")
        if rel.suffix == ".csv":
            lines.extend(f"    {note}" for note in column_diffs(a, b))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--work", help="directory for the worktrees and outputs")
    args = parser.parse_args(argv)
    if args.work is not None and not os.path.isdir(args.work):
        parser.error(f"--work {args.work}: no such directory")
    revs = {"BASE": git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
            "HEAD": git("rev-parse", "--verify", f"{args.head}^{{commit}}") if args.head
            else git("stash", "create") or git("rev-parse", "HEAD")}
    work = Path(tempfile.mkdtemp(prefix="same_outputs_", dir=args.work))
    try:
        for side, rev in revs.items():
            run_side(rev, work / side)
        lines = compare(work / "BASE" / "runs", work / "HEAD" / "runs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        git("worktree", "prune")
    print("\n".join(lines) if lines else
          f"same bytes: {len(commands())} runs of {revs['BASE'][:12]} and {revs['HEAD'][:12]}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
