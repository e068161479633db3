#!/usr/bin/env python3
"""Time fresh ``python -m speigen`` processes of every subcommand on two source trees.

    python tools/cold_start.py OLD_TREE [NEW_TREE]   # NEW_TREE defaults to this checkout

Each of the ``RUNS`` runs starts one process per subcommand and tree, with
``<tree>/src`` first on ``PYTHONPATH``, one process at a time; the tree that
goes first alternates from run to run, so drift in the machine's speed falls
on both alike.  A
process is timed from its start to its exit, and its peak resident set comes
from ``os.wait4``.  For every subcommand and tree the report gives the median
and quartiles of wall time and of max RSS, and whether the command loaded
numpy, read from one extra untimed ``-X importtime`` process.  A command whose
exit code is not 0 stops the run.  Nothing here needs a package beyond the
standard library.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUNS = 20

INST12 = ["--N", "2", "--R", "3", "--q", "2", "--p", "1"]
COMMANDS = {
    "decide": ["decide", *INST12, "--t", "1000003", "--json"],
    "search": ["search", *INST12, "--t-from", "-5", "--t-to", "20", "--json"],
    "signed": ["signed", *INST12, "--t", "11", "--omega=1,-1", "--json"],
    "type2": ["type2", *INST12, "--t", "11/7", "--r-max", "3", "--json"],
    "attractor": ["attractor", *INST12, "--t", "11", "--omega=1,1,-1", "--json"],
    "zeroset": ["zeroset", *INST12, "--t", "36", "--json"],
    "validate": ["validate", *INST12, "--t", "11", "--json"],
    "reproduce-paper": ["reproduce-paper", "--json"],
}


def environment(tree: Path) -> dict[str, str]:
    src = str((tree / "src").resolve())
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def timed(tree: Path, argv: list[str]) -> tuple[float, float]:
    """(wall seconds, max RSS in MB) of one ``python -m speigen`` process."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "speigen", *argv],
        cwd=tree,
        env=environment(tree),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    if proc.returncode != 0:
        raise SystemExit(f"speigen {' '.join(argv)} on {tree} exited {proc.returncode}: {err.strip()[-300:]}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def loads_numpy(tree: Path, argv: list[str]) -> bool:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "speigen", *argv],
        cwd=tree,
        env=environment(tree),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )
    return any(line.rsplit("|", 1)[-1].strip() == "numpy" for line in proc.stderr.splitlines())


def summary(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:7.1f} [{q1:.1f}, {q3:.1f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree to compare against")
    parser.add_argument("new", nargs="?", type=Path, default=ROOT, help="source tree under test (default: this one)")
    args = parser.parse_args()
    trees = {"old": args.old, "new": args.new}
    for tree in trees.values():
        if not (tree / "src" / "speigen" / "__init__.py").is_file():
            parser.error(f"no speigen package under {tree / 'src'}")

    walls = {(name, label): [] for name in COMMANDS for label in trees}
    rss = {key: [] for key in walls}
    for run in range(RUNS):
        order = list(trees) if run % 2 == 0 else list(reversed(trees))
        for name, argv in COMMANDS.items():
            for label in order:
                wall, peak = timed(trees[label], argv)
                walls[name, label].append(1e3 * wall)
                rss[name, label].append(peak)

    print(f"python {sys.version.split()[0]}, {RUNS} alternating runs; old {args.old}, new {args.new}")
    print(f"{'command':<16} {'tree':<4} {'wall ms: median [q1, q3]':<28} {'max RSS MB: median [q1, q3]':<30} numpy")
    for name, argv in COMMANDS.items():
        for label in trees:
            numpy = "loaded" if loads_numpy(trees[label], argv) else "not loaded"
            print(f"{name:<16} {label:<4} {summary(walls[name, label]):<28} {summary(rss[name, label]):<30} {numpy}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
