#!/usr/bin/env python3
"""Run a fixed corpus of CLI invocations on two source trees and report every difference.

    python tools/cli_corpus.py OLD_TREE [NEW_TREE]   # NEW_TREE defaults to this checkout
    python tools/cli_corpus.py --list                # print the corpus, one argv per line

The corpus is deterministic: every subcommand as a table and with
``--json``, config files (valid, with unread keys, unreadable, not JSON, not
an object), budget exhaustion, the Q probe's float range, invalid
instances, bad flag values, usage errors and help.  Each tree runs the whole
corpus in its own subprocess, which imports ``speigen`` from
``<tree>/src`` and nowhere else and calls ``speigen.cli.main(argv)`` once
per invocation with stdout and stderr captured.  The config files are written once, to a temporary directory both
runs share, so the paths in their messages agree.

Every invocation whose stdout, stderr or exit code differs is printed with
its first differing line, then a summary; the exit code is 1 when anything
differs.  A differing stderr also shows the last line of each side, the
``error:`` line, so a difference in the usage line above it does not hide
whether the error itself agrees.  An invocation whose exit code and stderr
agree and whose two stdouts parse as JSON of one structure (the same keys
in the same order, the same list lengths, the same non-numeric values)
differs only in its numbers.  Those are printed apart, with the largest
``|delta|`` per JSON path, list indices written ``[]``
(``probe.q_samples[].q: max 1.6e-11``).  Nothing here touches the network
or needs a package beyond the standard library.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INST12 = ["--N", "2", "--R", "3", "--q", "2", "--p", "1"]
INST48 = ["--N", "2", "--R", "3", "--q", "4", "--p", "3"]
INST54 = ["--N", "3", "--R", "2", "--q", "3", "--p", "1"]
INST120 = ["--N", "2", "--R", "15", "--q", "3", "--p", "1,2"]
INST45 = ["--N", "3", "--R", "5", "--q", "2", "--p", "1"]
INST6 = ["--N", "2", "--R", "3", "--q", "1", "--p", ""]
INSTANCES = (INST12, INST48, INST54, INST120, INST45, INST6)
COMMANDS = ("decide", "search", "signed", "type2", "attractor", "zeroset", "validate", "reproduce-paper")

CONFIGS = {
    "decide.json": {"N": 2, "R": 3, "q": 2, "p": [1], "t": "11"},
    "signed.json": {"N": 2, "R": 3, "q": 2, "p": [1], "t": "11", "omega": [1, -1]},
    "signed-text.json": {"N": 3, "R": 2, "q": 3, "p": "1", "t": "53", "omega": "1,-1,1"},
    "bad-omega.json": {"N": 2, "R": 3, "q": 2, "p": [1], "t": "11", "omega": [1, 2]},
    "budget.json": {"N": 2, "R": 3, "q": 2, "p": [1], "t": "1000001", "node_budget": 50},
    "tol.json": {"N": 2, "R": 3, "q": 2, "p": [1], "t": "5", "tol": 1e-6},
    "unread.json": {"N": 2, "R": 3, "q": 2, "p": [1], "t": "11", "node-budget": 5},
    "type2.json": {"N": 2, "R": 3, "q": 2, "p": [1], "t": "11/7", "r_max": 3},
    "list.json": [1, 2, 3],
    "example.json": {"example": 5.2},
}
BROKEN_CONFIG = "broken.json"


def write_configs(directory: Path) -> None:
    for name, content in CONFIGS.items():
        (directory / name).write_text(json.dumps(content), encoding="utf-8")
    (directory / BROKEN_CONFIG).write_text("{not json", encoding="utf-8")


def words(r_max: int) -> list[str]:
    """Every sign word of period at most r_max, as the ``--omega=`` argument."""
    out = []
    for r in range(1, r_max + 1):
        for bits in range(2**r):
            out.append(",".join("-1" if (bits >> (r - 1 - i)) & 1 else "1" for i in range(r)))
    return out


def corpus(config_dir: Path) -> list[list[str]]:
    """The invocations, in a fixed order."""
    calls: list[list[str]] = []

    def both(*argv: str) -> None:
        calls.append([*argv])
        calls.append([*argv, "--json"])

    for inst in INSTANCES:
        for t in ("1", "3", "5", "7", "11", "13", "33", "-11", "4", "3/2", "-3/5", "1000001", "10000000001"):
            both("decide", *inst, "--t=" + t)
        both("search", *inst, "--t-from", "-6", "--t-to", "25")
        for t in ("11", "7", "53", "119", "-13", "1000001"):
            for word in words(4):
                calls.append(["signed", *inst, "--t=" + t, "--omega=" + word, "--json"])
        for t in ("11", "-7", "1000000001"):
            for word in ("1", "1,-1", "-1,1,1", "1,-1,1,-1"):
                calls.append(["signed", *inst, "--t=" + t, "--omega=" + word])
        for t in ("11", "7/5", "35/11", "-13/7", "2/3", "53/9"):
            both("type2", *inst, "--t=" + t)
            both("type2", *inst, "--t=" + t, "--r-max", "4")
        for t in ("0", "11", "-7", "1001", "4", "-6", "10", "15"):
            both("attractor", *inst, "--t=" + t)
            for word in ("1,-1", "1,1,-1", "-1,1,-1,1"):
                both("attractor", *inst, "--t=" + t, "--omega=" + word)
        for xi in ("0", "3", "-3", "36", "1/2", "45/4", "1000000"):
            both("zeroset", *inst, "--t=" + xi)
        for t in ("1", "11", "-5", "-11", "-33", "2", "6", "12"):
            both("validate", *inst, "--t=" + t)
        both("validate", *inst, "--t", "7", "--omega=1,-1")
        both("validate", *inst, "--t=-11", "--omega=1,1,-1")
        # Sign words at t sharing a factor with N (6 everywhere, -4 at N = 2), where the pairs are enumerated.
        both("validate", *inst, "--t", "6", "--omega=1,-1")
        both("validate", *inst, "--t=-4", "--omega=1,1,-1")
    both("reproduce-paper")
    for example in ("5.2", "5.3", "5.4", "6.1"):
        both("reproduce-paper", "--example", example)

    # Reach and budgets: signed inputs at large t and long periods, and small node budgets.
    for inst, word, t in (
        (INST12, "1,-1", "1000000001"),
        (INST54, "1,-1,1", "1000001"),
        (INST120, "1,1,-1,1", "1000000001"),
        (INST54, "1,-1,1,1,1,1,1", "5"),
        (INST12, "1,-1,1,-1,1,-1,1,-1,1,-1", "11"),
    ):
        both("signed", *inst, "--t", t, "--omega=" + word)
        both("attractor", *inst, "--t", t, "--omega=" + word)
    # The hard class on M = 12: t = (12^m - 1) / 11 keeps thousands of points on cycles, and
    # 4 (12^5 - 1) / 11 shares the factor 4 with N, so most of its 264 points have no in-edge.
    for m in (8, 10):
        for sign in ("", "-"):
            both("decide", *INST12, f"--t={sign}{(12**m - 1) // 11}")
    both("attractor", *INST12, "--t", str(4 * (12**5 - 1) // 11))
    for budget in ("1", "3", "4", "10", "100", "1000", "10000"):
        both("decide", *INST12, "--t", "10000000001", "--node-budget", budget)
        both("decide", *INST54, "--t", "1000003", "--node-budget", budget)
        both("search", *INST12, "--t-from", "-5", "--t-to", "5", "--node-budget", budget)
        both("signed", *INST12, "--t", "1000000001", "--omega=1,-1", "--node-budget", budget)
        both("signed", *INST54, "--t", "53", "--omega=1,-1,1,-1", "--node-budget", budget)
        both("type2", *INST12, "--t", "11/7", "--r-max", "4", "--node-budget", budget)
        both("type2", *INST54, "--t", "53/5", "--r-max", "3", "--node-budget", budget)
        both("attractor", *INST12, "--t", "1000001", "--node-budget", budget)
        both("attractor", *INST120, "--t", "119", "--omega=1,-1,-1", "--node-budget", budget)
        both("validate", *INST12, "--t", "11", "--node-budget", budget)

    # The float range of the Q probe: M beyond 2**53, then level-3 elements
    # just inside and just beyond the largest float64.
    for t in ("1", "-5"):
        both("validate", "--N", "2", "--R", "3", "--q", "60", "--p", "1", "--t=" + t)
    for zeros in (300, 320):
        both("validate", *INST12, "--t", "1" + "0" * zeros + "1", "--omega=1,-1")
    # M = 2 * 1001**6 beyond float64 and 1001**2 level-2 elements: t = 1 takes its orthogonality from
    # the lemma, t = 7 (dividing 1001) needs the pairs of level 2, and on q = 2 level 3 is refused.
    for t in ("1", "7"):
        both("validate", "--N", "1001", "--R", "2", "--q", "6", "--p=", "--t", t)
    both("validate", "--N", "1001", "--R", "2", "--q", "2", "--p=", "--t", "1")
    # A sign-word search that ends at its bound without a word.
    both("type2", *INST12, "--t", "11", "--r-max", "1")

    # The transform kernel one level to a group: 19,683 level-3 elements per grid point on M = 54.
    both("validate", "--N", "3", "--R", "2", "--q", "3", "--p", "1,2", "--t", "5")
    # Budget refusals at t = 10^3000, where the split into word sums and residues takes thousands of levels.
    for argv in (["decide"], ["signed", "--omega=1,-1"], ["validate"]):
        both(argv[0], *INST54, "--t", "1e3000", *argv[1:])

    # Config files, alone and under flags.
    cfg = {name: str(config_dir / name) for name in (*CONFIGS, BROKEN_CONFIG)}
    both("decide", "--config", cfg["decide.json"])
    both("decide", "--config", cfg["decide.json"], "--t", "13")
    both("signed", "--config", cfg["signed.json"])
    both("signed", "--config", cfg["signed-text.json"])
    both("signed", "--config", cfg["bad-omega.json"])
    both("attractor", "--config", cfg["signed.json"])
    both("validate", "--config", cfg["signed.json"])
    both("decide", "--config", cfg["budget.json"])
    both("validate", "--config", cfg["tol.json"])
    both("decide", "--config", cfg["unread.json"])
    both("type2", "--config", cfg["type2.json"])
    both("decide", "--config", cfg["list.json"])
    both("decide", "--config", cfg[BROKEN_CONFIG])
    both("decide", "--config", str(config_dir / "missing.json"))
    both("reproduce-paper", "--config", cfg["decide.json"])
    both("reproduce-paper", "--config", cfg["example.json"])

    # Invalid input, bad flag values and usage errors.
    for argv in (
        ["decide", "--N", "1", "--R", "3", "--q", "2", "--t", "3"],
        ["decide", "--N", "2", "--R", "4", "--q", "2", "--t", "3"],
        ["decide", "--N", "2", "--R", "3", "--q", "2", "--p", "5", "--t", "3"],
        ["decide", "--N", "2", "--R", "3", "--q", "2", "--p", "x", "--t", "3"],
        ["decide", *INST12],
        ["decide", *INST12, "--t", "abc"],
        ["decide", *INST12, "--t", "0"],
        ["decide", *INST12, "--t", "1/0"],
        ["search", *INST12, "--t-from", "5", "--t-to", "1"],
        ["search", *INST12, "--t-from", "5"],
        ["signed", *INST12, "--t", "11"],
        ["signed", *INST12, "--t", "3/2", "--omega=1,-1"],
        ["signed", *INST12, "--t", "0", "--omega=1,-1"],
        ["signed", *INST12, "--t", "6", "--omega=1,-1"],
        ["signed", *INST12, "--t", "11", "--omega=1,2"],
        ["signed", *INST12, "--t", "11", "--omega", "-1,1"],
        ["type2", *INST12, "--t", "0"],
        ["type2", *INST12, "--t", "3/2", "--r-max", "0"],
        ["attractor", *INST12, "--t", "3/2"],
        ["validate", *INST12, "--t", "5", "--tol", "0"],
        ["validate", *INST12, "--t", "5", "--tol", "2"],
        ["validate", *INST12, "--t", "5", "--tol", "nan"],
        ["zeroset", *INST12],
        ["decide", *INST12, "--t", "3", "--node-budget", "0"],
        ["decide", *INST12, "--t", "3", "--r-max", "2"],
        ["decide", *INST12, "--t", "-3/5"],
        ["decide", "--N", "x", "--R", "3", "--q", "2", "--t", "3"],
        ["decide", *INST12, "--t", "3", "--node-budget", "1e3"],
        ["validate", *INST12, "--t", "5", "--tol", "abc"],
        ["search", *INST12, "--t-from", "a", "--t-to", "3"],
        ["type2", *INST12, "--t", "3/2", "--r-max", "x"],
        ["frobnicate"],
        [],
        ["--help"],
        ["signed", "--help"],
        # The parser's edge cases: prefixes, explicit and repeated values, "--", stray
        # words, values that start with "-", and help after a flag.
        ["decide", *INST12, "--t", "11", "--node", "5"],
        ["decide", *INST12, "--t", "11", "--no=5"],
        ["search", *INST12, "--t-", "1"],
        ["decide", *INST12, "--t", "11", "--json=1"],
        ["decide", *INST12, "--t=3", "--t", "5"],
        ["decide", *INST12, "--t", "3", "--", "x"],
        ["validate", *INST12, "--t", "11", "--tol", "1e-3", "-h"],
        ["decide", *INST12, "--t", "11", "stray"],
        ["--json", "decide", *INST12, "--t", "11"],
        ["decide", *INST12, "--t", "-"],
        ["decide", *INST12, "--t", "- 3"],
        ["decide", *INST12, "--t", "-.5"],
        # A "--" value, read in place and, with "--t -3", by argparse.
        ["decide", *INST12, "--t=--"],
        ["reproduce-paper", "--config=--"],
        ["decide", *INST12[:6], "--p=--", "--t", "-3"],
        *([name, "--help"] for name in COMMANDS),
    ):
        calls.append(argv)
    return calls


def run_tree(tree: Path, config_dir: Path) -> list[dict]:
    """Every invocation of the corpus against the package under ``tree/src``."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    from speigen import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"speigen was imported from {cli.__file__}, not from {src}")
    results = []
    for argv in corpus(config_dir):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an internal error is an outcome to compare, not a stop
            rc = f"{type(exc).__name__}: {exc}"
        results.append({"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def first_difference(a: str, b: str) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i in range(max(len(lines_a), len(lines_b))):
        left = lines_a[i] if i < len(lines_a) else "<end>"
        right = lines_b[i] if i < len(lines_b) else "<end>"
        if left != right:
            return f"line {i + 1}: {left[:160]!r} -> {right[:160]!r}"
    return "trailing whitespace"


def last_line(text: str) -> str:
    lines = text.splitlines()
    return lines[-1] if lines else "<empty>"


def numeric_drift(a: str, b: str) -> dict[str, float] | None:
    """Largest ``|delta|`` per JSON path when a and b are JSON of one structure, else None."""
    try:
        left, right = json.loads(a), json.loads(b)
    except json.JSONDecodeError:
        return None
    drift: dict[str, float] = {}

    def number(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def same_shape(x, y, path: str) -> bool:
        if isinstance(x, dict) and isinstance(y, dict):
            return list(x) == list(y) and all(same_shape(x[k], y[k], f"{path}.{k}" if path else k) for k in x)
        if isinstance(x, list) and isinstance(y, list):
            return len(x) == len(y) and all(same_shape(u, v, path + "[]") for u, v in zip(x, y))
        if number(x) and number(y):
            drift[path] = max(drift.get(path, 0), abs(x - y))
            return True
        return type(x) is type(y) and x == y

    return drift if same_shape(left, right, "") else None


def compare(old: Path, new: Path) -> int:
    with tempfile.TemporaryDirectory(prefix="cli-corpus-") as tmp:
        config_dir = Path(tmp)
        write_configs(config_dir)
        runs = []
        for tree in (old, new):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--run", str(tree), "--config-dir", str(config_dir)],
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                print(f"corpus run on {tree} failed:\n{proc.stderr}", file=sys.stderr)
                return 2
            runs.append(json.loads(proc.stdout))
    textual, drifting = 0, []
    for before, after in zip(*runs):
        parts = [key for key in ("rc", "stdout", "stderr") if before[key] != after[key]]
        if not parts:
            continue
        drift = numeric_drift(before["stdout"], after["stdout"]) if parts == ["stdout"] else None
        if drift is not None:
            drifting.append((before["argv"], drift))
            continue
        textual += 1
        print("speigen " + " ".join(before["argv"]))
        for key in parts:
            if key == "rc":
                print(f"  exit code: {before['rc']!r} -> {after['rc']!r}")
            else:
                print(f"  {key} {first_difference(before[key], after[key])}")
            if key == "stderr":
                left, right = last_line(before[key]), last_line(after[key])
                verdict = "agrees" if left == right else "differs"
                print(f"  stderr last line {verdict}: {left[:160]!r} -> {right[:160]!r}")
    largest: dict[str, float] = {}
    if drifting:
        print("numeric drift only (one JSON structure, same exit code and stderr):")
    for argv, drift in drifting:
        print("speigen " + " ".join(argv))
        for path, delta in drift.items():
            if delta:
                print(f"  {path}: max {delta:.2g}")
            largest[path] = max(largest.get(path, 0), delta)
    print(f"{len(runs[0])} invocations, {textual + len(drifting)} differ: {textual} in text or exit code, {len(drifting)} in numbers only")
    for path, delta in largest.items():
        if delta:
            print(f"  {path}: max {delta:.2g}")
    return 1 if textual or drifting else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", type=Path, help="source tree to compare against")
    parser.add_argument("new", nargs="?", type=Path, default=ROOT, help="source tree under test (default: this one)")
    parser.add_argument("--list", action="store_true", help="print the corpus and exit")
    parser.add_argument("--run", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--config-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.list:
        for argv in corpus(Path("<config-dir>")):
            print(" ".join(argv))
        return 0
    if args.run is not None:
        print(json.dumps(run_tree(args.run, args.config_dir)))
        return 0
    if args.old is None:
        parser.error("give the source tree to compare against")
    return compare(args.old, args.new)


if __name__ == "__main__":
    raise SystemExit(main())
