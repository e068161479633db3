#!/usr/bin/env python3
"""List the lines of ``src/speigen`` that the test suite never runs.

    python tools/uncovered.py

Runs pytest on ``tests/`` in this process under a ``sys.settrace`` hook that
traces only frames whose code lives in ``src/speigen``.  A module's
executable lines are the line numbers of its compiled code objects
(``co_lines``, nested code objects included).  Every executable line that
never ran is printed, per file, with its text, then a count.  Code run in a
subprocess is out of the hook's reach.  The run takes about 70 s on 2 vCPUs,
about twice the plain suite.

Only the standard library and pytest are needed.  The run changes no file in
the checkout: bytecode is not written, pytest's cache is off and hypothesis
keeps its example database in a temporary directory.  The exit code is
pytest's.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "speigen"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every instruction in the module's code objects."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None and 0 mark no source line
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def line_recorder(lines: set[int]):
    """A local trace function that adds each line its frame runs to ``lines``."""

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def main() -> int:
    sys.dont_write_bytecode = True
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    ran: dict[str, set[int]] = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    local_tracers = {filename: line_recorder(lines) for filename, lines in ran.items()}

    def tracer(frame, event, arg):
        return local_tracers.get(frame.f_code.co_filename)

    with tempfile.TemporaryDirectory() as scratch:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = scratch
        sys.settrace(tracer)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        finally:
            sys.settrace(None)

    total = missed = 0
    for filename, lines in ran.items():
        path = Path(filename)
        expected = executable_lines(path)
        never = sorted(expected - lines)
        total += len(expected)
        missed += len(never)
        if never:
            text = path.read_text().splitlines()
            print(f"\n{path.relative_to(ROOT)}")
            for line in never:
                print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"\n{missed} of {total} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
