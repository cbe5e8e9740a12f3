"""Report-only line coverage of `src/sparsesde` by the tier-1 suite.

Runs pytest in this process (default arguments: the `tests` directory)
under a `sys.settrace` tracer that records the lines each package module
runs, then prints, per module, its executed/executable line counts and
the line ranges that never ran.  A range joins missed lines with no run
line between them, so comments and blank lines inside it are spanned.  It
exits with pytest's exit code, so a report over a failed test run fails.

Executable lines are those the compiled module maps bytecode to.  The
lane children the fits fork are not traced; they run lane 0's code.
Tracing slows the suite several times over.  It gates nothing and
pytest does not collect it:

    python3 bench/line_coverage.py [pytest args]
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsesde"
sys.path.insert(0, str(PACKAGE.parent))

import pytest  # noqa: E402


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some code object compiled from `path` maps to."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, bytearray]]:
    """pytest's exit code and, per package file, a byte per line: 1 where it ran.

    The byte arrays exist before pytest starts, so the tracer allocates
    nothing while a test runs, and a test that measures its own allocations
    with `tracemalloc` sees none of the tracer's.
    """
    hits = {
        str(path): bytearray(max(executable_lines(path), default=0) + 1)
        for path in PACKAGE.glob("*.py")
    }

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename][frame.f_lineno] = 1
        return local

    def tracer(frame, event, arg):
        ran = hits.get(frame.f_code.co_filename)
        if ran is None:
            return None
        ran[frame.f_lineno] = 1
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def missed_ranges(executable: set[int], run: set[int]) -> list[str]:
    """Ranges of missed executable lines, split wherever a run line lies between."""
    out, start, prev = [], None, None
    for line in sorted(executable):
        if line in run:
            if start is not None:
                out.append(f"{start}" if start == prev else f"{start}-{prev}")
            start = None
        else:
            start = line if start is None else start
            prev = line
    if start is not None:
        out.append(f"{start}" if start == prev else f"{start}-{prev}")
    return out


def main(argv: list[str]) -> int:
    code, hits = run_traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    print(f"\npytest exit code {code}; lines never run, per module:")
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        run = {line for line in executable if hits[str(path)][line]}
        ranges = missed_ranges(executable, run)
        print(f"{path.name}: {len(run)}/{len(executable)} run; missed {', '.join(ranges) or '-'}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
