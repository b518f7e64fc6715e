#!/usr/bin/env python3
"""Executable lines of ``src/taufact`` that a pytest run never reaches.

    python3 tests/trace_lines.py [PYTEST_ARGS ...]

Runs ``pytest.main(PYTEST_ARGS)`` in this process under a ``sys.settrace``
hook (``threading.settrace`` too) and prints, per module of
``src/taufact``, the executable lines that never ran: the lines the
compiler maps an instruction to (``co_lines`` of the module's code objects,
nested ones included).  A function's ``def`` line counts as run when the
function is called.

It sees only this process.  Code that runs in a subprocess (the tests that
start the ``taufact`` CLI) or in a pool worker (``verify --jobs 2``) counts
as never run.  Tracing makes the run several times slower: Tier-1 takes
minutes, so pass a test file or a ``-k`` expression to trace a part.

Exits with pytest's exit code.  Standard library and pytest only; pytest
does not collect it (no ``test_`` prefix), and Tier-1 does not run it.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "taufact"


def executable_lines(path: Path) -> set:
    """The lines of ``path`` that some instruction maps to."""
    lines = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at line 0
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """``lines`` as comma-separated runs, such as ``3-5, 9``."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv=None) -> int:
    import pytest

    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}
    by_file: dict = {}  # a code object's file name -> (its lines run, its line tracer), or None

    def line_tracer(lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        got = by_file.get(code.co_filename, False)
        if got is False:
            lines = ran.get(str(Path(code.co_filename).resolve()))
            got = by_file[code.co_filename] = None if lines is None else (lines, line_tracer(lines))
        if got is None:
            return None
        got[0].add(code.co_firstlineno)
        return got[1]

    sys.path.insert(0, str(PACKAGE.parent))  # trace this checkout's taufact, not an installed one
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(list(sys.argv[1:] if argv is None else argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, path in files.items():
        lines = executable_lines(path)
        never = lines - ran[name]
        total += len(lines)
        missed += len(never)
        if never:
            print(f"{path.name}: {len(never)} of {len(lines)} never ran: {ranges(never)}")
    print(f"src/taufact: {missed} of {total} executable lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
