"""List the lines of src/kariforge that no tier-1 test runs.

    python tools/unreached.py [pytest arguments]

Runs pytest in this process under a `sys.settrace` line tracer that traces
only frames of files in src/kariforge, then prints, per module, the
executable lines (the line numbers of its code objects' `co_lines`) that
no test reached.  Code that the tests run in a subprocess is not traced
and shows as unreached.  Exits with pytest's exit code when the tests fail,
else with 1 when it lists a line and 0 when it lists none.  Standard library
and pytest only; a traced run takes about twice as long as an untraced one.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kariforge")


def executable_lines(path: str) -> set[int]:
    """The line numbers that the code objects compiled from path carry."""
    with open(path, "rb") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    todo = [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line is not None)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as runs: 1, 2, 3, 7 -> "1-3, 7"."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    import pytest

    reached: dict[str, set[int]] = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    class Retrace:
        # CPython drops a trace function that raises, as the tracer does when
        # a test overflows the stack inside it, so each test starts traced
        def pytest_runtest_setup(self, item):
            sys.settrace(call)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # the tests that run `python -m kariforge` import it from src too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests")] + argv, plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = sorted(executable_lines(path) - reached.get(path, set()))
        total += len(missed)
        if missed:
            print(f"{name[:-3]}: {len(missed)} unreached: {spans(missed)}")
    print(f"{total} executable lines of src/kariforge unreached")
    return int(code) or int(total > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
