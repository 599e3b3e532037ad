"""An opt-in line tracer over ``src/cib``.

With ``CIB_TRACE_LINES=1`` in the environment, every line that runs in a
function of the package is recorded, in this process and its threads, and
the session ends by listing the function-body lines that never ran, per
file.  Pool workers and subprocesses are not traced, so what only they run
is listed too.  The list is a report, not a check.  Without the variable
nothing is installed and the run is as fast as it was.

    CIB_TRACE_LINES=1 PYTHONPATH=src python -m pytest -q
"""

import inspect
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cib"


def function_lines(path: Path) -> set[int]:
    """Lines holding bytecode of a function (not of a module or class body), less each function's first line."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line is not None and line != code.co_firstlineno)
    return lines


class LineTracer:
    def __init__(self):
        self.ran = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
        self.files = {}  # co_filename -> the set its lines go to, or None outside the package

    def _lines_of(self, filename):
        if filename not in self.files:
            self.files[filename] = self.ran.get(os.path.realpath(filename))
        return self.files[filename]

    def start(self):
        def enter(frame, event, arg):
            lines = self._lines_of(frame.f_code.co_filename)
            if lines is None:
                return None

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            return local

        sys.settrace(enter)
        threading.settrace(enter)

    def report(self, write) -> None:
        total = unrun_total = 0
        for name, ran in self.ran.items():
            unrun = sorted(function_lines(Path(name)) - ran)
            total += len(function_lines(Path(name)))
            unrun_total += len(unrun)
            if unrun:
                write(f"{Path(name).name}: {len(unrun)} unrun: {', '.join(map(str, unrun))}")
        write(f"src/cib: {unrun_total} of {total} function-body lines never ran in this process")


TRACER = LineTracer() if os.environ.get("CIB_TRACE_LINES") else None
if TRACER is not None:
    TRACER.start()


def pytest_terminal_summary(terminalreporter):
    if TRACER is not None:
        terminalreporter.section("unrun lines of src/cib")
        TRACER.report(terminalreporter.write_line)
