"""An opt-in line tracer over ``src/cib``.

With ``CIB_TRACE_LINES=1`` in the environment, every line that runs in a
function of the package is recorded, in this process and its threads, and
the session ends by listing the function-body lines that never ran, per
file.  Pool workers and subprocesses are not traced, so what only they run
is listed too.  A line that never ran fails the session: it exits nonzero
even when every test passed.  Without the variable nothing is installed
and the run is as fast as it was.

    CIB_TRACE_LINES=1 PYTHONPATH=src python -m pytest -q
"""

import inspect
import os
import sys
import threading
from pathlib import Path

import pytest

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

    def unrun(self) -> tuple[dict[str, list[int]], int]:
        """The function-body lines of each file that never ran, and the count of function-body lines."""
        lines = {name: function_lines(Path(name)) for name in self.ran}
        return {name: sorted(lines[name] - ran) for name, ran in self.ran.items()}, sum(map(len, lines.values()))

    def report(self, write) -> None:
        unrun, total = self.unrun()
        for name, missed in unrun.items():
            if missed:
                write(f"{Path(name).name}: {len(missed)} unrun: {', '.join(map(str, missed))}")
        write(f"src/cib: {sum(map(len, unrun.values()))} of {total} function-body lines never ran in this process")


TRACER = LineTracer() if os.environ.get("CIB_TRACE_LINES") else None
if TRACER is not None:
    TRACER.start()


def pytest_sessionfinish(session):
    if TRACER is not None and session.exitstatus == pytest.ExitCode.OK and any(TRACER.unrun()[0].values()):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if TRACER is not None:
        terminalreporter.section("unrun lines of src/cib")
        TRACER.report(terminalreporter.write_line)
