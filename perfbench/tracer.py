"""In-memory spans around the program's public functions, and self time.

A traced cycle replaces functions and methods of the ``cib`` package with
wrappers that record one span per call: id, name, start, end, parent id and
run id, plus optional attributes such as a count.  Spans stay in memory and
are written out when the run ends.

Ids are ``(pid, serial)`` pairs, so spans of forked worker processes stay
unique.  A forked worker inherits the span stack of its parent, so its first
spans name their parent span in the parent process.  Each worker writes its
spans to ``spans-<pid>.jsonl`` in the spill directory after every wrapped
task marked ``spill``; the parent merges those files when tracing stops.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, sid, name, start, end, parent=None, run="", attrs=None):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.run, self.attrs = parent, run, attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": list(self.sid),
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": list(self.parent) if self.parent is not None else None,
            "run": self.run,
            "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Span":
        parent = tuple(doc["parent"]) if doc["parent"] is not None else None
        return cls(tuple(doc["id"]), doc["name"], doc["start"], doc["end"], parent,
                   doc["run"], doc["attrs"])


class Tracer:
    """Records spans while active; patches and restores attributes of objects."""

    def __init__(self):
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.active = False
        self.run_id = ""
        self.spans: list[Span] = []
        self.stack: list[tuple[int, int]] = []
        self.spill_dir: Path | None = None
        self.workers_started = 0
        self._serial = 0
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # ---------------------------------------------------------------- recording

    def start(self, run_id: str, spill_dir: Path) -> None:
        self.run_id = run_id
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.spans, self.stack = [], []
        self.active = True

    def stop(self) -> list[Span]:
        """Deactivate and return this process's spans merged with the workers'."""
        self.active = False
        spans, self.spans = self.spans, []
        files = sorted(self.spill_dir.glob("spans-*.jsonl"))
        self.workers_started = len(files)
        for path in files:
            with open(path, encoding="utf-8") as f:
                spans.extend(Span.from_json(json.loads(line)) for line in f if line.strip())
        return spans

    def begin(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span((self.pid, self._serial), name, 0.0, 0.0, parent, self.run_id)
        self._serial += 1
        self.spans.append(span)
        self.stack.append(span.sid)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, attrs=None, spill: bool = False):
        """Wrapper of ``fn`` recording a span per call; install it while active.

        ``attrs(args, kwargs, result)`` may return a dict stored on the span.
        With ``spill`` a worker process writes out its spans after each call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            if spill and tracer.pid != tracer.root_pid:
                tracer._spill()
            return result

        return traced

    def _spill_path(self) -> Path:
        return self.spill_dir / f"spans-{self.pid}.jsonl"

    def _spill(self) -> None:
        with open(self._spill_path(), "a", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span.to_json()) + "\n")
        self.spans = []

    def _after_fork_in_child(self) -> None:
        if not self.active:
            return
        # the child holds a copy of the parent's spans; they are the parent's to report
        self.pid = os.getpid()
        self.spans = []
        self._spill_path().touch()

    # ---------------------------------------------------------------- patching

    def patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that its direct children cover.

    Children may overlap one another (workers of a pool run side by side);
    the union of their intervals is subtracted once.  Grandchildren lie
    inside their own parent, so only direct children are needed.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: s.duration - covered(s.start, s.end, children.get(s.sid, ())) for s in spans}


def write_jsonl(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for span in spans:
            f.write(json.dumps(span.to_json()) + "\n")
