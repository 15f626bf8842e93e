"""Span recording for the traced run, installed from outside the program.

The traced run replaces public functions and methods of the program's
layers with thin wrappers, exactly where the calling module looks them
up (a module attribute, a class attribute or an attribute of one
object). Each call records a span: name, start, end, parent span and the
unit of work it belongs to (one evaluation, proposal, gradient or
request). :meth:`SpanRecorder.restore` puts every original back, so the
untraced run measures the unmodified program.

Spans nest per thread through a thread-local stack. A span opened on a
thread whose stack is empty adopts :attr:`SpanRecorder.cross_parent`
as its parent; the pool drain wrapper sets it so the jobs that worker
threads run while a drain is open are children of that drain.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "Totals",
    "covered",
    "self_times",
    "summarize",
    "chrome_trace",
]


@dataclass(frozen=True)
class Span:
    """One finished span; times are ``time.perf_counter`` seconds."""

    span_id: int
    parent: int
    name: str
    start: float
    end: float
    thread: int
    unit: Optional[str]

    @property
    def duration(self) -> float:
        """Wall seconds between entry and exit."""
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrappers it installs; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.spans: List[Span] = []
        #: Parent adopted by spans opened on a thread with an empty stack.
        self.cross_parent = 0

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_unit(self, unit: Optional[str]) -> None:
        """Name the unit of work of root spans later opened on this thread."""
        self._local.unit = unit

    def call(
        self,
        name: str,
        fn,
        args=(),
        kwargs=None,
        unit: Optional[str] = None,
        adopt: bool = False,
    ):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        With ``adopt``, spans that other threads open while this one is
        running become its children (see :attr:`cross_parent`).
        """
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1]
        else:
            parent = self.cross_parent
            inherited = getattr(self._local, "unit", None)
        span_id = next(self._ids)
        unit = unit if unit is not None else inherited
        stack.append((span_id, unit))
        previous = self.cross_parent
        if adopt:
            self.cross_parent = span_id
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            if adopt:
                self.cross_parent = previous
            stack.pop()
            record = Span(
                span_id, parent, name, start, end, threading.get_ident(), unit
            )
            with self._lock:
                self.spans.append(record)

    # -- installation --------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, adopt: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module, a class or one object; for a class the
        wrapper is a plain function, so it binds like the original.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        target = vars(owner)[attr] if had_own else original
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder.call(name, target, args, kwargs, adopt=adopt)

        self._patches.append((owner, attr, target, had_own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's self time: its duration minus what its children cover.

    Children on other threads (pool jobs under a drain) may overlap one
    another, so the covered part is the union of the child intervals.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


@dataclass
class Totals:
    """Calls, inclusive seconds and self seconds of one span name."""

    calls: int = 0
    total: float = 0.0
    self: float = 0.0


def summarize(spans: List[Span]) -> Dict[str, Totals]:
    """Per span name: number of calls, inclusive time and self time."""
    own = self_times(spans)
    out: Dict[str, Totals] = {}
    for span in spans:
        row = out.setdefault(span.name, Totals())
        row.calls += 1
        row.total += span.duration
        row.self += own[span.span_id]
    return out


def chrome_trace(spans: List[Span], epoch: float) -> Dict[str, Any]:
    """The spans as a Chrome ``trace_event`` document (``repro.obs`` format)."""
    tids: Dict[int, int] = {}
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "perfbench"}}
    ]
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        tid = tids.setdefault(span.thread, len(tids) + 1)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start - epoch) * 1e6,
                "dur": max(span.duration * 1e6, 0.0),
                "pid": 1,
                "tid": tid,
                "args": {
                    "span_id": span.span_id,
                    "parent": span.parent,
                    "unit": span.unit,
                },
            }
        )
    for thread, tid in tids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": f"thread-{tid}"}}
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
