"""The benchmark's own span recorder.

Spans are recorded *around* calls into the program's public functions
(see :mod:`wrap_points`), never inside them: the program is not
edited.  A span is ``(name, start, end, parent, op)``; they are kept in
memory and written as JSONL when the run ends.

Wrapped functions are synchronous and run on the main thread, so the
"current span" is one attribute and nesting is a stack.  Client-side
spans of the serve workload overlap (a reload runs beside a session's
requests), so those are added with an explicit parent through
:meth:`SpanRecorder.add`, and self time is a span's duration minus the
*union* of the intervals its children cover.
"""

import bisect
import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``op`` of spans recorded during set-up.
SETUP_OP = -1


class SpanRecorder:
    def __init__(self):
        #: ``[name, start, end, parent, op, count]`` per span.
        self.spans: List[list] = []
        self.current: Optional[int] = None
        self.op = SETUP_OP
        self.warnings: List[str] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.current, self.op, 0])
        self.current = index
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.current = span[3]

    def add(self, name: str, start: float, end: float, parent: Optional[int]) -> None:
        """Record a finished span with an explicit parent, leaving the
        current-span stack alone."""
        self.spans.append([name, start, end, parent, self.op, 0])

    def add_enclosed(self, name: str, intervals) -> None:
        """Record finished ``(start, end)`` intervals, each as a child of
        the innermost span that was open around it.

        The host probe's samples come in this way, after the pass: its
        signal handler can fire between any two bytecodes of ``open``
        or ``traced``, so it must not touch ``spans`` or ``current``.
        """
        spans = self.spans
        by_start = sorted(range(len(spans)), key=lambda index: spans[index][1])
        starts = [spans[index][1] for index in by_start]
        for start, end in intervals:
            # The last span opened before the interval is on the stack
            # of open spans or a closed descendant of its top.
            at = bisect.bisect_right(starts, start)
            parent = by_start[at - 1] if at else None
            while parent is not None and (spans[parent][2] or end) < end:
                parent = spans[parent][3]
            op = SETUP_OP if parent is None else spans[parent][4]
            spans.append([name, start, end, parent, op, 0])

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call.  ``count(result)`` is
        stored on the span: work done, as the layer itself reports it."""
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, self.current, self.op, 0]
            spans.append(span)
            self.current = index
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(result)
                return result
            finally:
                span[2] = clock()
                self.current = span[3]

        return traced

    # -- patching by dotted name ------------------------------------------

    def install(self, wrap_points) -> List[str]:
        """Wrap every resolvable entry of the wrap table; returns the
        span names whose target did not resolve (one warning each)."""
        unresolved = []
        for name, target, kind, count in wrap_points:
            try:
                owner, attr, fn = resolve(target)
            except (ImportError, AttributeError) as exc:
                self.warnings.append(
                    f"warning: wrap point {name} -> {target} does not resolve "
                    f"({exc}); its metrics are null and its time falls to "
                    "the parent's self_ms"
                )
                if name not in unresolved:
                    unresolved.append(name)
                continue
            if kind == "factory":
                # The target returns the function to time (a solver
                # looked up by strategy name).
                def factory(*args, _fn=fn, _name=name, _count=count, **kwargs):
                    return self.wrap(_name, _fn(*args, **kwargs), _count)

                replacement = functools.wraps(fn)(factory)
            else:
                replacement = self.wrap(name, fn, count)
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, fn))
        return unresolved

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op, count) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "count": count,
                }) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span costs here and now: a wrapped no-op timed
    against the bare one."""
    def noop():
        return None

    traced = SpanRecorder().wrap("calibration", noop, lambda result: 0)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, time.perf_counter() - start - bare) / calls


def resolve(dotted: str):
    """``(owner, attribute, value)`` for a dotted name: the longest
    importable module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"no importable module in {dotted!r}")


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> List[float]:
    """Per span: its duration minus the part of it that its child
    spans cover (children clipped to the parent, overlaps counted
    once)."""
    children: Dict[int, list] = {}
    for name, start, end, parent, op, count in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent, op, count) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        result.append((end - start) - covered(clipped))
    return result
