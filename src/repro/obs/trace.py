"""Hierarchical trace spans for measurement campaigns.

A campaign is a tree of timed operations — campaign → experiment →
announce/converge/probe → retry attempt — and when a 105-experiment
run stalls or degrades, the flat counters in
:mod:`repro.runtime.metrics` cannot say *which* experiment, *which*
phase, or *which* injected fault was responsible.  Spans can: every
operation records a :class:`Span` with structured attributes
(experiment ids, site pair, announcement order, cache hit/miss, fault
annotations), and the CLI exports the finished tree as JSONL via
``--trace`` for ``inspect-trace`` to summarize.

Determinism contract (mirrors the metrics layer):

- Span ids are *derived from the tree position*, never from wall
  clocks, thread identity, or allocation order: an experiment span's
  id is keyed by its reserved experiment id (``…/exp:17``), and spans
  created serially under one parent get a per-``(parent, name)``
  sequence number (``…/deploy#0``).  Sibling experiment spans may
  start concurrently, but their keys come from the serially reserved
  ids, so the same campaign produces the same span tree under the
  serial, thread, and process executors — only the timing fields
  differ.
- Process-pool workers record into their own tracer and ship each
  task's new span records back to the main process
  (:meth:`Tracer.export_finished_since` → :meth:`Tracer.merge_spans`),
  exactly like metrics deltas.
- Tracing never feeds back into any seeded RNG stream: spans observe
  the simulation, they do not perturb it.
"""

import json
import re
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: Wall-clock fields excluded when comparing traces across executors.
TIMING_FIELDS = ("start_unix", "duration_s")
EVENT_TIMING_FIELDS = ("time_unix",)

#: Sentinel distinguishing "use the calling thread's current span" from
#: an explicit "no parent" (``parent=None`` forces a root span, which
#: is what executors need so worker threads and the serial path agree).
CURRENT = object()

_SEGMENT_NUMBERS = re.compile(r"(\d+)")


def _json_safe(value: Any):
    """Coerce an attribute value to a deterministic JSON-safe form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset, range)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_json_safe(v) for v in items]
    return repr(value)


def span_sort_key(span_id: str):
    """Order span ids path-first with numeric segments compared as
    numbers, so ``exp:9`` sorts before ``exp:10``."""
    return tuple(
        tuple(
            (1, int(part)) if part.isdigit() else (0, part)
            for part in _SEGMENT_NUMBERS.split(segment)
        )
        for segment in span_id.split("/")
    )


class Span:
    """One timed operation in the campaign tree.

    Mutate only through the setter methods while the span is open; the
    finished record (:meth:`to_dict`) is what exporters and the merge
    path see.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "attributes",
        "events",
        "status",
        "error",
        "start_unix",
        "duration_s",
    )

    def __init__(self, span_id: str, parent_id: Optional[str], name: str, attributes: Dict):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = {k: _json_safe(v) for k, v in attributes.items()}
        self.events: List[Dict] = []
        self.status = "ok"
        self.error: Optional[str] = None
        self.start_unix = time.time()
        self.duration_s = 0.0

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = _json_safe(value)

    def add_event(self, name: str, **attributes) -> None:
        self.events.append(
            {
                "name": name,
                "time_unix": time.time(),
                "attributes": {k: _json_safe(v) for k, v in attributes.items()},
            }
        )

    def set_error(self, message: str) -> None:
        self.status = "error"
        self.error = message

    def to_dict(self) -> Dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attributes": dict(self.attributes),
            "events": [dict(e) for e in self.events],
            "status": self.status,
            "error": self.error,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
        }


class _NoopSpan:
    """Stands in for a :class:`Span` when tracing is disabled."""

    __slots__ = ()
    span_id = None
    parent_id = None

    def set_attribute(self, key, value):
        pass

    def add_event(self, name, **attributes):
        pass

    def set_error(self, message):
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Records one process's span tree.

    Thread-safe: pooled campaign executors open sibling spans from
    worker threads.  The *current span* is tracked per thread, so a
    span opened inside a worker parents to that worker's own enclosing
    span, never to another thread's.

    ``max_records`` makes retention a ring of the last that many
    finished records (an always-on server opens a span per request).
    The default keeps everything: a campaign exports its whole tree, and
    :meth:`export_finished_since` marks assume nothing was dropped.
    """

    def __init__(self, enabled: bool = True, max_records: Optional[int] = None):
        self.enabled = enabled
        self.max_records = max_records
        #: Finished span records, keyed by span id, in completion order.
        self._records: "OrderedDict[str, Dict]" = OrderedDict()
        #: Per-(parent id, name) sequence counters for derived ids.
        self._sequences: Dict[tuple, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- current-span bookkeeping -------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add_event(self, name: str, **attributes) -> None:
        """Attach an event to the calling thread's current span
        (dropped when no span is open or tracing is disabled)."""
        span = self.current_span
        if span is not None:
            span.add_event(name, **attributes)

    # -- span creation -------------------------------------------------------

    def _derive_id(self, parent_id: Optional[str], name: str, key: Optional[str]) -> str:
        prefix = f"{parent_id}/" if parent_id else ""
        if key is not None:
            return f"{prefix}{key}"
        with self._lock:
            seq = self._sequences.get((parent_id, name), 0)
            self._sequences[(parent_id, name)] = seq + 1
        return f"{prefix}{name}#{seq}"

    def _keep(self, record: Dict) -> None:
        """Retain one finished record (lock held)."""
        self._records[record["span_id"]] = record
        if self.max_records is not None and len(self._records) > self.max_records:
            self._records.popitem(last=False)

    def _resolve_parent(self, parent) -> Optional[str]:
        if parent is CURRENT:
            current = self.current_span
            return current.span_id if current is not None else None
        if isinstance(parent, Span):
            return parent.span_id
        return parent  # a span id string, or None for an explicit root

    @contextmanager
    def span(self, name: str, key: Optional[str] = None, parent=CURRENT, **attributes):
        """Open one span: ``with tracer.span("deploy", ...) as span:``.

        ``key`` overrides the auto-assigned ``name#seq`` id segment;
        callers creating spans *concurrently* under one parent must
        supply a deterministic key (the reserved experiment id).
        ``parent`` accepts a :class:`Span`, a span id string, ``None``
        (force a root span), or the default — the calling thread's
        current span.  An exception marks the span as an error and
        propagates.
        """
        if not self.enabled:
            yield _NOOP_SPAN
            return
        parent_id = self._resolve_parent(parent)
        span = Span(self._derive_id(parent_id, name, key), parent_id, name, attributes)
        stack = self._stack()
        stack.append(span)
        start = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.set_error(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            span.duration_s = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self._keep(span.to_dict())

    def record(
        self,
        name: str,
        attributes: Optional[Dict] = None,
        start_unix: Optional[float] = None,
        duration_s: float = 0.0,
        parent=CURRENT,
    ) -> None:
        """Record an already-finished span without a ``with`` block.

        Used by hot paths (the BGP engine's converge step) that would
        otherwise have to restructure around a context manager.
        """
        if not self.enabled:
            return
        parent_id = self._resolve_parent(parent)
        span = Span(self._derive_id(parent_id, name, None), parent_id, name, attributes or {})
        if start_unix is not None:
            span.start_unix = start_unix
        span.duration_s = duration_s
        with self._lock:
            self._keep(span.to_dict())

    # -- reading / merging ---------------------------------------------------

    @property
    def finished_count(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self) -> List[Dict]:
        """Every finished span record, sorted by span id (the
        deterministic export order)."""
        with self._lock:
            values = [dict(r) for r in self._records.values()]
        return sorted(values, key=lambda r: span_sort_key(r["span_id"]))

    def records_under(self, span_id: str) -> Iterator[Dict]:
        """Finished records strictly below ``span_id`` in the tree."""
        prefix = f"{span_id}/"
        with self._lock:
            found = [r for sid, r in self._records.items() if sid.startswith(prefix)]
        return iter(found)

    def export_finished_since(self, mark: int) -> List[Dict]:
        """Records finished after ``mark`` (a prior
        :attr:`finished_count`) — the per-task span delta a process
        worker ships back."""
        with self._lock:
            return [dict(r) for r in list(self._records.values())[mark:]]

    def merge_spans(self, records: List[Dict]) -> None:
        """Fold another tracer's finished records into this one
        (the span counterpart of ``MetricsRegistry.merge_deltas``)."""
        with self._lock:
            for record in records:
                self._keep(record)


def strip_timing(record: Dict) -> Dict:
    """A copy of a span record without wall-clock fields — the form
    compared when asserting executor-independent traces."""
    stripped = {k: v for k, v in record.items() if k not in TIMING_FIELDS}
    stripped["events"] = [
        {k: v for k, v in event.items() if k not in EVENT_TIMING_FIELDS}
        for event in record["events"]
    ]
    return stripped


def render_record(record: Dict) -> str:
    """One deterministic JSONL line for a span record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
