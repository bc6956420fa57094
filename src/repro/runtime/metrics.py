"""Counters, timers, histograms, and per-phase summaries for campaigns.

Every :class:`~repro.measurement.orchestrator.Orchestrator` owns a
:class:`MetricsRegistry`; the BGP engine and the experiment drivers
record into it.  The registry answers the operational questions a
campaign raises — how many BGP experiments ran, how many convergence
events they cost, how much wall time each phase took — without perturbing the simulation itself (metrics
never feed back into any seeded RNG stream).

All access is thread-safe: a campaign heartbeat thread
(:mod:`repro.obs.heartbeat`) reads the registry while the campaign
records into it.
"""

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.stats import percentile


class Counter:
    """A named, thread-safe, monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount


class Timer:
    """Accumulated wall time over any number of timed sections."""

    __slots__ = ("name", "_total_s", "_count", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._total_s = 0.0
        self._count = 0
        self._lock = threading.Lock()

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return self._total_s

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def summary(self) -> Dict:
        """Both accumulators read under one lock, so a snapshot taken
        mid-update never pairs a new total with a stale count."""
        with self._lock:
            return {"total_seconds": self._total_s, "count": self._count}

    @contextmanager
    def time(self):
        """Time one section: ``with timer.time(): ...``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            with self._lock:
                self._total_s += elapsed
                self._count += 1

    def add(self, seconds: float, count: int = 1) -> None:
        """Fold ``count`` externally timed sections totalling ``seconds``."""
        with self._lock:
            self._total_s += seconds
            self._count += count


class Histogram:
    """A named, thread-safe distribution of float observations.

    Keeps every raw value (campaign cardinalities are small — one
    observation per experiment or convergence run), so summaries can
    report exact percentiles.

    .. warning:: **Unbounded growth.** Memory is O(observations) by
       design, which is a leak for anything long-running: a server
       observing per-request latency here would grow without bound.
       Always-on paths (``repro.serve``) must use the bounded
       :class:`repro.obs.live.WindowReservoir` instead; this class is
       for *campaigns*, whose observation count is bounded by the
       measurement plan.
    """

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._values: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    def values(self) -> List[float]:
        with self._lock:
            return list(self._values)

    def summary(self) -> Dict:
        with self._lock:
            values = list(self._values)
        if not values:
            return {"count": 0}
        ordered = sorted(values)
        return {
            "count": len(ordered),
            "sum": sum(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / len(ordered),
            "p50": percentile(ordered, 50),
            "p90": percentile(ordered, 90),
            "p99": percentile(ordered, 99),
        }


@dataclass
class PhaseRecord:
    """One completed campaign phase: wall time plus counter deltas."""

    name: str
    wall_seconds: float
    counter_deltas: Dict[str, int] = field(default_factory=dict)


class MetricsRegistry:
    """Get-or-create registry of counters, timers, histograms, and
    phase records."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._phases: List[PhaseRecord] = []
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def timer(self, name: str) -> Timer:
        with self._lock:
            if name not in self._timers:
                self._timers[name] = Timer(name)
            return self._timers[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name)
            return self._histograms[name]

    @property
    def phases(self) -> List[PhaseRecord]:
        return list(self._phases)

    def _counter_values(self) -> Dict[str, int]:
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    @contextmanager
    def phase(self, name: str):
        """Record one campaign phase: its wall time and how much each
        counter advanced while it ran.  Phases may repeat (each entry
        appends a fresh record) and may nest."""
        before = self._counter_values()
        start = time.perf_counter()
        try:
            yield self
        finally:
            wall = time.perf_counter() - start
            after = self._counter_values()
            deltas = {
                key: after[key] - before.get(key, 0)
                for key in after
                if after[key] - before.get(key, 0)
            }
            with self._lock:
                self._phases.append(PhaseRecord(name, wall, deltas))

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> Dict:
        """A plain-dict view of everything recorded so far."""
        with self._lock:
            timers = list(self._timers.items())
            histograms = list(self._histograms.items())
            phases = list(self._phases)
        return {
            "counters": self._counter_values(),
            "timers": {name: t.summary() for name, t in timers},
            "histograms": {
                name: h.summary() for name, h in histograms if h.count
            },
            "phases": [
                {
                    "name": p.name,
                    "wall_seconds": p.wall_seconds,
                    "counter_deltas": dict(p.counter_deltas),
                }
                for p in phases
            ],
        }
