"""Counters and histograms for campaigns.

Every :class:`~repro.measurement.orchestrator.Orchestrator` owns a
:class:`MetricsRegistry`; the BGP engine and the experiment drivers
record into it.  The registry answers the operational questions a
campaign raises — how many BGP experiments ran, how many convergence
events they cost — without perturbing the simulation itself (metrics
never feed back into any seeded RNG stream).  Wall time per phase is
the span tree's to record (:mod:`repro.obs.trace`); the phase table is
:func:`repro.obs.inspect.phase_breakdown` over its records.

All access is thread-safe: a campaign heartbeat thread
(:mod:`repro.obs.heartbeat`) reads the registry while the campaign
records into it.
"""

import threading
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


class MetricsRegistry:
    """Get-or-create registry of counters and histograms."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name)
            return self._histograms[name]

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> Dict:
        """A plain-dict view of everything recorded so far."""
        with self._lock:
            counters = list(self._counters.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {name: c.value for name, c in counters},
            "histograms": {
                name: h.summary() for name, h in histograms if h.count
            },
        }
