"""Sliding-window instruments for live, always-on serving.

The batch metrics layer (:mod:`repro.runtime.metrics`) is built for
campaigns: its :class:`~repro.runtime.metrics.Histogram` keeps every
raw observation so summaries report *exact* percentiles — the right
trade for a few thousand
experiments, and a memory leak for a server answering millions of
predictions.  This module is the other half of the story: bounded,
O(1)-memory instruments that answer "how is the service doing *right
now*" over a rolling time window.

Three instruments:

* :class:`WindowReservoir` — a fixed-capacity ring buffer of
  ``(timestamp, value)`` observations.  Rolling p50/p95/p99 over the
  last ``window_s`` seconds, cheap enough for a request hot path
  (one lock, one slot write per observation; summaries sort at most
  ``capacity`` values).
* :class:`RateCounter` — per-second bucket wheel giving rolling
  event rates ("requests/s over the last minute") without keeping
  per-event state.
* :class:`LiveMetrics` — a get-or-create registry of both, the live
  sibling of :class:`~repro.runtime.metrics.MetricsRegistry`.

Every instrument takes an injectable monotonic ``clock`` (a zero-arg
callable returning seconds as a float), so the SLO engine and the
tests can drive window expiry with a fake clock instead of sleeping.
Live readings are wall-clock-derived by construction and therefore
live *outside* the campaign bit-identity invariant: nothing here may
feed back into a seeded RNG stream or a campaign artifact.
"""

import threading
import time
from typing import Callable, Dict, List, Optional

from repro.util.errors import ConfigurationError
from repro.util.stats import percentile

#: A monotonic clock: zero-arg callable returning seconds as a float.
Clock = Callable[[], float]

#: Default rolling window for live instruments (seconds).
DEFAULT_WINDOW_S = 60.0

#: Default ring-buffer capacity of a :class:`WindowReservoir`.
DEFAULT_CAPACITY = 1024

#: Quantiles a reservoir summary reports (label, percentile rank).
SUMMARY_QUANTILES = (("p50", 50), ("p95", 95), ("p99", 99))


class WindowReservoir:
    """A bounded ring-buffer latency reservoir with rolling percentiles.

    Keeps the newest ``capacity`` observations as ``(timestamp,
    value)`` pairs; :meth:`summary` reports percentiles over the
    observations recorded within the last ``window_s`` seconds.
    Memory is O(capacity) forever — the hot path overwrites the
    oldest slot in place, so a month-old server holds exactly as much
    telemetry as a minute-old one.

    The rolling percentiles are *windowed*, not exact-over-history:
    when more than ``capacity`` observations land inside one window,
    the oldest in-window observations fall out of the buffer and the
    summary describes the newest ``capacity`` of them (a uniform
    recency bias, never a sampling one).  Campaigns that need exact
    percentiles keep using the batch ``Histogram``.
    """

    __slots__ = ("name", "window_s", "capacity", "_clock", "_slots", "_head",
                 "_size", "_total", "_lock")

    def __init__(
        self,
        name: str,
        window_s: float = DEFAULT_WINDOW_S,
        capacity: int = DEFAULT_CAPACITY,
        clock: Optional[Clock] = None,
    ):
        if window_s <= 0:
            raise ConfigurationError("reservoir window_s must be positive")
        if capacity < 1:
            raise ConfigurationError("reservoir capacity must be >= 1")
        self.name = name
        self.window_s = float(window_s)
        self.capacity = int(capacity)
        self._clock: Clock = clock if clock is not None else time.monotonic
        self._slots: List[Optional[tuple]] = [None] * self.capacity
        self._head = 0
        self._size = 0
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation at the current clock reading (O(1))."""
        now = self._clock()
        with self._lock:
            self._slots[self._head] = (now, float(value))
            self._head = (self._head + 1) % self.capacity
            self._size = min(self._size + 1, self.capacity)
            self._total += 1

    @property
    def total_observed(self) -> int:
        """Observations ever recorded (not just the retained window)."""
        with self._lock:
            return self._total

    def values_in_window(self, now: Optional[float] = None) -> List[float]:
        """Retained observations newer than ``now - window_s``."""
        now = self._clock() if now is None else now
        cutoff = now - self.window_s
        with self._lock:
            slots = [s for s in self._slots[: self._size] if s is not None]
        return [value for (t, value) in slots if t >= cutoff]

    def summary(self, now: Optional[float] = None) -> Dict:
        """Rolling summary over the window: count, sum, min/max/mean,
        and the :data:`SUMMARY_QUANTILES` percentiles.  An empty
        window reports ``{"count": 0}``."""
        values = self.values_in_window(now)
        if not values:
            return {"count": 0}
        ordered = sorted(values)
        doc = {
            "count": len(ordered),
            "sum": sum(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "mean": sum(ordered) / len(ordered),
        }
        for label, q in SUMMARY_QUANTILES:
            doc[label] = percentile(ordered, q)
        return doc

    def quantile(self, q: float, now: Optional[float] = None) -> Optional[float]:
        """One rolling percentile (``q`` in [0, 100]); None when the
        window holds no observations."""
        values = self.values_in_window(now)
        if not values:
            return None
        return percentile(values, q)


class RateCounter:
    """Rolling event rate over a wheel of per-second buckets.

    ``increment`` lands events in the bucket for the current second;
    :meth:`rate_per_s` divides the in-window event count by the
    window length.  Memory is O(window seconds), independent of the
    event rate — a counter observing a million events a second holds
    the same sixty integers as an idle one.
    """

    __slots__ = ("name", "window_s", "_clock", "_counts", "_epochs",
                 "_buckets", "_total", "_lock")

    def __init__(
        self,
        name: str,
        window_s: float = DEFAULT_WINDOW_S,
        clock: Optional[Clock] = None,
    ):
        if window_s < 1:
            raise ConfigurationError("rate window_s must be >= 1 second")
        self.name = name
        self.window_s = float(window_s)
        self._clock: Clock = clock if clock is not None else time.monotonic
        # One bucket per second, plus one spare so the partially
        # filled current second never evicts a still-in-window bucket.
        self._buckets = int(self.window_s) + 1
        self._counts = [0] * self._buckets
        self._epochs = [-1] * self._buckets
        self._total = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> None:
        """Count ``amount`` events in the current second (O(1))."""
        epoch = int(self._clock())
        idx = epoch % self._buckets
        with self._lock:
            if self._epochs[idx] != epoch:
                self._epochs[idx] = epoch
                self._counts[idx] = 0
            self._counts[idx] += amount
            self._total += amount

    @property
    def total(self) -> int:
        """Events ever counted (monotonic, not windowed)."""
        with self._lock:
            return self._total

    def count_in_window(self, now: Optional[float] = None) -> int:
        """Events counted within the last ``window_s`` seconds."""
        now = self._clock() if now is None else now
        floor = int(now) - int(self.window_s) + 1
        with self._lock:
            return sum(
                count
                for count, epoch in zip(self._counts, self._epochs)
                if epoch >= floor and epoch <= int(now)
            )

    def rate_per_s(self, now: Optional[float] = None) -> float:
        """Rolling events/second over the window."""
        return self.count_in_window(now) / self.window_s


class LiveMetrics:
    """Get-or-create registry of live instruments.

    The live sibling of
    :class:`~repro.runtime.metrics.MetricsRegistry`: same
    get-or-create shape, but every instrument is bounded and every
    reading is relative to a rolling window.  One ``clock`` is shared
    by every instrument the registry creates, so a fake clock drives
    the whole registry in tests.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        window_s: float = DEFAULT_WINDOW_S,
        capacity: int = DEFAULT_CAPACITY,
    ):
        self.clock: Clock = clock if clock is not None else time.monotonic
        self.window_s = float(window_s)
        self.capacity = int(capacity)
        self._reservoirs: Dict[str, WindowReservoir] = {}
        self._rates: Dict[str, RateCounter] = {}
        self._lock = threading.Lock()

    def reservoir(
        self,
        name: str,
        window_s: Optional[float] = None,
        capacity: Optional[int] = None,
    ) -> WindowReservoir:
        with self._lock:
            if name not in self._reservoirs:
                self._reservoirs[name] = WindowReservoir(
                    name,
                    window_s=self.window_s if window_s is None else window_s,
                    capacity=self.capacity if capacity is None else capacity,
                    clock=self.clock,
                )
            return self._reservoirs[name]

    def rate(self, name: str, window_s: Optional[float] = None) -> RateCounter:
        with self._lock:
            if name not in self._rates:
                self._rates[name] = RateCounter(
                    name,
                    window_s=self.window_s if window_s is None else window_s,
                    clock=self.clock,
                )
            return self._rates[name]

    def snapshot(self, now: Optional[float] = None) -> Dict:
        """A plain-dict view of every live reading, for ``/metricsz``
        rendering and the heartbeat records."""
        with self._lock:
            reservoirs = list(self._reservoirs.items())
            rates = list(self._rates.items())
        return {
            "window_s": self.window_s,
            "reservoirs": {
                name: dict(r.summary(now), window_s=r.window_s, total=r.total_observed)
                for name, r in reservoirs
            },
            "rates": {
                name: {
                    "window_s": r.window_s,
                    "count": r.count_in_window(now),
                    "rate_per_s": r.rate_per_s(now),
                    "total": r.total,
                }
                for name, r in rates
            },
        }


class FakeClock:
    """A manually advanced monotonic clock for deterministic tests.

    Instruments read it like ``time.monotonic``; tests move time with
    :meth:`advance` instead of sleeping::

        clock = FakeClock(start=100.0)
        reservoir = WindowReservoir("rtt", window_s=60, clock=clock)
        clock.advance(61.0)   # everything observed so far expires
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError("a monotonic clock cannot go backwards")
        self.now += seconds
