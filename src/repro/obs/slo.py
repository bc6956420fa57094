"""Declarative SLOs evaluated over sliding windows into burn-rate state.

An :class:`SloSpec` declares one service-level objective; an
:class:`SloEngine` feeds request outcomes (and gauge sources such as
"model snapshot age") into the sliding-window instruments of
:mod:`repro.obs.live` and evaluates every spec into an
:class:`SloStatus`: error-budget consumption, fast/slow burn rates,
and a three-level state (``ok`` / ``warn`` / ``page``).

Three objective kinds:

* ``availability`` — the fraction of requests that are *good* (the
  server counts anything that is not a server fault as good; a 4xx
  is the client's problem, not budget burn).  ``objective`` is the
  target fraction, e.g. ``0.999``.
* ``latency`` — the fraction of requests answered within
  ``latency_threshold_ms``.  ``objective`` is again a fraction: an
  objective of ``0.99`` with a 250 ms threshold reads "99% of
  requests under 250 ms".
* ``freshness`` — a gauge objective over the age of something (the
  serving model snapshot, a campaign checkpoint).  ``objective`` is
  the maximum acceptable age in seconds; the engine reads the age
  from a registered source callable.

Burn-rate alerting follows the multi-window SRE pattern: the error
budget is ``1 - objective``; the burn rate over a window is the
window's bad fraction divided by the budget (burn 1.0 = consuming
budget exactly as fast as the objective allows).  A state trips only
when *both* the fast and the slow window exceed the threshold —
the fast window makes alerts quick, the slow window keeps a brief
blip from paging.  Everything is driven by an injectable clock, so
state transitions are unit-testable without sleeping.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.live import Clock, RateCounter, WindowReservoir
from repro.util.errors import ConfigurationError

#: Valid :attr:`SloSpec.kind` values.
SLO_KINDS = ("availability", "latency", "freshness")

#: State ladder, worst last; :func:`worst_state` picks the maximum.
STATES = ("ok", "warn", "page")


@dataclass(frozen=True)
class SloSpec:
    """One declarative service-level objective.

    Attributes:
        name: unique id, e.g. ``"availability"`` or ``"p99-latency"``.
        kind: one of :data:`SLO_KINDS`.
        objective: target *good fraction* for availability/latency
            (e.g. ``0.999``); maximum acceptable *age in seconds* for
            freshness.
        latency_threshold_ms: the "fast enough" bound for ``latency``
            specs (required there, meaningless elsewhere).
        stream: which outcome stream feeds this spec.  ``record``
            calls carry a stream label (default ``"requests"``) and
            only touch specs subscribed to it — so an objective over a
            different population (e.g. a shed-rate SLO where "good"
            means "not load-shed") keeps its own books instead of
            polluting request availability.
        fast_window_s / slow_window_s: the two burn-rate windows.
        warn_burn / page_burn: burn-rate thresholds; a level trips
            when both windows exceed it.  For freshness the "burn" is
            ``age / objective`` and the windows coincide, so a spec
            like ``warn_burn=0.75, page_burn=1.0`` reads "warn when
            the snapshot has consumed three quarters of its freshness
            budget, page when it is older than the budget".
    """

    name: str
    kind: str
    objective: float
    latency_threshold_ms: Optional[float] = None
    stream: str = "requests"
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    warn_burn: float = 1.0
    page_burn: float = 6.0

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("an SLO needs a non-empty name")
        if self.kind not in SLO_KINDS:
            raise ConfigurationError(
                f"SLO kind must be one of {SLO_KINDS}, got {self.kind!r}"
            )
        # Bounds are written as ranges, so NaN fails each of them.
        if self.kind == "freshness":
            if not 0 < self.objective < math.inf:
                raise ConfigurationError(
                    "a freshness objective is a maximum age in seconds "
                    "(finite, > 0)"
                )
        else:
            if not 0.0 < self.objective < 1.0:
                raise ConfigurationError(
                    f"{self.kind} objective must be a fraction in (0, 1), "
                    f"got {self.objective}"
                )
        if self.kind == "latency" and not (
            self.latency_threshold_ms is not None
            and 0 < self.latency_threshold_ms < math.inf
        ):
            raise ConfigurationError(
                "a latency SLO needs a finite latency_threshold_ms > 0"
            )
        if not self.stream:
            raise ConfigurationError("an SLO needs a non-empty stream label")
        if not 0 < self.fast_window_s <= self.slow_window_s < math.inf:
            raise ConfigurationError(
                "SLO windows need 0 < fast_window_s <= slow_window_s, finite"
            )
        if not 0 < self.warn_burn <= self.page_burn < math.inf:
            raise ConfigurationError(
                "SLO burn thresholds need 0 < warn_burn <= page_burn, finite"
            )

    @property
    def error_budget(self) -> float:
        """The tolerated bad fraction (``1 - objective``) for
        request-driven kinds; freshness has no fractional budget."""
        if self.kind == "freshness":
            raise ConfigurationError("freshness SLOs have no fractional budget")
        return 1.0 - self.objective


@dataclass
class SloStatus:
    """One evaluated SLO: burn rates, budget, and the alert state."""

    name: str
    kind: str
    objective: float
    state: str
    burn_fast: float
    burn_slow: float
    #: Fraction of the slow window's error budget still unspent
    #: (clamped to [0, 1]); 1.0 for an idle window.
    budget_remaining: float
    #: Kind-specific readings: request/bad counts per window for the
    #: request-driven kinds, the age and limit for freshness.
    detail: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "state": self.state,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "budget_remaining": self.budget_remaining,
            "detail": dict(self.detail),
        }


def worst_state(states: Sequence[str]) -> str:
    """The most severe of ``states`` (``ok`` when empty)."""
    worst = "ok"
    for state in states:
        if STATES.index(state) > STATES.index(worst):
            worst = state
    return worst


class SloEngine:
    """Feeds request outcomes into windowed instruments and evaluates
    every registered spec.

    The engine owns two pairs of good/bad :class:`RateCounter` wheels
    per request-driven spec (one pair per burn window) plus one
    latency reservoir per latency spec; freshness specs read a gauge
    source registered with :meth:`set_gauge_source`.  ``record`` is
    O(specs) with O(1) work per spec — cheap enough for the serve hot
    path.
    """

    def __init__(
        self,
        specs: Sequence[SloSpec],
        clock: Optional[Clock] = None,
    ):
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate SLO names in {sorted(names)}")
        self.specs: Tuple[SloSpec, ...] = tuple(specs)
        self.clock: Clock = clock if clock is not None else time.monotonic
        self._gauges: Dict[str, Callable[[], float]] = {}
        # spec name -> {window label -> (good wheel, bad wheel)}
        self._wheels: Dict[str, Dict[str, Tuple[RateCounter, RateCounter]]] = {}
        self._latency: Dict[str, WindowReservoir] = {}
        for spec in self.specs:
            if spec.kind == "freshness":
                continue
            self._wheels[spec.name] = {
                "fast": (
                    RateCounter(f"{spec.name}-fast-good", spec.fast_window_s, self.clock),
                    RateCounter(f"{spec.name}-fast-bad", spec.fast_window_s, self.clock),
                ),
                "slow": (
                    RateCounter(f"{spec.name}-slow-good", spec.slow_window_s, self.clock),
                    RateCounter(f"{spec.name}-slow-bad", spec.slow_window_s, self.clock),
                ),
            }
            if spec.kind == "latency":
                self._latency[spec.name] = WindowReservoir(
                    f"{spec.name}-latency",
                    window_s=spec.fast_window_s,
                    clock=self.clock,
                )

    def set_gauge_source(self, name: str, source: Callable[[], float]) -> None:
        """Register the reading behind a freshness spec (e.g. a
        ``lambda: now - snapshot_loaded_at``)."""
        if name not in {s.name for s in self.specs if s.kind == "freshness"}:
            raise ConfigurationError(f"no freshness SLO named {name!r}")
        self._gauges[name] = source

    # -- recording -----------------------------------------------------------

    def record(
        self,
        ok: bool,
        latency_ms: Optional[float] = None,
        stream: str = "requests",
    ) -> None:
        """Fold one outcome into every request-driven spec subscribed
        to ``stream``.

        ``ok`` means "not a server fault" and drives availability;
        ``latency_ms`` (when provided) drives latency specs, where a
        request is good iff it beat the spec's threshold.
        """
        for spec in self.specs:
            if spec.stream != stream:
                continue
            if spec.kind == "availability":
                self._count(spec.name, good=ok)
            elif spec.kind == "latency" and latency_ms is not None:
                self._latency[spec.name].observe(latency_ms)
                self._count(spec.name, good=latency_ms <= spec.latency_threshold_ms)

    def _count(self, name: str, good: bool) -> None:
        for good_wheel, bad_wheel in self._wheels[name].values():
            (good_wheel if good else bad_wheel).increment()

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> List[SloStatus]:
        """Evaluate every spec at ``now`` (default: the clock)."""
        now = self.clock() if now is None else now
        return [self._evaluate_one(spec, now) for spec in self.specs]

    def _evaluate_one(self, spec: SloSpec, now: float) -> SloStatus:
        if spec.kind == "freshness":
            return self._evaluate_freshness(spec, now)

        detail: Dict = {}
        burns = {}
        for label, (good_wheel, bad_wheel) in self._wheels[spec.name].items():
            good = good_wheel.count_in_window(now)
            bad = bad_wheel.count_in_window(now)
            total = good + bad
            bad_fraction = (bad / total) if total else 0.0
            burns[label] = bad_fraction / spec.error_budget
            detail[label] = {
                "good": good, "bad": bad, "bad_fraction": bad_fraction,
            }
        if spec.kind == "latency":
            detail["threshold_ms"] = spec.latency_threshold_ms
            detail["window_p99_ms"] = self._latency[spec.name].quantile(99, now)

        slow = detail["slow"]
        slow_total = slow["good"] + slow["bad"]
        budget_remaining = (
            1.0
            if not slow_total
            else max(0.0, 1.0 - min(1.0, burns["slow"]))
        )
        state = self._burn_state(spec, burns["fast"], burns["slow"])
        return SloStatus(
            name=spec.name,
            kind=spec.kind,
            objective=spec.objective,
            state=state,
            burn_fast=burns["fast"],
            burn_slow=burns["slow"],
            budget_remaining=budget_remaining,
            detail=detail,
        )

    def _evaluate_freshness(self, spec: SloSpec, now: float) -> SloStatus:
        source = self._gauges.get(spec.name)
        if source is None:
            # No source wired yet (server still booting): structurally
            # unknown, reported as a page so a dead gauge cannot hide.
            return SloStatus(
                name=spec.name, kind=spec.kind, objective=spec.objective,
                state="page", burn_fast=0.0, burn_slow=0.0,
                budget_remaining=0.0, detail={"error": "no gauge source"},
            )
        age = float(source())
        burn = age / spec.objective
        if burn >= spec.page_burn:
            state = "page"
        elif burn >= spec.warn_burn:
            state = "warn"
        else:
            state = "ok"
        return SloStatus(
            name=spec.name,
            kind=spec.kind,
            objective=spec.objective,
            state=state,
            burn_fast=burn,
            burn_slow=burn,
            budget_remaining=max(0.0, 1.0 - min(1.0, burn)),
            detail={"age_s": age, "max_age_s": spec.objective},
        )

    @staticmethod
    def _burn_state(spec: SloSpec, burn_fast: float, burn_slow: float) -> str:
        """Multi-window rule: both windows must agree to escalate."""
        if burn_fast >= spec.page_burn and burn_slow >= spec.page_burn:
            return "page"
        if burn_fast >= spec.warn_burn and burn_slow >= spec.warn_burn:
            return "warn"
        return "ok"
