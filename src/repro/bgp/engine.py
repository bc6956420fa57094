"""Event-driven propagation of anycast announcements to convergence.

The engine owns a virtual clock in milliseconds.  Each
:class:`SiteInjection` schedules a route injection at its announcement
time; speaker exports are delivered to neighbors after the link's
control-plane propagation delay.  Because delays are seeded at topology
build, the *arrival order* of competing advertisements at every AS is
deterministic — which is exactly what the paper's S4.2 experiments
manipulate by spacing announcements.

Campaigns run the engine thousands of times over one topology, so
there is one convergence path and it is the fast one:
:class:`~repro.bgp.delta.DeltaConverger` keeps a pool of speakers (and
the graph's precomputed
:class:`~repro.topology.precompute.TopologyTables`) alive across runs,
so a run only pays for the state it actually touched, not for
rebuilding one speaker and one dict per AS.  The engine itself is the
wrapper around it: input validation, the convergence cache, the per-run
delay jitter, metrics and the trace span.  The build-everything-per-run
loop it is bit-compared against lives with the tests
(``tests/reference_engine.py``).
"""

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.delta import DeltaConverger, LazyStates, LinkJitter
from repro.bgp.rib import RouterState
from repro.topology.astopo import Relationship
from repro.topology.generator import Internet
from repro.util.errors import ReproError
from repro.util.rng import noise_key, uniforms

#: Private ASN used as the anycast origin network (the CDN).
ANYCAST_ORIGIN_ASN = 65000

#: Test prefix announced in all experiments (paper: prefixes the
#: authors control, serving no clients).
DEFAULT_ANYCAST_PREFIX = "192.0.2.0/24"

#: Floor of the auto-scaled per-run event budget (the historical hard
#: cap; topologies large enough to need more get more — see
#: :meth:`BGPEngine.event_budget`).
_MAX_EVENTS = 2_000_000

#: Auto-budget headroom per AS: generously above the events-per-AS any
#: converging Gao-Rexford run produces (the tracked 174-AS workload
#: averages ~4 events per AS per run).
_EVENTS_PER_AS = 400


@dataclass(frozen=True)
class SiteInjection:
    """One site announcing the anycast prefix through one neighbor AS.

    Attributes:
        host_asn: the AS receiving the announcement (a transit provider
            or a settlement-free peer of the anycast network).
        site_id: the announcing anycast site.
        pop_id: attachment PoP inside ``host_asn`` (None if single-PoP).
        link_rtt_ms: RTT across the site's access link to that AS.
        rel_from_host: the anycast origin's relationship as seen by the
            host — CUSTOMER when the host sells transit to the anycast
            network, PEER for settlement-free peering.
        announce_time_ms: virtual time at which the announcement is
            made; staggering these reproduces the paper's
            announcement-order experiments.
        prepend: extra copies of the origin ASN prepended to the
            announced AS path (traffic-engineering knob; paper S6).
        poison: ASNs inserted into the announced path so their loop
            prevention drops the route — the BGP poisoning technique
            the paper lists among its future-work control knobs (S6).
    """

    host_asn: int
    site_id: int
    pop_id: Optional[int]
    link_rtt_ms: float
    rel_from_host: Relationship = Relationship.CUSTOMER
    announce_time_ms: float = 0.0
    prepend: int = 0
    poison: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SiteWithdrawal:
    """Scheduled removal of one site's announcement from its host AS.

    Used to model reconfiguration: a running deployment withdraws a
    site (maintenance, DDoS response) and the engine reconverges.
    """

    host_asn: int
    site_id: int
    withdraw_time_ms: float


@dataclass
class ConvergedState:
    """The outcome of running the engine to quiescence.

    ``states`` covers every AS in the topology.  Treat the contained
    :class:`RouterState` objects as immutable: states of ASes the run
    never touched are shared between results (and with the convergence
    cache), so mutating one would corrupt other results.
    """

    prefix: str
    origin_asn: int
    states: Dict[int, RouterState]
    injections: Tuple[SiteInjection, ...]
    convergence_time_ms: float = 0.0
    message_count: int = 0
    enabled_sites: Tuple[int, ...] = field(default=())

    def state_of(self, asn: int) -> RouterState:
        try:
            return self.states[asn]
        except KeyError:
            raise ReproError(f"no BGP state for AS {asn}") from None

    def next_hops(self, asn: int) -> Optional[Tuple[int, List[int]]]:
        """Which neighbour(s) ``asn`` forwards to: ``(best.learned_from,
        [r.learned_from for r in multipath])`` of its state — the
        anycast origin ASN stands for an injected route — or None when
        it holds no route.  An engine result answers for an aggregated
        stub from its providers' export episodes, building no state
        (:meth:`LazyStates.next_hops <repro.bgp.delta.LazyStates.next_hops>`);
        plain-dict states (unpickled, convergence store) answer from
        the stored ``best`` / ``multipath``."""
        states = self.states
        if isinstance(states, LazyStates):
            return states.next_hops(asn)
        state = states.get(asn)
        return None if state is None else state.next_hops()

    def stub_choices(self):
        """:meth:`next_hops` of every pure stub as columns
        (:meth:`LazyStates.stub_choices
        <repro.bgp.delta.LazyStates.stub_choices>`), or None:
        plain-dict states answer one AS at a time."""
        states = self.states
        return states.stub_choices() if isinstance(states, LazyStates) else None


class BGPEngine:
    """Runs anycast announcements over an :class:`Internet` to
    convergence and returns the per-AS routing state.

    ``cache`` (a :class:`repro.runtime.cache.ConvergenceCache`) stores
    converged states keyed by the exact run inputs; a hit skips
    propagation entirely and is bit-identical to re-running.
    ``metrics`` (a :class:`repro.runtime.metrics.MetricsRegistry`)
    receives the convergence work counters.

    Propagation is delta convergence (:mod:`repro.bgp.delta`): speaker
    sets are checked out of a pool per run, only the ASes the
    announce/withdraw wavefront touched are restored between runs, and
    pure-stub ASes (every session with a provider, any homing degree)
    are collapsed out of the event heap entirely.  Concurrent runs each
    check out their own speaker set, so one engine remains safe to
    share across executor threads.

    ``max_events`` caps the events one run may process; ``None``
    auto-scales the cap with topology size.  Exhausting it raises
    :class:`~repro.util.errors.ConvergenceBudgetError` with an event
    census.
    """

    def __init__(
        self,
        internet: Internet,
        origin_asn: int = ANYCAST_ORIGIN_ASN,
        prefix: str = DEFAULT_ANYCAST_PREFIX,
        cache=None,
        metrics=None,
        tracer=None,
        max_events: Optional[int] = None,
    ):
        if max_events is not None and max_events < 1:
            raise ReproError("max_events must be >= 1 (or None for auto)")
        self.internet = internet
        self.origin_asn = origin_asn
        self.prefix = prefix
        self.cache = cache
        self.metrics = metrics
        self.tracer = tracer
        self.max_events = max_events
        self._delta = DeltaConverger(internet, prefix, origin_asn)

    def event_budget(self) -> int:
        """The per-run event cap: explicit ``max_events``, or a budget
        scaling with topology size (never below the historical 2M
        floor, so small topologies keep their old headroom)."""
        if self.max_events is not None:
            return self.max_events
        return max(_MAX_EVENTS, _EVENTS_PER_AS * len(self.internet.graph))

    def _draw_jitter(self, delay_jitter_ms: float, delay_nonce: int):
        """One run's delay jitter per directed link: word ``slot`` of
        the ``"delay-jitter"`` noise stream per ``TopologyTables.pair_slot``
        slot, one block, made exponential only for the pairs looked up."""
        key = noise_key(self.internet.seed, "delay-jitter", delay_nonce)
        pair_slot = self.internet.graph.tables().pair_slot
        return LinkJitter(pair_slot, uniforms(key, 0, len(pair_slot)), 1.0 / delay_jitter_ms)

    def run(
        self,
        injections: Sequence[SiteInjection],
        igp_overlay: Optional[Dict[Tuple[int, int], int]] = None,
        delay_jitter_ms: float = 0.0,
        delay_nonce: int = 0,
        withdrawals: Sequence[SiteWithdrawal] = (),
    ) -> ConvergedState:
        """Announce the prefix per ``injections`` and converge.

        ``igp_overlay`` overrides per-session interior costs for this
        run only, modeling interior-routing changes between
        experiments (the drift that costs the paper its last few
        accuracy points).

        ``delay_jitter_ms`` adds a per-run exponential jitter to every
        link's control-plane delay (seeded by ``delay_nonce``).  With
        *spaced* announcements the spacing dominates and arrival order
        stays controlled; with *simultaneous* announcements the race
        outcome varies run to run — exactly why the paper's naive
        no-order experiments produce cyclic preferences (S5.1).

        Raises :class:`ReproError` if an injection or withdrawal
        references an AS not in the topology, two injections share
        ``(host_asn, site_id)``, or ``delay_jitter_ms`` is not a finite
        non-negative number, and
        :class:`~repro.util.errors.ConvergenceBudgetError` (with an
        event census) if the event budget is exhausted — which would
        indicate a routing oscillation, impossible under Gao-Rexford
        policies, so treated as a bug.
        """
        graph = self.internet.graph
        if not injections:
            raise ReproError("cannot run BGP engine with no injections")
        announced = set()
        for inj in injections:
            if inj.host_asn not in graph:
                raise ReproError(f"injection references unknown AS {inj.host_asn}")
            if (inj.host_asn, inj.site_id) in announced:
                raise ReproError(
                    f"site {inj.site_id} is injected at AS {inj.host_asn} more than once"
                )
            announced.add((inj.host_asn, inj.site_id))
        for wd in withdrawals:
            if wd.host_asn not in graph:
                raise ReproError(f"withdrawal references unknown AS {wd.host_asn}")
        if not 0.0 <= delay_jitter_ms < math.inf:
            raise ReproError(
                f"delay_jitter_ms must be finite and non-negative, got {delay_jitter_ms!r}"
            )

        start_unix = time.time()
        start = time.perf_counter()
        cache_key = None
        if self.cache is not None:
            cache_key = self.cache.key_for(
                injections, igp_overlay, delay_jitter_ms, delay_nonce, withdrawals
            )
            cached = self.cache.lookup(cache_key)
            if cached is not None:
                elapsed = time.perf_counter() - start
                if self.metrics is not None:
                    self.metrics.histogram("convergence_cached_s").observe(elapsed)
                if self.tracer is not None:
                    # Attributes are virtual-clock quantities, so the
                    # span is identical whether served cold or cached —
                    # except for the cache_hit flag itself.
                    self.tracer.record(
                        "converge",
                        attributes={
                            "cache_hit": True,
                            "messages": cached.message_count,
                            "convergence_time_ms": cached.convergence_time_ms,
                        },
                        start_unix=start_unix,
                        duration_s=elapsed,
                    )
                return cached

        jitter = (
            self._draw_jitter(delay_jitter_ms, delay_nonce) if delay_jitter_ms > 0.0 else {}
        )
        states, last_time, messages, events = self._delta.converge(
            injections, igp_overlay, jitter, withdrawals, self.event_budget()
        )

        elapsed = time.perf_counter() - start
        if self.metrics is not None:
            self.metrics.counter("convergence_runs").increment()
            self.metrics.counter("convergence_messages").increment(messages)
            self.metrics.counter("convergence_events").increment(events)
            self.metrics.histogram("convergence_cold_s").observe(elapsed)
            self.metrics.histogram("convergence_events_per_run").observe(events)
        if self.tracer is not None:
            self.tracer.record(
                "converge",
                attributes={
                    "cache_hit": False if self.cache is not None else None,
                    "messages": messages,
                    "events": events,
                    "convergence_time_ms": last_time,
                },
                start_unix=start_unix,
                duration_s=elapsed,
            )

        withdrawn = {(wd.host_asn, wd.site_id) for wd in withdrawals}
        state = ConvergedState(
            prefix=self.prefix,
            origin_asn=self.origin_asn,
            states=states,
            injections=tuple(injections),
            convergence_time_ms=last_time,
            message_count=messages,
            enabled_sites=tuple(sorted({
                inj.site_id
                for inj in injections
                if (inj.host_asn, inj.site_id) not in withdrawn
            })),
        )
        if cache_key is not None:
            self.cache.store(cache_key, state)
        return state
