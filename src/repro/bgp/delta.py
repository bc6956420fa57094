"""Delta convergence: internet-scale runs that only pay for the wavefront.

A campaign runs thousands of experiments over one topology, and each
experiment differs only in which sites announce.  The oracle loop of the
test suite (``tests/reference_engine.py``: one speaker object per AS,
one heap event per delivered update) pays per run for every AS and per
event for a stack of method calls.  This module — the engine's only
convergence path — produces bit-identical results paying for neither:

- **One event loop over per-run records**: the base state of every AS
  is the empty RIB (only the anycast prefix exists), so a run's
  announce/withdraw wavefront *is* the set of events.
  :meth:`DeltaConverger.converge` keeps one flat record per AS an event
  reaches — its Adj-RIB-In as one decision key per sender
  (:func:`_decide`), its best key, and what it advertised — and handles
  each event inline: import (session values plus the run's
  interior-cost overlay), an incremental decision, then the export and
  stale-withdraw rules, pushing updates straight onto the heap with the
  jitter read by slot.  No :class:`~repro.bgp.messages.Route` or
  :class:`RouterState` is made per event: :class:`LazyStates` builds an
  AS's state from its record when someone reads it.  Per-AS export
  tables are built once per topology revision.  A run touches only its
  own records, so the converger is safe to share across threads.

- **Stub aggregation**: a *pure stub* — an AS every one of whose BGP
  sessions is with a provider — exports nothing, ever: a provider- or
  peer-learned route exports to customers only, and it has none.  (Its
  own injections are the one exception; see below.)  Removing such an
  AS from the event heap therefore cannot perturb any other AS, single-
  or multi-homed alike.  Aggregated stubs are pruned from their
  providers' export tables entirely, so the simulated core is just the
  transit hierarchy.  What a provider *would* have sent them is
  reconstructed from the provider's **export episodes**: a provider
  sends the same update to every aggregated stub customer exactly
  when its best route materially changes to a new export path, so
  recording ``(virtual time, export path)`` per change captures every
  stub-bound message without enumerating the stubs.  Stub states are
  synthesized lazily from the episode log on first read
  (:class:`LazyStates`) — and not at all for the data plane, whose one
  question, where a stub forwards, the same episodes answer for all
  stubs in one array pass (:meth:`LazyStates.stub_choices`; for one,
  :meth:`LazyStates.next_hops`) — and message/event counts and the
  convergence timestamp are reconstructed from episode arithmetic, so
  metrics and traces match the oracle too.

The noise around the loop keeps the same rule.  The per-run link jitter
arrives as a :class:`LinkJitter` — the run's block of uniforms, turned
into an exponential only for the pairs the wavefront crosses — and the
last aggregated delivery of a jittered run is found by one vector pass
over the aggregated pairs plus an exact recomputation near its maximum.

Bit-identity argument for the event order: removing a heap entry that
generates no further events preserves the relative order of all
remaining entries (the tie-breaking sequence numbers are monotonic in
push order, and a subsequence keeps its order), so every live AS sees
the exact event sequence the oracle delivers.  A provider never sends
consecutive duplicates to one neighbor and link delay plus per-run
jitter are constant per directed pair, so deliveries to a stub arrive
in send order and the episode replay reproduces exactly the deliveries
the oracle makes.

The replay treats all of a provider's aggregated stubs alike, which
holds as long as none of them appears in an AS path (the export loop
skips a target inside the path, and withdraws what it advertised there
before).  Besides the origin ASN every path carries, a pure stub's ASN
can enter a path in two ways only: by hosting an injection — an
injecting stub does export, toward its providers — or by being spliced
into an announcement as a ``poison`` entry.  All are inputs known
before the first event, so such a stub is un-aggregated *for the run*:
its providers get run-local export tables that re-admit it, and it sits
on the heap like any other AS while its siblings stay aggregated.

``tests/test_bgp_router.py`` pins the loop's rules on a five-AS graph
and its decision against :func:`repro.bgp.decision.evaluate`,
``tests/test_delta_engine.py`` and ``tests/test_probe_plane.py`` its
bit-identity with the oracle.
"""

import dataclasses
import heapq
import itertools
import math
import threading
from collections.abc import Mapping
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bgp.decision import evaluate
from repro.bgp.messages import Route, SitePop, make_route
from repro.bgp.policy import local_pref_for
from repro.bgp.rib import RouterState
from repro.topology.astopo import Relationship
from repro.topology.generator import session_key
from repro.util.errors import ConvergenceBudgetError, ReproError
from repro.util.rng import exponentials


#: Relative width of the band below the best *estimated* stub arrival
#: whose members get their exact arrival computed (see ``converge``).
_ARRIVAL_MARGIN = 1e-9

#: :meth:`_StubViews.decide`: the key of a provider offering nothing,
#: and the ``best`` of a stub that was live in the run.
_NO_OFFER = np.iinfo(np.int64).max
LIVE = -2


def _stub_key(static, length):
    """Stub offers' strict keys ``(-local_pref, len(path), interior)``
    as int64s that order the same way: the session's part
    (:func:`~repro.topology.generator.session_key`) plus the length."""
    if length.min(initial=0) < 0 or length.max(initial=0) >> 12:
        raise ReproError("a stub's decision key does not fit its 64-bit packing")
    return static + (length << 32)


class LinkJitter(Mapping):
    """One run's exponential delay jitter per directed link, evaluated
    on lookup.

    Holds the run's block of uniforms (one per
    :attr:`TopologyTables.pair_slot
    <repro.topology.precompute.TopologyTables.pair_slot>` slot) rather
    than a value per link: a run consumes the jitter of the few hundred
    pairs its wavefront crosses, not of every link.  A lookup evaluates
    ``-math.log(1.0 - u) / lambd`` — the expression
    :meth:`random.Random.expovariate` evaluates on the same uniform —
    so the values are the ones a per-link ``expovariate`` loop over the
    same stream produces, bit for bit.
    """

    __slots__ = ("_slot", "_uniforms", "_lambd")

    def __init__(self, pair_slot: Dict[Tuple[int, int], int], uniforms, lambd: float):
        self._slot = pair_slot
        self._uniforms = uniforms
        self._lambd = lambd

    def __getitem__(self, pair: Tuple[int, int]) -> float:
        return -math.log(1.0 - self._uniforms.item(self._slot[pair])) / self._lambd

    def get(self, pair: Tuple[int, int], default=None):
        # Defined here: Mapping.get is a Python-level try/except around
        # __getitem__, and the event loop reads one jitter per update.
        slot = self._slot.get(pair)
        if slot is None:
            return default
        return -math.log(1.0 - self._uniforms.item(slot)) / self._lambd

    def __iter__(self):
        return iter(self._slot)

    def __len__(self) -> int:
        return len(self._slot)

    def estimate(self, slots):
        """The jitter of many slots in one vector pass.  ``numpy.log``
        may differ from ``math.log`` in the last bits, so these values
        only *locate* a jitter of interest; a value that reaches a
        result is read by key, or by :meth:`exact`."""
        return exponentials(self._uniforms[slots], exact=False) / self._lambd

    def exact(self, slots):
        """The jitter of many slots, each as a lookup evaluates it."""
        return exponentials(self._uniforms[slots]) / self._lambd


class LazyStates(Mapping):
    """A per-AS state mapping that builds each state on first read.

    Behaves exactly like the ``Dict[int, RouterState]`` a loop that
    simulates every AS returns: same keys (every AS in the topology),
    same values (by ``==``).  Internally it holds the run's per-AS
    records (see :func:`_decide`): untouched ASes resolve to the shared
    pristine state, a touched AS's state is built from its record
    (``best`` and ``multipath`` through
    :func:`repro.bgp.decision.evaluate`, ``advertised_to`` including its
    aggregated stubs), an aggregated stub's from its providers' episode
    logs; a built state is kept.

    Where an AS forwards is answered without a state: from the record
    (the state, once built) by :meth:`next_hops`, or its best sender
    alone by :meth:`best_senders`; for an aggregated stub from the
    providers' episodes, a column of :meth:`stub_choices`.
    """

    __slots__ = (
        "_records", "_injected", "_materialized", "_pristine", "_aggregated", "_stubs",
        "_parents", "_origin",
    )

    def __init__(self, records, injected, pristine, aggregated, stubs, parents, origin_asn):
        self._records = records
        #: Per injection host its injected Route (it carries site_pops).
        self._injected: Dict[int, Route] = injected
        #: The states built so far.
        self._materialized: Dict[int, RouterState] = {}
        self._pristine: Dict[int, RouterState] = pristine
        self._aggregated = aggregated
        self._stubs: "_StubViews" = stubs
        #: Per provider the aggregated stubs its advertised_to lists.
        self._parents = parents
        self._origin = origin_asn

    def __getitem__(self, asn: int) -> RouterState:
        state = self._materialized.get(asn)
        if state is None:
            if asn in self._aggregated:
                state = self._stubs.synth(asn) or self._pristine[asn]
            else:
                record = self._records.get(asn)
                if record is None or not record[0]:
                    return self._pristine[asn]
                state = self._build(asn, *record)
            # Two threads reading one held result keep the first build.
            state = self._materialized.setdefault(asn, state)
        return state

    def _build(self, asn: int, rib, _best, advertised) -> RouterState:
        stubs = self._stubs
        prefix = stubs.prefix
        state = RouterState(asn)
        adj = state.adj_rib_in
        for sender, key in rib.items():
            adj[sender] = self._injected[asn] if sender == self._origin else make_route(
                prefix, key[5], sender, -key[0], key[6], 0, key[2], key[7]
            )
        state.best, state.multipath = evaluate(list(adj.values()), stubs.internet.graph.as_of(asn))
        # One route per export path, shared by its neighbours.
        exported = {path: make_route(prefix, path, asn, 0) for path in set(advertised.values())}
        out = state.advertised_to
        out.update((neighbor, exported[path]) for neighbor, path in advertised.items())
        eps = stubs.ep_log.get(asn)
        if eps and eps[-1][1] is not None:
            # The entries the pruned export tables never wrote.
            route = make_route(prefix, eps[-1][1], asn, 0)
            out.update((stub, route) for stub in self._parents[asn])
        return state

    def next_hops(self, asn: int) -> Optional[Tuple[int, List[int]]]:
        """``self[asn].next_hops()`` (None off the topology), building
        no state: a record answers with its best key's sender and strict
        ties, in sender order."""
        state = self._materialized.get(asn)
        if state is not None:
            return state.next_hops()
        record = self._records.get(asn)
        if record is None:
            return self._stubs.choose(asn) if asn in self._aggregated else None
        rib, best, _ = record
        if best is None:
            return None
        strict = best[:3]
        return best[4], sorted(sender for sender, key in rib.items() if key[:3] == strict)

    def best_senders(self, asns) -> List[Optional[int]]:
        """``next_hops(asn)[0]`` or None per AS of ``asns``, sorting no
        tie set: a record's best sender, unless its state was built."""
        records, built = self._records, self._materialized
        senders = []
        for asn in asns:
            record = records.get(asn)
            if record is None or asn in built:
                hops = self.next_hops(asn)
                senders.append(None if hops is None else hops[0])
            else:
                best = record[1]
                senders.append(None if best is None else best[4])
        return senders

    def injected(self, asn: int) -> Route:
        """``self[asn].adj_rib_in[origin]``, building no state."""
        state = self._materialized.get(asn)
        return self._injected[asn] if state is None else state.adj_rib_in[self._origin]

    def stub_choices(self):
        """:meth:`next_hops` of every pure stub at once — ``(best,
        tied)`` of :meth:`_StubViews.decide`."""
        return self._stubs.decide()[1:]

    def __iter__(self):
        return iter(self._pristine)

    def __len__(self) -> int:
        return len(self._pristine)


class _StubViews:
    """One run's aggregated stubs, decided from their providers' export
    episodes: all in one pass (:meth:`decide`), one (:meth:`choose`, a
    column of that pass), or one as a whole state (:meth:`synth`, whose
    ``best`` / ``multipath`` are :meth:`choose`'s) — one stub decision.

    A stub holds one offer per provider whose last export episode
    carries a path, each a ``make_route`` with origin code and MED 0,
    so the decision process (:func:`repro.bgp.decision.evaluate`) ranks
    them by ``(-local_pref, len(path), interior)`` (:func:`_stub_key`)
    and then, among strict ties of an AS that breaks ties on it, by
    arrival time — the event push's own ``t + delay + jitter``,
    ``math.log`` included, over just the tied cells in one pass;
    providers are rows in ASN order, so the first minimum and the tied
    set come out in neighbour-id order.  ``overlay`` overrides the
    sessions of the ASes in ``churned``.
    """

    def __init__(self, internet, tables, prefix, overlay, churned, ep_log, jitter, live):
        self.internet = internet
        self.tables = tables
        self.prefix = prefix
        self.overlay = overlay
        self.churned = churned
        self.ep_log = ep_log
        self.jitter = jitter
        self.live = live
        self._decided = None

    def arrival(self, stub: int, provider: int) -> float:
        pair = (provider, stub)
        return (
            self.ep_log[provider][-1][0] + self.tables.prop_delay[pair]
            + self.jitter.get(pair, 0.0)
        )

    def decide(self):
        """``(key, best, tied)`` over ``StubColumns``: the packed keys
        (``[provider, stub]``; the static key plus each offer's path
        length, re-keyed only at churned stubs' cells), and per stub the
        chosen provider's row (-1 without an offer, :data:`LIVE` for a
        stub live this run) and whether several offers share the best
        key.  Computed on first use, by elementwise passes over rows."""
        if self._decided is None:
            tables = self.tables
            cols = self.internet.stub_columns()
            n = len(cols.position)
            # Path length and last episode time per provider; the extra
            # last slot is what the padding's provider index -1 reads:
            # no offer.
            length = np.zeros(len(tables.index_asn) + 1, dtype=np.int64)
            t_last = np.zeros(len(length))
            for provider, eps in self.ep_log.items():
                t, path = eps[-1]
                if path is not None:
                    i = tables.asn_index[provider]
                    length[i], t_last[i] = len(path), t
            static, patch = cols.key, {}
            for stub in self.churned:
                for col, provider in enumerate(tables.stub_providers.get(stub, ())):
                    cost = self.overlay.get((stub, provider))
                    if cost is not None:
                        patch[col * n + cols.position[stub]] = (
                            tables.session_import[stub, provider][0], cost
                        )
            if patch:
                static = static.copy()
                static.put(list(patch), session_key(*np.array(list(patch.values())).T))
            offered = length.take(cols.provider)
            key = _stub_key(static, offered)
            key[offered == 0] = _NO_OFFER
            low = np.minimum.reduce(key)
            at_low = key == low
            tied = np.add.reduce(at_low) > 1
            best = at_low.argmax(axis=0)
            best[low == _NO_OFFER] = -1
            tied &= best >= 0
            # Arrival-order ties: every tied cell's arrival, exactly,
            # then the first minimum in provider order, as min() takes it.
            stubs = np.flatnonzero(tied & cols.arrival_order)
            grid = at_low[:, stubs]
            arrival = np.full(grid.shape, math.inf)
            col, i = np.nonzero(grid)
            cell = col * n + stubs[i]
            jitter = self.jitter.exact(cols.slot.take(cell)) if self.jitter else 0.0
            arrival[col, i] = (t_last[cols.provider.take(cell)] + cols.delay.take(cell)) + jitter
            best[stubs] = arrival.argmin(axis=0)
            for stub in self.live:
                best[cols.position[stub]] = LIVE
            self._decided = key, best, tied
        return self._decided

    def choose(self, stub: int):
        """``(best provider, strict-tied providers)`` or None."""
        key, best, _ = self.decide()
        at = self.internet.stub_columns().position[stub]
        col = best[at]
        if col < 0:
            return None
        providers = self.tables.stub_providers[stub]
        offers = key[:, at]
        return providers[col], [providers[c] for c in np.flatnonzero(offers == offers[col])]

    def synth(self, stub: int) -> Optional[RouterState]:
        """The stub's state (None: the pristine one), ``==`` to the one
        simulating the stub builds: per offering provider session what
        the event loop stores on import (same import values, same route
        constructor)."""
        chosen = self.choose(stub)
        if chosen is None:
            return None
        state = RouterState(stub)
        adj = state.adj_rib_in
        for provider in self.tables.stub_providers[stub]:
            eps = self.ep_log.get(provider)
            if not eps or eps[-1][1] is None:
                continue
            session = (stub, provider)
            local_pref, interior, rel = self.tables.session_import[session]
            adj[provider] = make_route(
                self.prefix, eps[-1][1], provider, local_pref, rel, 0,
                self.overlay.get(session, interior), self.arrival(stub, provider),
            )
        state.best = adj[chosen[0]]
        state.multipath = [adj[provider] for provider in chosen[1]]
        return state


def _exports(tables, asn: int, targets, aggregated) -> Tuple[Tuple[int, float, int], ...]:
    """``asn``'s export base as ``(neighbor, delay, jitter slot)``
    triples, aggregated stubs left out.  Leaving entries out of a
    sorted tuple keeps it sorted, so the surviving exports are emitted
    in the unpruned base's relative order."""
    return tuple(
        (n, tables.prop_delay[(asn, n)], tables.pair_slot[(asn, n)])
        for n in targets
        if n not in aggregated
    )


class _Topology:
    """What the event loop reads of one tables revision, built once
    (:meth:`DeltaConverger._topology`) and never mutated."""

    __slots__ = (
        "tables", "pristine", "aggregated", "routers", "parents",
        "parent_maxdelay", "agg_pairs", "agg_provider", "agg_slot", "agg_delay",
    )

    def __init__(self, graph, tables):
        self.tables = tables
        self.pristine = {asn: RouterState(asn) for asn in graph.asns()}
        aggregated = frozenset(tables.stub_providers)
        self.aggregated = aggregated
        parents: Dict[int, List[int]] = {}
        for stub in aggregated:
            for provider in tables.stub_providers[stub]:
                parents.setdefault(provider, []).append(stub)
        #: provider ASN -> sorted tuple of its aggregated stub customers
        self.parents = {p: tuple(sorted(s)) for p, s in parents.items()}
        prop_delay = tables.prop_delay
        #: provider ASN -> max one-way delay to any of its stubs (the
        #: jitter-free fast path for the convergence timestamp).
        self.parent_maxdelay = {
            p: max(prop_delay[(p, s)] for s in stubs) for p, stubs in self.parents.items()
        }
        #: ASN -> (AS, exports of a customer route, exports of any
        #: other route, aggregated stub customers), for every AS but the
        #: aggregated stubs (a run that makes one live adds its own).
        self.routers = {
            asn: (
                graph.as_of(asn),
                _exports(tables, asn, tables.export_all[asn], aggregated),
                _exports(tables, asn, tables.export_customers[asn], aggregated),
                self.parents.get(asn, ()),
            )
            for asn in graph.asns()
            if asn not in aggregated
        }
        # Every aggregated (provider, stub) pair, flat, with its
        # provider's dense index (``tables.asn_index``), jitter slot and
        # one-way delay (the jittered path for the convergence
        # timestamp).  Every session of an aggregated stub is with a
        # provider, so the pairs are exactly the directed links ending
        # at one.
        pairs = [pair for pair in tables.pair_slot if pair[1] in aggregated]
        self.agg_pairs = pairs
        self.agg_provider = np.array([tables.asn_index[p] for p, _ in pairs], dtype=np.intp)
        self.agg_slot = np.array([tables.pair_slot[pair] for pair in pairs], dtype=np.intp)
        self.agg_delay = np.array([prop_delay[pair] for pair in pairs], dtype=np.float64)


def _decide(rib, best, sender, key):
    """One event's decision over an AS's record; returns the new best.

    ``rib`` maps each sender to its route's key ``(-local_pref,
    len(path), interior, arrival if the AS breaks ties on it else 0.0,
    sender, path, learned_rel, arrival)``, ordered as
    :func:`repro.bgp.decision.evaluate` decides (MED and origin code are
    0): the best is the minimum, the multipath set the keys equal to it
    in the first three fields.  Senders are unique, so no comparison
    reaches past them.  ``key`` replaces ``sender``'s (None withdraws
    it); only a change to the best's own sender rescans.  Returns
    ``best`` itself when the best is unchanged.
    """
    if key is not None:
        rib[sender] = key
    elif rib.pop(sender, None) is None:
        return best
    if best is not None and best[4] == sender:
        return min(rib.values()) if rib else None
    if key is not None and (best is None or key < best):
        return key
    return best


def _originate(injected, asn, site_id, inj, node, origin_asn, prefix, now) -> bool:
    """Apply an injection event to ``injected[asn]``, the anycast route
    its host ``asn`` holds from the origin ASN: site ``site_id``
    announcing through ``inj`` (a ``SiteInjection``), or, with ``inj``
    None, withdrawing.  False when the route is unchanged.

    Sites announcing through one AS merge into one AS-level route whose
    arrival time is the earliest announcement; site-level differences
    are resolved in the data plane (paper S4.3).  Prepending lengthens
    the session's path, and only the shortest-path sessions keep their
    attachments: a longer announcement is shadowed, a shorter one
    replaces the set, and withdrawing the last short-path site does not
    resurrect a shadowed one.  ``poison`` splices ASNs into the path
    (``origin, poisoned..., origin``), so loop prevention keeps the route
    from them (paper S6); ``BGPEngine.run`` has already rejected
    poisoning the host.
    """
    existing = injected.get(asn)
    if inj is None:
        if existing is None:
            return False
        remaining = tuple(sp for sp in existing.site_pops if sp.site_id != site_id)
        if remaining:
            injected[asn] = dataclasses.replace(existing, site_pops=remaining)
        else:
            del injected[asn]
        return True
    as_path = (origin_asn,) * (1 + inj.prepend)
    if inj.poison:
        as_path = (origin_asn,) + tuple(inj.poison) + as_path
    pop = SitePop(site_id, inj.pop_id, inj.link_rtt_ms)
    if existing is None:
        injected[asn] = Route(
            prefix=prefix,
            as_path=as_path,
            learned_from=origin_asn,
            local_pref=local_pref_for(node, origin_asn, inj.rel_from_host),
            learned_rel=inj.rel_from_host,
            arrival_time=now,
            site_pops=(pop,),
        )
        return True
    if len(as_path) > len(existing.as_path):
        return False
    if len(as_path) == len(existing.as_path):
        pops = tuple(sorted(set(existing.site_pops) | {pop}, key=lambda sp: sp.site_id))
    else:
        pops = (pop,)
    injected[asn] = dataclasses.replace(
        existing,
        as_path=as_path,
        arrival_time=min(existing.arrival_time, now),
        site_pops=pops,
    )
    return True


class DeltaConverger:
    """The convergence core of one :class:`BGPEngine`: one heap loop
    over per-run records.

    Keeps the per-topology :class:`_Topology` (shared pristine states,
    per-AS export tables) keyed to the graph's current
    :class:`~repro.topology.precompute.TopologyTables`.  A run keeps
    records only for the ASes it touches and shares nothing mutable, so
    one converger is safe to share across threads; the lock guards only
    the rebuild.
    """

    def __init__(self, internet, prefix: str, origin_asn: int):
        # The engine's inputs, not the engine: a back-pointer makes a cycle
        # that keeps the engine and its results alive until a gen-2 GC.
        self.internet = internet
        self.prefix = prefix
        self.origin_asn = origin_asn
        self._lock = threading.Lock()
        self._topo: Optional[_Topology] = None

    def _topology(self) -> _Topology:
        graph = self.internet.graph
        tables = graph.tables()
        with self._lock:
            if self._topo is None or self._topo.tables is not tables:
                self._topo = _Topology(graph, tables)
            return self._topo

    # -- one run ----------------------------------------------------------

    def converge(
        self,
        injections,
        igp_overlay,
        jitter,
        withdrawals,
        budget: int,
    ):
        """Run one convergence; returns ``(states, last_time, messages,
        events)`` with ``states`` a :class:`LazyStates`.

        ``jitter`` is the per-run delay jitter the engine already drew:
        a :class:`LinkJitter`, or an empty dict for an unjittered run.
        """
        topo = self._topology()
        tables = topo.tables
        routers = topo.routers
        aggregated = topo.aggregated
        prefix = self.prefix
        origin_asn = self.origin_asn

        # A stub must be live even if it would normally aggregate when
        # it hosts an injection or withdrawal (it exports toward its
        # providers) or when an announced path names it (poison entries
        # and the origin: the export loop skips a target inside the
        # path).  No stub left aggregated can then appear in any path.
        named = {origin_asn}
        for inj in injections:
            named.add(inj.host_asn)
            named.update(inj.poison)
        named.update(wd.host_asn for wd in withdrawals)
        agg = aggregated
        live_stubs = named & aggregated
        #: Per-run override of a provider's aggregated-stub list when
        #: some of its stubs are live this run.
        stubs_run: Dict[int, Tuple[int, ...]] = {}
        if live_stubs:
            agg = aggregated - live_stubs
            affected: Dict[int, set] = {}
            for stub in live_stubs:
                for provider in tables.stub_providers[stub]:
                    affected.setdefault(provider, set()).add(stub)
            # A live stub exports to its providers (a pure stub has no
            # customers), and they export to it this run: they get
            # run-local export tuples that prune only ``agg``.
            routers = dict(routers)
            graph = self.internet.graph
            for stub in live_stubs:
                routers[stub] = (
                    graph.as_of(stub), _exports(tables, stub, tables.export_all[stub], agg), (), ()
                )
            for provider, live_of in affected.items():
                stubs = tuple(s for s in topo.parents[provider] if s not in live_of)
                stubs_run[provider] = stubs
                routers[provider] = (
                    routers[provider][0],
                    _exports(tables, provider, tables.export_all[provider], agg),
                    _exports(tables, provider, tables.export_customers[provider], agg),
                    stubs,
                )

        # Heap entries are (time, seq, receiver, sender, path): an
        # update from ``sender`` with ``path`` its AS path, None for a
        # withdrawal; or, with ``sender`` None, an injection event whose
        # ``path`` slot holds (site id, SiteInjection, or None for a
        # site withdrawal).  ``seq`` is monotonic in push order and
        # breaks time ties.
        seq = itertools.count()
        next_seq = seq.__next__
        heap = [
            (inj.announce_time_ms, next_seq(), inj.host_asn, None, (inj.site_id, inj))
            for inj in injections
        ]
        heap.extend(
            (wd.withdraw_time_ms, next_seq(), wd.host_asn, None, (wd.site_id, None))
            for wd in withdrawals
        )
        heapq.heapify(heap)
        heappop = heapq.heappop
        heappush = heapq.heappush

        jittered = bool(jitter)
        if jittered:
            # Read by slot: the expression LinkJitter.get evaluates.
            uniform_at = jitter._uniforms.item
            lambd = jitter._lambd
        jitter_get = jitter.get
        prop_delay = tables.prop_delay
        session_import = tables.session_import
        overlay_get = igp_overlay.get if igp_overlay else None
        # The ASes whose sessions the overlay overrides: a churn overlay
        # names them (``ases``), any other mapping is read off its keys.
        churned = (
            getattr(igp_overlay, "ases", None) or {asn for asn, _ in igp_overlay}
            if igp_overlay else ()
        )
        customer = Relationship.CUSTOMER

        # ep_log holds, per provider, the export episodes (time, export
        # path or None) its aggregated stubs would have received.
        ep_log: Dict[int, List[Tuple[float, Optional[Tuple[int, ...]]]]] = {}
        agg_est = 0  # running upper bound on aggregated deliveries
        #: Per touched AS ``[rib, best key, advertised]`` (:func:`_decide`;
        #: the export path last sent to each neighbour).
        records: Dict[int, list] = {}
        #: Per injection host the injected Route (it carries site_pops).
        injected: Dict[int, Route] = {}
        messages = events = 0
        now = 0.0
        while heap:
            now, _, asn, sender, path = heappop(heap)
            events += 1
            if events + agg_est > budget:
                raise ConvergenceBudgetError(budget, events + agg_est, len(records), now)
            record = records.get(asn)
            if record is None:
                record = records[asn] = [{}, None, {}]
            rib, old_best, advertised = record
            node, exports_all, exports_customers, stubs = routers[asn]
            if sender is None:
                if not _originate(injected, asn, *path, node, origin_asn, prefix, now):
                    continue
                sender = origin_asn
                route = injected.get(asn)
                key = None if route is None else (
                    -route.local_pref, len(route.as_path), route.interior_cost,
                    route.arrival_time if node.arrival_order_tiebreak else 0.0,
                    origin_asn, route.as_path, route.learned_rel, route.arrival_time,
                )
            elif path is None:
                messages += 1
                key = None
            else:
                # No receipt checks: loop prevention and duplicate
                # refresh happen at the sender (see the export loop).
                messages += 1
                session = (asn, sender)
                local_pref, interior, rel = session_import[session]
                if asn in churned:
                    interior = overlay_get(session, interior)
                key = (
                    -local_pref, len(path), interior,
                    now if node.arrival_order_tiebreak else 0.0, sender, path, rel, now,
                )

            best = _decide(rib, old_best, sender, key)
            if best is old_best:
                continue
            record[1] = best
            if best is None:
                export_path = None
            elif old_best is not None and best[5] == old_best[5] and best[4] == old_best[4]:
                # Route.materially_equal (MED and origin code are 0):
                # nothing to re-export.
                continue
            else:
                as_path = best[5]
                export_path = (asn,) + as_path
                # Loop prevention: no target on the path (the
                # learned-from neighbour is on it too: its head, or an
                # injected route's origin), so no update names its
                # receiver.  Duplicate refresh: a material change of best
                # always changes the path (updates carry no MED, and a
                # propagated path's head is its learned-from), sessions
                # are FIFO (a directed link's delay and jitter are fixed
                # for the run), and a withdrawal clears the receiver's
                # entry — so no update repeats the receiver's stored
                # route.  The receipt checks BGP makes (the oracle's
                # speaker in ``tests/reference_engine.py``) cannot fire
                # here; ``tests/test_bgp_router.py`` pins that.
                base = exports_all if best[6] is customer else exports_customers
            if advertised:
                # Withdraw from every neighbour no longer a target, in
                # ASN order (all of them when no route is left).
                keep = () if best is None else {n for n, _, _ in base if n not in as_path}
                for n in sorted(advertised.keys() - keep):
                    pair = (asn, n)
                    arrive = now + prop_delay[pair] + jitter_get(pair, 0.0)
                    heappush(heap, (arrive, next_seq(), n, asn, None))
                    del advertised[n]
            if export_path is not None:
                for n, delay, slot in base:
                    if n in as_path:
                        continue
                    advertised[n] = export_path
                    arrive = now + delay
                    if jittered:
                        arrive += -math.log(1.0 - uniform_at(slot)) / lambd
                    heappush(heap, (arrive, next_seq(), n, asn, export_path))
            if stubs:
                # Export-episode detection: the aggregated stubs get this
                # export path (or withdrawal) exactly when a live one would.
                eps = ep_log.get(asn)
                if eps:
                    if eps[-1][1] != export_path:
                        eps.append((now, export_path))
                        agg_est += len(stubs)
                elif export_path is not None:
                    ep_log[asn] = [(now, export_path)]
                    agg_est += len(stubs)
        last_time = now

        # -- aggregated-delivery accounting -------------------------------
        # Exact counts and the last aggregated arrival, from episode
        # arithmetic: every aggregated stub receives every episode.
        # Arrivals are computed as (episode time + delay) + jitter,
        # matching the push expression above term for term so the
        # convergence timestamp is bit-equal.
        agg_count = 0
        agg_last = 0.0
        parents = {**topo.parents, **stubs_run} if stubs_run else topo.parents
        maxdelay = topo.parent_maxdelay
        #: Jittered runs: last episode time, by dense AS index, of each
        #: provider whose whole stub set is aggregated (-inf elsewhere).
        t_last_of = None
        for provider, eps in ep_log.items():
            stubs = parents[provider]
            full_set = provider not in stubs_run
            if not stubs:
                continue
            agg_count += len(eps) * len(stubs)
            t_last = eps[-1][0]
            if not jittered:
                # Float addition is monotone, so adding the max
                # delay equals the max of the per-stub sums.
                reach = maxdelay[provider] if full_set else max(
                    prop_delay[(provider, s)] for s in stubs
                )
                arrive = t_last + reach
            elif full_set:
                if t_last_of is None:
                    t_last_of = np.full(len(tables.index_asn), -math.inf)
                t_last_of[tables.asn_index[provider]] = t_last
                continue
            else:
                arrive = max(
                    t_last + prop_delay[(provider, s)] + jitter_get((provider, s), 0.0)
                    for s in stubs
                )
            if arrive > agg_last:
                agg_last = arrive
        if t_last_of is not None:
            # One vector pass estimates every aggregated pair's arrival;
            # the exact scalar expression — same term order as the event
            # push — is evaluated only near the top.  An estimate
            # differs from the exact arrival only through numpy.log:
            # both add the same (t_last + delay) to a jitter, and the
            # two jitters agree to a few units in the last place, so
            # |estimate - exact| is below ~1e-15 * (|arrival| + jitter).
            # The margin is a million times that, so the pair whose
            # exact arrival is largest is always among the candidates
            # (its estimate is within two such errors of the best
            # estimate).
            jit = jitter.estimate(topo.agg_slot)
            estimate = (t_last_of[topo.agg_provider] + topo.agg_delay) + jit
            best = estimate.max()
            margin = _ARRIVAL_MARGIN * (abs(best) + jit.max())
            pairs = topo.agg_pairs
            for i in (estimate >= best - margin).nonzero()[0].tolist():
                pair = pairs[i]
                arrive = ep_log[pair[0]][-1][0] + prop_delay[pair] + jitter_get(pair, 0.0)
                if arrive > agg_last:
                    agg_last = arrive

        lazy = LazyStates(
            records,
            injected,
            topo.pristine,
            agg,
            _StubViews(
                self.internet, tables, prefix, igp_overlay or {}, churned, ep_log, jitter,
                live_stubs,
            ),
            parents,
            origin_asn,
        )
        last_time = max(last_time, agg_last)
        messages += agg_count
        events += agg_count
        return lazy, last_time, messages, events
