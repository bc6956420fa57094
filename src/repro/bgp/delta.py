"""Delta convergence: internet-scale runs that only pay for the wavefront.

A campaign runs thousands of experiments over one topology, and each
experiment differs only in which sites announce.  A plain loop with one
live speaker per AS pays three per-run costs proportional to the whole
topology: an overlay sweep over every speaker, a detach scan over every
AS, and one heap event per delivered update — including the huge
majority delivered to stub ASes that can never say anything back.

This module — the engine's only convergence path — pays none of the
three, bit-identically to that plain loop (which survives as the test
suite's oracle, ``tests/reference_engine.py``):

- **Touched-AS tracking / copy-on-restore**: the per-topology base
  state is the empty RIB (only the anycast prefix exists), so a run's
  announce/withdraw wavefront *is* the set of events.  The converger
  records which ASes the wavefront reached and, between runs, restores
  exactly those — checkout, detach, and release are all O(touched),
  not O(|ASes|).

- **Stub aggregation**: a *pure stub* — an AS every one of whose BGP
  sessions is with a provider — exports nothing, ever: a provider- or
  peer-learned route exports to customers only, and it has none.  (Its
  own injections are the one exception; see below.)  Removing such an
  AS from the event heap therefore cannot perturb any other AS, single-
  or multi-homed alike.  Aggregated stubs are pruned from their
  providers' export bases entirely, so the simulated core is just the
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
  metrics and traces match the plain loop too.

The noise around the loop keeps the same rule.  The per-run link jitter
arrives as a :class:`LinkJitter` — the run's block of uniforms, turned
into an exponential only for the pairs the wavefront crosses — and the
last aggregated delivery of a jittered run is found by one vector pass
over the aggregated pairs plus an exact recomputation near its maximum.

Bit-identity argument for the event order: removing a heap entry that
generates no further events preserves the relative order of all
remaining entries (the tie-breaking sequence numbers are monotonic in
push order, and a subsequence keeps its order), so every live AS sees
the exact event sequence the plain loop delivers.  A provider never
sends consecutive duplicates to one neighbor (``advertised_to`` dedup)
and link delay plus per-run jitter are constant per directed pair, so
deliveries to a stub arrive in send order and the episode replay
reproduces exactly the deliveries the plain loop makes.

The replay treats all of a provider's aggregated stubs alike, which
holds as long as none of them appears in an AS path (the export loop
skips a target inside the path, and withdraws what it advertised there
before).  Besides the origin ASN every path carries, a pure stub's ASN
can enter a path in two ways only: by hosting an injection — an
injecting stub does export, toward its providers — or by being spliced
into an announcement as a ``poison`` entry.  All are inputs known
before the first event, so such a stub is un-aggregated *for the run*:
it gets an ephemeral live speaker, its providers get a run-local export
base that re-admits it, and it sits on the heap like any other AS while
its siblings stay aggregated.
"""

import heapq
import itertools
import math
import threading
from collections.abc import Mapping
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bgp.messages import SitePop, make_route
from repro.bgp.rib import RouterState
from repro.bgp.router import BGPSpeaker
from repro.topology.astopo import Relationship
from repro.util.errors import ConvergenceBudgetError, ReproError


#: Relative width of the band below the best *estimated* stub arrival
#: whose members get their exact arrival computed (see ``converge``).
_ARRIVAL_MARGIN = 1e-9

#: :meth:`_StubViews.decide`: the key of a provider offering nothing,
#: and the ``best`` of a stub that had a speaker of its own in the run.
_NO_OFFER = np.iinfo(np.int64).max
LIVE = -2


def _stub_key(local_pref, length, interior):
    """The strict decision key ``(-local_pref, len(path), interior)``
    of integer arrays as one int64 array that orders the same way."""
    for values, bits in ((local_pref, 18), (length, 12), (interior, 32)):
        if values.min(initial=0) < 0 or values.max(initial=0) >> bits:
            raise ReproError("a stub's decision key does not fit its 64-bit packing")
    return (length << 32 | interior) - (local_pref << 44)


class _PrunedTables:
    """Core speakers' view of the topology tables: identical session
    imports, export bases with the aggregated stubs removed.  Pruning
    preserves the base's sorted order (a subsequence of a sorted tuple),
    so the surviving exports are emitted in exactly the unpruned
    base's relative order."""

    __slots__ = ("session_import", "export_all", "export_customers")

    def __init__(self, session_import, export_all, export_customers):
        self.session_import = session_import
        self.export_all = export_all
        self.export_customers = export_customers

    def export_targets(self, asn: int, learned_rel) -> Tuple[int, ...]:
        if learned_rel is Relationship.CUSTOMER:
            return self.export_all[asn]
        return self.export_customers[asn]


class _RunExport:
    """A per-run export-base override for one provider of a live stub:
    prunes only the stubs aggregated *this run*, so the live stub gets
    real heap deliveries while its siblings stay aggregated."""

    __slots__ = ("session_import", "_all", "_customers")

    def __init__(self, session_import, all_targets, customer_targets):
        self.session_import = session_import
        self._all = all_targets
        self._customers = customer_targets

    def export_targets(self, asn: int, learned_rel) -> Tuple[int, ...]:
        if learned_rel is Relationship.CUSTOMER:
            return self._all
        return self._customers


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
        result is always read by key."""
        return -np.log(1.0 - self._uniforms[slots]) / self._lambd


class LazyStates(Mapping):
    """A per-AS state mapping that synthesizes aggregated-stub states
    on first read.

    Behaves exactly like the ``Dict[int, RouterState]`` a loop with one
    live speaker per AS returns: same keys (every AS in the topology),
    same values (by ``==``).  Internally it holds only the states the run
    actually materialized; untouched ASes resolve to the shared
    pristine state, aggregated stubs are built from their providers'
    episode logs on demand (then cached), and a touched provider's
    ``advertised_to`` entries for its aggregated stubs are patched in
    on first access.  Pickling materializes to a plain dict, so
    persisted convergence-store entries do not depend on this class.

    :meth:`next_hops` answers the one question the data plane asks of
    a state — where does this AS forward — and for an aggregated stub
    it does so from the providers' episodes alone, with no state built:
    a row of :meth:`stub_choices`, which answers for all of them.
    """

    __slots__ = ("_materialized", "_pristine", "_aggregated", "_stubs", "_pending", "_patch")

    def __init__(self, materialized, pristine, aggregated, stubs, pending, patch):
        self._materialized: Dict[int, RouterState] = materialized
        self._pristine: Dict[int, RouterState] = pristine
        self._aggregated = aggregated
        self._stubs: "_StubViews" = stubs
        #: Providers whose advertised_to still lacks its stub entries.
        self._pending = pending
        self._patch = patch

    def __getitem__(self, asn: int) -> RouterState:
        state = self._materialized.get(asn)
        if state is not None:
            if asn in self._pending:
                self._pending.discard(asn)
                self._patch(asn, state)
            return state
        if asn in self._aggregated:
            state = self._stubs.synth(asn) or self._pristine[asn]
            self._materialized[asn] = state
            return state
        return self._pristine[asn]

    def get(self, asn: int, default=None):
        # Defined here rather than inherited: Mapping.get wraps
        # __getitem__ in a Python-level try/except.
        if asn in self._pristine:
            return self[asn]
        return default

    def next_hops(self, asn: int) -> Optional[Tuple[int, List[int]]]:
        """``(best.learned_from, [r.learned_from for r in multipath])``
        of ``self[asn]``, or None when that state holds no route (or
        ``asn`` is not in the topology) — without building the state of
        an aggregated stub."""
        state = self._materialized.get(asn)
        if state is None:
            return self._stubs.choose(asn) if asn in self._aggregated else None
        return state.next_hops()

    def stub_choices(self):
        """:meth:`next_hops` of every pure stub at once — ``(best,
        tied)`` of :meth:`_StubViews.decide`."""
        return self._stubs.decide()[1:]

    def __iter__(self):
        return iter(self._pristine)

    def __len__(self) -> int:
        return len(self._pristine)

    def __eq__(self, other):
        if not isinstance(other, (Mapping, dict)):
            return NotImplemented
        if len(self) != len(other):
            return False
        getter = other.get
        missing = object()
        for asn in self._pristine:
            if getter(asn, missing) != self[asn]:
                return False
        return True

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None

    def __reduce__(self):
        return (dict, ({asn: self[asn] for asn in self._pristine},))


class _StubViews:
    """One run's aggregated stubs, decided from their providers' export
    episodes: all in one pass (:meth:`decide`), one (:meth:`choose`, a
    row of that pass), or one as a whole state (:meth:`synth`, whose
    ``best`` / ``multipath`` are :meth:`choose`'s) — one stub decision.

    A stub holds one offer per provider whose last export episode
    carries a path, each a ``make_route`` with origin code and MED 0,
    so the decision process (:func:`repro.bgp.decision.evaluate`) ranks
    them by ``(-local_pref, len(path), interior)`` (:func:`_stub_key`)
    and then, among strict ties of an AS that breaks ties on it, by
    arrival time — the event push's own ``t + delay + jitter``,
    ``math.log`` included; providers are columns in ASN order, so
    ``argmin`` and the tied set come out in neighbour-id order.
    """

    def __init__(self, internet, tables, prefix, overlay, ep_log, jitter, live):
        self.internet = internet
        self.tables = tables
        self.prefix = prefix
        self.overlay = overlay
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
        """``(key, best, tied)`` over the rows of ``StubColumns``: the
        packed keys, the chosen provider's column (-1 without an offer,
        :data:`LIVE` for a stub that was live this run) and whether
        several offers share the best key.  Computed on first use."""
        if self._decided is None:
            tables = self.tables
            cols = self.internet.stub_columns()
            stub_providers = tables.stub_providers
            # Path length per provider; the extra last slot is what the
            # padding's provider index -1 reads: no offer.
            length = np.zeros(len(tables.index_asn) + 1, dtype=np.int64)
            for provider, eps in self.ep_log.items():
                path = eps[-1][1]
                if path is not None:
                    length[tables.asn_index[provider]] = len(path)
            interior = cols.interior.copy()
            for (asn, neighbor), cost in self.overlay.items():
                row = cols.row.get(asn)
                if row is not None and neighbor in stub_providers[asn]:
                    interior[row, stub_providers[asn].index(neighbor)] = cost
            offered = length[cols.provider]
            key = _stub_key(cols.local_pref, offered, interior)
            key[offered == 0] = _NO_OFFER
            best = key.argmin(axis=1)
            low = key.min(axis=1)
            tied = (key == low[:, None]).sum(axis=1) > 1
            best[low == _NO_OFFER] = -1
            tied &= best >= 0
            stubs = tuple(cols.row)
            rows = np.flatnonzero(tied & cols.arrival_order)
            for row, lowest in zip(rows.tolist(), (key[rows] == low[rows, None]).tolist()):
                stub = stubs[row]
                providers = stub_providers[stub]
                best[row] = min(
                    (col for col, at_best in enumerate(lowest) if at_best),
                    key=lambda col: self.arrival(stub, providers[col]),
                )
            for stub in self.live:
                best[cols.row[stub]] = LIVE
            self._decided = key, best, tied
        return self._decided

    def choose(self, stub: int):
        """``(best provider, strict-tied providers)`` or None."""
        key, best, _ = self.decide()
        row = self.internet.stub_columns().row[stub]
        col = best[row]
        if col < 0:
            return None
        providers = self.tables.stub_providers[stub]
        return providers[col], [
            providers[c] for c in np.flatnonzero(key[row] == key[row, col]).tolist()
        ]

    def synth(self, stub: int) -> Optional[RouterState]:
        """The stub's state (None: the pristine one), ``==`` to the one
        a live speaker builds by simulation: per offering provider
        session what ``BGPSpeaker.receive_announcement`` stores (same
        import values, same route constructor)."""
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


class DeltaConverger:
    """The convergence core of one :class:`BGPEngine`.

    Owns a pool of *core* speaker sets (every AS except the aggregated
    stubs) plus the shared pristine states, both keyed to the graph's
    current :class:`~repro.topology.precompute.TopologyTables`.  Safe
    to share across executor threads: each run checks out its own
    speaker set.
    """

    def __init__(self, internet, prefix: str, origin_asn: int):
        # The engine's inputs, not the engine: a back-pointer makes a cycle
        # that keeps engine, cache and cached states alive until a gen-2 GC.
        self.internet = internet
        self.prefix = prefix
        self.origin_asn = origin_asn
        self._lock = threading.Lock()
        self._pool: List[Dict[int, BGPSpeaker]] = []
        self._pool_tables = None
        self._pristine: Dict[int, RouterState] = {}
        self._aggregated: frozenset = frozenset()
        self._pruned: Optional[_PrunedTables] = None
        #: provider ASN -> sorted tuple of its aggregated stub customers
        self._parents: Dict[int, Tuple[int, ...]] = {}
        #: provider ASN -> max one-way delay to any of its stubs (the
        #: jitter-free fast path for the convergence timestamp).
        self._parent_maxdelay: Dict[int, float] = {}
        #: Every aggregated (provider, stub) pair, flat, with its
        #: provider's dense index (``tables.asn_index``), jitter slot
        #: and one-way delay (the jittered path for the convergence
        #: timestamp).
        self._agg_pairs: List[Tuple[int, int]] = []
        self._agg_provider = self._agg_slot = self._agg_delay = np.empty(0)

    # -- per-topology state ---------------------------------------------

    def _rebuild(self, tables):
        """Recompute aggregation structures for a new tables revision.
        Caller holds the lock."""
        graph = self.internet.graph
        self._pool = []
        self._pool_tables = tables
        self._pristine = {asn: RouterState(asn) for asn in graph.asns()}
        aggregated = frozenset(tables.stub_providers)
        self._aggregated = aggregated
        parents: Dict[int, List[int]] = {}
        for stub in aggregated:
            for provider in tables.stub_providers[stub]:
                parents.setdefault(provider, []).append(stub)
        self._parents = {p: tuple(sorted(s)) for p, s in parents.items()}
        prop_delay = tables.prop_delay
        self._parent_maxdelay = {
            p: max(prop_delay[(p, s)] for s in stubs)
            for p, stubs in self._parents.items()
        }
        # Every session of an aggregated stub is with a provider, so
        # the pairs are exactly the directed links ending at one.
        pairs = [pair for pair in tables.pair_slot if pair[1] in aggregated]
        self._agg_pairs = pairs
        self._agg_provider = np.array([tables.asn_index[p] for p, _ in pairs], dtype=np.intp)
        self._agg_slot = np.array([tables.pair_slot[pair] for pair in pairs], dtype=np.intp)
        self._agg_delay = np.array([prop_delay[pair] for pair in pairs], dtype=np.float64)
        export_all = {
            asn: tuple(t for t in targets if t not in aggregated)
            for asn, targets in tables.export_all.items()
            if asn not in aggregated
        }
        export_customers = {
            asn: tuple(t for t in targets if t not in aggregated)
            for asn, targets in tables.export_customers.items()
            if asn not in aggregated
        }
        self._pruned = _PrunedTables(
            tables.session_import, export_all, export_customers
        )

    def _checkout(self, tables, igp_overlay):
        graph = self.internet.graph
        with self._lock:
            if self._pool_tables is not tables:
                self._rebuild(tables)
            speakers = self._pool.pop() if self._pool else None
        aggregated = self._aggregated
        if speakers is None:
            prefix = self.prefix
            pruned = self._pruned
            speakers = {
                asn: BGPSpeaker(graph.as_of(asn), prefix, pruned, igp_overlay)
                for asn in graph.asns()
                if asn not in aggregated
            }
        else:
            overlay = igp_overlay or {}
            for sp in speakers.values():
                sp.igp_overlay = overlay
        return speakers, aggregated

    def _release(self, speakers, tables):
        with self._lock:
            if self._pool_tables is tables:
                self._pool.append(speakers)

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
        graph = self.internet.graph
        tables = graph.tables()
        speakers, aggregated = self._checkout(tables, igp_overlay)
        prop_delay = tables.prop_delay
        jitter_get = jitter.get

        # A stub must be live even if it would normally aggregate when
        # it hosts an injection or withdrawal (it exports toward its
        # providers) or when an announced path names it (poison entries
        # and the origin: the export loop skips a target inside the
        # path).  No stub left aggregated can then appear in any path.
        named = {self.origin_asn}
        for inj in injections:
            named.add(inj.host_asn)
            named.update(inj.poison)
        named.update(wd.host_asn for wd in withdrawals)
        extra: Dict[int, BGPSpeaker] = {}
        agg = aggregated
        live_stubs = named & aggregated
        patched: List[Tuple[BGPSpeaker, object]] = []
        #: Per-run override of a provider's aggregated-stub list when
        #: some of its stubs are live this run.
        stubs_run: Dict[int, Tuple[int, ...]] = {}
        if live_stubs:
            agg = aggregated - live_stubs
            prefix = self.prefix
            extra = {
                asn: BGPSpeaker(graph.as_of(asn), prefix, tables, igp_overlay)
                for asn in live_stubs
            }
            affected: Dict[int, set] = {}
            for stub in live_stubs:
                for provider in tables.stub_providers[stub]:
                    affected.setdefault(provider, set()).add(stub)
            for provider, live_of in affected.items():
                spk = speakers[provider]
                run_tables = _RunExport(
                    tables.session_import,
                    tuple(t for t in tables.export_all[provider] if t not in agg),
                    tuple(t for t in tables.export_customers[provider] if t not in agg),
                )
                patched.append((spk, spk._tables))
                spk._tables = run_tables
                stubs_run[provider] = tuple(
                    s for s in self._parents.get(provider, ()) if s not in live_of
                )

        counter = itertools.count()
        next_seq = counter.__next__
        heap: List[Tuple[float, int, str, int, int, Optional[Tuple[int, ...]], int]] = []
        for inj in injections:
            heapq.heappush(
                heap,
                (inj.announce_time_ms, next_seq(), "inject", inj.host_asn, inj.site_id, None, 0),
            )
        for wd in withdrawals:
            heapq.heappush(
                heap,
                (wd.withdraw_time_ms, next_seq(), "uninject", wd.host_asn, wd.site_id, None, 0),
            )
        inj_by_key = {(inj.host_asn, inj.site_id): inj for inj in injections}

        # ep_log holds, per provider, the export episodes (time, export
        # path or None) its aggregated stubs would have received.
        ep_log: Dict[int, List[Tuple[float, Optional[Tuple[int, ...]]]]] = {}
        agg_est = 0  # running upper bound on aggregated deliveries
        parents_get = self._parents.get
        stubs_run_get = stubs_run.get
        touched = set()
        touched_add = touched.add
        messages = 0
        last_time = 0.0
        events = 0
        origin_asn = self.origin_asn
        heappop = heapq.heappop
        heappush = heapq.heappush
        while heap:
            time_ms, _, kind, receiver, sender, as_path, med = heappop(heap)
            events += 1
            if events + agg_est > budget:
                raise ConvergenceBudgetError(
                    budget, events + agg_est, len(touched), time_ms
                )
            last_time = time_ms
            touched_add(receiver)
            speaker = speakers.get(receiver)
            if speaker is None:
                speaker = extra[receiver]
            old_best = speaker.state.best
            if kind == "announce":
                messages += 1
                out = speaker.receive_announcement(sender, as_path, med, time_ms)
            elif kind == "withdraw":
                messages += 1
                out = speaker.receive_withdrawal(sender)
            elif kind == "inject":
                inj = inj_by_key[(receiver, sender)]
                out = speaker.inject(
                    origin_asn,
                    inj.rel_from_host,
                    SitePop(inj.site_id, inj.pop_id, inj.link_rtt_ms),
                    time_ms,
                    prepend=inj.prepend,
                    poison=inj.poison,
                )
            elif kind == "uninject":
                out = speaker.withdraw_injection(origin_asn, sender)
            else:  # pragma: no cover - defensive
                raise ReproError(f"unknown event kind {kind!r}")

            stubs_p = parents_get(receiver)
            if stubs_p is not None:
                # Export-episode detection: mirror _export_updates for
                # the pruned stub targets.  An episode happens exactly
                # when the best route materially changes to a new
                # export path (or is withdrawn while stubs hold one).
                new_best = speaker.state.best
                if new_best is not old_best:
                    run_stubs = stubs_run_get(receiver, stubs_p)
                    if run_stubs:
                        eps = ep_log.get(receiver)
                        if new_best is None:
                            if eps and eps[-1][1] is not None:
                                eps.append((time_ms, None))
                                agg_est += len(run_stubs)
                        elif not (
                            old_best is not None
                            and new_best.as_path == old_best.as_path
                            and new_best.learned_from == old_best.learned_from
                            and new_best.med == old_best.med
                            and new_best.origin_code == old_best.origin_code
                        ):
                            export_path = (receiver,) + new_best.as_path
                            if eps is None:
                                ep_log[receiver] = eps = []
                            if not eps or eps[-1][1] != export_path:
                                eps.append((time_ms, export_path))
                                agg_est += len(run_stubs)

            for update in out:
                neighbor = update.neighbor
                pair = (receiver, neighbor)
                arrive = time_ms + prop_delay[pair] + jitter_get(pair, 0.0)
                path = update.as_path
                if path is None:
                    heappush(heap, (arrive, next_seq(), "withdraw", neighbor, receiver, None, 0))
                else:
                    heappush(heap, (arrive, next_seq(), "announce", neighbor, receiver, path, update.med))

        for spk, orig in patched:
            spk._tables = orig

        # -- aggregated-delivery accounting -------------------------------
        # Exact counts and the last aggregated arrival, from episode
        # arithmetic: every aggregated stub receives every episode.
        # Arrivals are computed as (episode time + delay) + jitter,
        # matching the push expression above term for term so the
        # convergence timestamp is bit-equal.
        agg_count = 0
        agg_last = 0.0
        parents = self._parents
        maxdelay = self._parent_maxdelay
        jittered = bool(jitter)
        #: Jittered runs: last episode time, by dense AS index, of each
        #: provider whose whole stub set is aggregated (-inf elsewhere).
        t_last_of = None
        for provider, eps in ep_log.items():
            stubs = stubs_run_get(provider)
            full_set = stubs is None
            if full_set:
                stubs = parents[provider]
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
            jit = jitter.estimate(self._agg_slot)
            estimate = (t_last_of[self._agg_provider] + self._agg_delay) + jit
            best = estimate.max()
            margin = _ARRIVAL_MARGIN * (abs(best) + jit.max())
            pairs = self._agg_pairs
            for i in (estimate >= best - margin).nonzero()[0].tolist():
                pair = pairs[i]
                arrive = ep_log[pair[0]][-1][0] + prop_delay[pair] + jitter_get(pair, 0.0)
                if arrive > agg_last:
                    agg_last = arrive

        # -- detach touched states (copy-on-restore) ----------------------
        materialized: Dict[int, RouterState] = {}
        pristine = self._pristine
        for asn in touched:
            sp = speakers.get(asn)
            if sp is None:
                sp = extra[asn]
            st = sp.state
            if st.adj_rib_in or st.advertised_to or st.best is not None or st.multipath:
                materialized[asn] = st
                sp.state = RouterState(asn)
            else:
                materialized[asn] = pristine[asn]
        self._release(speakers, tables)

        states = LazyStates(
            materialized,
            pristine,
            agg,
            _StubViews(
                self.internet, tables, self.prefix, igp_overlay or {}, ep_log, jitter, live_stubs
            ),
            set(ep_log),
            self._make_patch(ep_log, stubs_run),
        )
        last_time = max(last_time, agg_last)
        messages += agg_count
        events += agg_count
        return states, last_time, messages, events

    def _make_patch(self, ep_log, stubs_run):
        """The provider ``advertised_to`` patcher: re-adds the entries
        the pruned export base never wrote, value-equal to the route
        the speaker's export loop shares across its targets."""
        parents = self._parents
        stubs_run_get = stubs_run.get
        prefix = self.prefix

        def patch(provider: int, state: RouterState) -> None:
            eps = ep_log.get(provider)
            if not eps:
                return
            stubs = stubs_run_get(provider)
            if stubs is None:
                stubs = parents[provider]
            _t, path = eps[-1]
            if path is None:
                return
            route = make_route(prefix, path, provider, 0)
            advertised = state.advertised_to
            for stub in stubs:
                advertised[stub] = route

        return patch
