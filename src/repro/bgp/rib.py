"""Per-AS routing state: Adj-RIB-In, Loc-RIB, and export bookkeeping.

Two representations live here.  :class:`RouterState` is the reference:
one object per AS holding :class:`~repro.bgp.messages.Route` objects,
used by the engine, ``bgp.explain``, and the data plane.
:class:`ColumnarRib` is a struct-of-arrays view of one *converged*
state — numpy columns over the sorted-ASN dense index space of
:class:`~repro.topology.precompute.TopologyTables` — for bulk
consumers (scale benchmarks, catchment sweeps) that would otherwise
walk hundreds of thousands of Python objects.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as _np

from repro.bgp.messages import Route


@dataclass
class RouterState:
    """The BGP state of one AS for one prefix.

    Attributes:
        asn: the AS this state belongs to.
        adj_rib_in: best-known route per sending neighbor (keyed by
            neighbor ASN; an injected route is keyed by the anycast
            origin ASN).
        best: the Loc-RIB winner, or None.
        multipath: routes tied through the MED step, used by
            multipath-enabled ASes for per-flow load balancing.
        advertised_to: the route last advertised to each neighbor, so
            export-set changes generate the right withdrawals.
    """

    asn: int
    adj_rib_in: Dict[int, Route] = field(default_factory=dict)
    best: Optional[Route] = None
    multipath: List[Route] = field(default_factory=list)
    advertised_to: Dict[int, Route] = field(default_factory=dict)

    def routes(self) -> List[Route]:
        """All candidate routes currently known."""
        return list(self.adj_rib_in.values())

    def has_route(self) -> bool:
        return self.best is not None


class ColumnarRib:
    """Columnar view of one converged state: numpy arrays over the
    sorted-ASN dense index space.

    Column ``i`` describes the best route of ``tables.index_asn[i]``:

    - ``has_route``: bool, whether the AS holds any route;
    - ``best_neighbor``: the ASN the best route was learned from
      (the anycast origin ASN at injection hosts; -1 without a route);
    - ``local_pref`` / ``path_len`` / ``med``: the decision-process
      columns of the best route (0 without a route);
    - ``next_index``: dense index of the next AS toward the anycast
      origin — the AS's own index at injection hosts (terminal), -1
      without a route.  This is what makes whole-topology catchment
      resolution a handful of vectorized pointer jumps
      (:meth:`host_of`) instead of one Python walk per AS.

    The object :class:`RouterState` remains the reference (and the
    representation ``bgp.explain`` and the data plane read); the
    columns are derived from it.  Engine results synthesize
    aggregated stubs lazily on first read, so building the columns
    works identically over a plain dict or a
    :class:`~repro.bgp.delta.LazyStates`.
    """

    __slots__ = (
        "index_asn", "asn_index", "has_route", "best_neighbor",
        "local_pref", "path_len", "med", "next_index",
    )

    def __init__(self, index_asn, asn_index, has_route, best_neighbor,
                 local_pref, path_len, med, next_index):
        self.index_asn = index_asn
        self.asn_index = asn_index
        self.has_route = has_route
        self.best_neighbor = best_neighbor
        self.local_pref = local_pref
        self.path_len = path_len
        self.med = med
        self.next_index = next_index

    @classmethod
    def from_converged(cls, converged, tables) -> "ColumnarRib":
        """Build the columns from a :class:`ConvergedState
        <repro.bgp.engine.ConvergedState>` and its topology tables."""
        index_asn = tables.index_asn
        asn_index = tables.asn_index
        n = len(index_asn)
        has_route = _np.zeros(n, dtype=bool)
        best_neighbor = _np.full(n, -1, dtype=_np.int64)
        local_pref = _np.zeros(n, dtype=_np.int64)
        path_len = _np.zeros(n, dtype=_np.int64)
        med = _np.zeros(n, dtype=_np.int64)
        next_index = _np.full(n, -1, dtype=_np.int64)

        states = converged.states
        for asn, state in states.items():
            best = state.best
            if best is None:
                continue
            i = asn_index[asn]
            has_route[i] = True
            best_neighbor[i] = best.learned_from
            local_pref[i] = best.local_pref
            path_len[i] = len(best.as_path)
            med[i] = best.med
            if best.site_pops or best.learned_from == converged.origin_asn:
                next_index[i] = i  # injection host: the walk terminates here
            else:
                next_index[i] = asn_index[best.learned_from]
        return cls(index_asn, asn_index, has_route, best_neighbor,
                   local_pref, path_len, med, next_index)

    def host_of(self):
        """Per-AS dense index of the injection host its best-route
        chain terminates at (-1 without a route), resolved for every
        AS at once by pointer doubling: each jump squares the distance
        covered, so internet-scale topologies settle in ~log2(path
        length) vectorized passes."""
        nxt = self.next_index.copy()
        for _ in range(64):
            mask = nxt >= 0
            jumped = nxt.copy()
            jumped[mask] = nxt[nxt[mask]]
            # A hop into a routeless AS cannot happen at quiescence;
            # treat it as terminal rather than corrupt the walk.
            bad = mask & (jumped < 0)
            jumped[bad] = nxt[bad]
            if _np.array_equal(jumped, nxt):
                break
            nxt = jumped
        return nxt

    def host_asn_of(self):
        """Like :meth:`host_of` but in ASN space (-1 without a route)."""
        hosts = self.host_of()
        asns = _np.asarray(self.index_asn, dtype=_np.int64)
        out = _np.full(len(hosts), -1, dtype=_np.int64)
        mask = hosts >= 0
        out[mask] = asns[hosts[mask]]
        return out
