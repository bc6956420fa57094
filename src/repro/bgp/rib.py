"""Per-AS routing state: Adj-RIB-In, Loc-RIB, and export bookkeeping.

:class:`RouterState` is one object per AS holding
:class:`~repro.bgp.messages.Route` objects, built from a run's record
when first read and read by ``bgp.explain``.  The data plane reads only
where an AS forwards (:meth:`RouterState.next_hops`, which the record
answers without a state): :mod:`repro.bgp.dataplane` turns those
answers into its per-deployment forwarding table.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bgp.messages import Route


@dataclass
class RouterState:
    """The BGP state of one AS for one prefix: a run's record of the AS
    as read (:class:`~repro.bgp.delta.LazyStates`), or an oracle's.

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

    def next_hops(self) -> Optional[Tuple[int, List[int]]]:
        """Where this AS forwards: the neighbour its best route was
        learned from (the anycast origin ASN for an injected route)
        and the neighbours of its multipath set, in that set's order;
        None without a route."""
        best = self.best
        if best is None:
            return None
        return best.learned_from, [route.learned_from for route in self.multipath]
