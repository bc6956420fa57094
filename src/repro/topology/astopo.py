"""AS-level topology with Gao-Rexford business relationships.

The graph is the substrate over which :mod:`repro.bgp` propagates
anycast announcements.  Each AS is a node; each inter-AS link carries a
directional business relationship (customer/provider or peer/peer), a
data-plane latency contribution, and a control-plane propagation delay
used to model BGP advertisement arrival times (the paper's S4.2
arrival-order tie-breaking depends on these).
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.topology.geo import GeoPoint
from repro.util.errors import TopologyError


class Relationship(enum.Enum):
    """How a neighbor relates to an AS, from that AS's point of view.

    ``rel(a, b) == Relationship.PROVIDER`` reads "b is a's provider".
    """

    CUSTOMER = "customer"
    PROVIDER = "provider"
    PEER = "peer"

    def inverse(self) -> "Relationship":
        """The same link seen from the other side.

        >>> Relationship.CUSTOMER.inverse()
        <Relationship.PROVIDER: 'provider'>
        >>> Relationship.PEER.inverse()
        <Relationship.PEER: 'peer'>
        """
        if self is Relationship.CUSTOMER:
            return Relationship.PROVIDER
        if self is Relationship.PROVIDER:
            return Relationship.CUSTOMER
        return Relationship.PEER


@dataclass
class AS:
    """An autonomous system.

    Attributes:
        asn: AS number; unique within a graph.
        tier: 1 for tier-1 transit-free networks, 2 for regional
            transits, 3 for stub/client networks.
        location: primary geographic location (single-PoP ASes).
        name: optional human-readable name ("Telia", ...).
        multipath: if True, this AS load-balances across equally good
            BGP routes instead of picking one, which breaks consistent
            pairwise preferences downstream (paper S4.2).
        policy_deviant: if True, this AS assigns per-neighbor local
            preferences that ignore business relationships, producing
            the cyclic-preference scenario of paper Figure 3.
        arrival_order_tiebreak: if True (the common deployed behaviour,
            per Cisco/Juniper documentation cited in the paper), ties
            surviving the standard decision steps are broken in favour
            of the advertisement that arrived first; if False the
            router falls straight through to the neighbor-id tie-break.
        deviant_prefs: local-preference override per neighbor ASN, only
            consulted when ``policy_deviant`` is set.
        hosts_clients: True when the AS contains client networks worth
            probing; content/infrastructure ASes (CDN caches, cloud
            regions) carry no ping targets, which is why a fraction of
            the paper's peers never attract a measurable catchment
            (S5.4: only 72 of 104 peering links reached any target).
    """

    asn: int
    tier: int
    location: GeoPoint
    name: str = ""
    multipath: bool = False
    policy_deviant: bool = False
    arrival_order_tiebreak: bool = True
    deviant_prefs: Dict[int, int] = field(default_factory=dict)
    hosts_clients: bool = True

    def __post_init__(self):
        if self.asn <= 0:
            raise TopologyError(f"ASN must be positive, got {self.asn}")
        if self.tier not in (1, 2, 3):
            raise TopologyError(f"tier must be 1, 2 or 3, got {self.tier}")


@dataclass
class Link:
    """An inter-AS link.

    Attributes:
        a, b: endpoint ASNs with ``a < b``.
        rtt_ms: round-trip data-plane latency contributed by crossing
            this link once in each direction.
        prop_delay_ms: one-way control-plane delay for a BGP update to
            cross this link (propagation + processing + MRAI effects).
        attach_pop: for a multi-PoP endpoint, the PoP id at which the
            other side attaches; keyed by the multi-PoP endpoint's ASN.
        igp_cost: the interior-routing cost each endpoint assigns to
            reaching this session's egress (BGP decision step 6,
            "lowest interior cost"); keyed by endpoint ASN.  Sessions
            with equal costs at an AS fall through to the
            arrival-order tie-break.
    """

    a: int
    b: int
    rtt_ms: float
    prop_delay_ms: float
    attach_pop: Dict[int, int] = field(default_factory=dict)
    igp_cost: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.a == self.b:
            raise TopologyError(f"self-link on AS {self.a}")
        if self.a > self.b:
            raise TopologyError("Link endpoints must satisfy a < b")
        if self.rtt_ms < 0 or self.prop_delay_ms < 0:
            raise TopologyError("link latencies must be non-negative")

    def other(self, asn: int) -> int:
        """The endpoint that is not ``asn``."""
        if asn == self.a:
            return self.b
        if asn == self.b:
            return self.a
        raise TopologyError(f"AS {asn} is not an endpoint of {self}")


class ASGraph:
    """A mutable AS-level topology.

    The graph stores each link once and each relationship twice (one
    per direction), so lookups from either endpoint are O(1).
    """

    def __init__(self):
        self._ases: Dict[int, AS] = {}
        self._links: Dict[FrozenSet[int], Link] = {}
        self._rels: Dict[Tuple[int, int], Relationship] = {}
        self._adj: Dict[int, List[int]] = {}
        #: Bumped on every structural mutation; versions the derived tables.
        self._revision = 0
        self._tables = None

    # -- construction --------------------------------------------------

    def add_as(self, node: AS) -> AS:
        """Add an AS to the graph; duplicate ASNs are rejected."""
        if node.asn in self._ases:
            raise TopologyError(f"duplicate ASN {node.asn}")
        self._ases[node.asn] = node
        self._adj[node.asn] = []
        self.invalidate_tables()
        return node

    def add_link(
        self,
        a: int,
        b: int,
        rel_of_b_from_a: Relationship,
        rtt_ms: float = 1.0,
        prop_delay_ms: float = 1.0,
        attach_pop: Optional[Dict[int, int]] = None,
        igp_cost: Optional[Dict[int, int]] = None,
    ) -> Link:
        """Connect ``a`` and ``b``; ``rel_of_b_from_a`` is b's role
        from a's perspective (PROVIDER means b sells transit to a)."""
        self._require(a)
        self._require(b)
        key = frozenset((a, b))
        if key in self._links:
            raise TopologyError(f"duplicate link {a}<->{b}")
        link = Link(
            min(a, b),
            max(a, b),
            rtt_ms,
            prop_delay_ms,
            dict(attach_pop or {}),
            dict(igp_cost or {}),
        )
        self._links[key] = link
        self._rels[(a, b)] = rel_of_b_from_a
        self._rels[(b, a)] = rel_of_b_from_a.inverse()
        self._adj[a].append(b)
        self._adj[b].append(a)
        self.invalidate_tables()
        return link

    def add_provider(self, customer: int, provider: int, **kwargs) -> Link:
        """Convenience: ``provider`` sells transit to ``customer``."""
        return self.add_link(customer, provider, Relationship.PROVIDER, **kwargs)

    def add_peering(self, a: int, b: int, **kwargs) -> Link:
        """Convenience: settlement-free peering between ``a`` and ``b``."""
        return self.add_link(a, b, Relationship.PEER, **kwargs)

    # -- derived tables -------------------------------------------------

    def invalidate_tables(self) -> None:
        """Drop the cached derived tables (see :meth:`tables`).

        Structural mutation calls this automatically; call it yourself
        after mutating AS or link attributes in place (``igp_cost``,
        ``deviant_prefs``, ...) once a table may already exist.
        """
        self._revision += 1
        self._tables = None

    def tables(self):
        """The graph's :class:`~repro.topology.precompute.TopologyTables`,
        built on first use and cached until the graph mutates.

        The BGP engine's fast path reads export sets, import
        preferences, interior costs, and propagation delays from here
        instead of re-deriving them per speaker per run.
        """
        cached = self._tables
        if cached is None or cached.revision != self._revision:
            from repro.topology.precompute import build_tables

            cached = build_tables(self, revision=self._revision)
            self._tables = cached
        return cached

    # -- queries --------------------------------------------------------

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    def __len__(self) -> int:
        return len(self._ases)

    @property
    def ases(self) -> Dict[int, AS]:
        """All ASes, keyed by ASN."""
        return self._ases

    def as_of(self, asn: int) -> AS:
        self._require(asn)
        return self._ases[asn]

    def asns(self) -> List[int]:
        return sorted(self._ases)

    def links(self) -> Iterable[Link]:
        return self._links.values()

    def neighbors(self, asn: int) -> List[int]:
        self._require(asn)
        return list(self._adj[asn])

    def rel(self, a: int, b: int) -> Relationship:
        """b's relationship from a's perspective."""
        try:
            return self._rels[(a, b)]
        except KeyError:
            raise TopologyError(f"no link between AS {a} and AS {b}") from None

    def has_link(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self._links

    def link(self, a: int, b: int) -> Link:
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise TopologyError(f"no link between AS {a} and AS {b}") from None

    def customers(self, asn: int) -> List[int]:
        return [n for n in self.neighbors(asn) if self.rel(asn, n) is Relationship.CUSTOMER]

    def providers(self, asn: int) -> List[int]:
        return [n for n in self.neighbors(asn) if self.rel(asn, n) is Relationship.PROVIDER]

    def peers(self, asn: int) -> List[int]:
        return [n for n in self.neighbors(asn) if self.rel(asn, n) is Relationship.PEER]

    def tier1_asns(self) -> List[int]:
        return sorted(a for a, n in self._ases.items() if n.tier == 1)

    def client_asns(self) -> List[int]:
        """ASes that represent client (stub) networks."""
        return sorted(a for a, n in self._ases.items() if n.tier == 3)

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError`.

        - tier-1 ASes have no providers (they are transit-free);
        - every non-tier-1 AS has at least one provider (so it can
          reach the default-free zone);
        - the tier-1 ASes form a full peering clique (the paper's
          assumption (a) in S4.1).
        """
        for asn, node in self._ases.items():
            if node.tier == 1 and self.providers(asn):
                raise TopologyError(f"tier-1 AS {asn} has a provider")
            if node.tier != 1 and not self.providers(asn):
                raise TopologyError(f"non-tier-1 AS {asn} has no provider")
        self.validate_tier1_clique()

    def validate_tier1_clique(self) -> None:
        """Check the paper's assumption (a) in S4.1 — every pair of
        tier-1 ASes peers — naming the first offending pair.

        AnyOpt's prediction theorems lean on this clique, so testbed
        construction calls it up front rather than letting a broken
        topology surface as a mispredicted catchment mid-campaign.
        """
        tier1 = self.tier1_asns()
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                if not self.has_link(a, b) or self.rel(a, b) is not Relationship.PEER:
                    raise TopologyError(
                        f"tier-1 ASes {a} and {b} are not peering; the "
                        "tier-1 clique assumption is violated"
                    )

    def _require(self, asn: int) -> None:
        if asn not in self._ases:
            raise TopologyError(f"unknown AS {asn}")
