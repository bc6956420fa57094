"""Synthetic Internet-like AS topology generation.

The generator builds the three-tier structure the paper's analysis
assumes (S4.1): a clique of settlement-free-peering tier-1 networks, a
layer of regional transit ASes, and a large population of multihomed
stub (client) ASes.  Everything is geographically embedded so that
data-plane latencies and IGP distances are meaningful, and every link
carries a seeded control-plane propagation delay so that BGP
advertisement *arrival order* is well defined (S4.2).
"""

import math

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.topology.astopo import AS, ASGraph, Link, Relationship
from repro.topology.geo import (
    CITIES,
    GeoPoint,
    city,
    great_circle_km,
    propagation_rtt_ms,
)
from repro.topology.intradomain import PopNetwork
from repro.util.errors import ReproError, TopologyError
from repro.util.rng import derive_rng, hash_prefix, stable_hash

#: Well-known tier-1 backbones; the first six are the paper's transit
#: providers (Table 1), in paper order.
TIER1_BACKBONES = [
    ("Telia", 1299),
    ("Zayo", 6461),
    ("TATA", 6453),
    ("GTT", 3257),
    ("NTT", 2914),
    ("Sparkle", 6762),
    ("Lumen", 3356),
    ("Cogent", 174),
    ("Telxius", 12956),
    ("Orange", 5511),
]

_TIER2_ASN_BASE = 20000
_STUB_ASN_BASE = 100000


@dataclass
class TopologyParams:
    """Knobs controlling the synthetic Internet.

    Defaults are sized so that a full testbed experiment suite runs in
    seconds; raise ``n_stub`` toward a few thousand for paper-scale
    client populations.
    """

    n_tier1: int = 8
    n_tier2: int = 48
    n_stub: int = 600
    tier1_pop_min: int = 8
    tier1_pop_max: int = 14
    tier2_peering_prob: float = 0.10
    stub_max_providers: int = 3
    #: Fraction of non-tier-1 ASes that load-balance over equal routes.
    multipath_fraction: float = 0.03
    #: Fraction of non-tier-1 ASes with relationship-ignoring local prefs.
    policy_deviant_fraction: float = 0.02
    #: Fraction of stub ASes that are content/infrastructure networks
    #: hosting no ping targets (they still route and can peer).
    content_stub_fraction: float = 0.25
    #: Fraction of ASes whose BGP sessions have *equal* interior (IGP)
    #: costs, so ties survive decision step 6 and reach the
    #: arrival-order tie-break; the rest break ties deterministically
    #: on interior cost, as most real routers do.
    #: Calibrated so that reversing a pairwise announcement flips the
    #: catchment of roughly 5-14% of targets, the band Figure 4a reports.
    igp_tie_fraction: float = 0.18
    #: Fraction of ASes whose routers break remaining ties on
    #: advertisement age (the Cisco/Juniper behaviour of S4.2); the
    #: rest fall straight through to the neighbor-id tie-break.  Set
    #: to 0.0 for the source-oblivious world of Theorems A.1/A.2.
    arrival_order_fraction: float = 1.0
    #: Mean of the exponential per-hop BGP processing delay (ms).
    bgp_processing_delay_ms: float = 25.0
    #: Extra per-link access latency added to data-plane RTT (ms).
    access_latency_ms: float = 1.5
    #: Per-provider list of city names that must appear as PoPs
    #: (used by the testbed so site cities exist inside providers).
    required_tier1_pops: Dict[str, List[str]] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_tier1 < 2:
            raise TopologyError("need at least two tier-1 ASes")
        if self.n_tier1 > len(TIER1_BACKBONES):
            raise TopologyError(
                f"at most {len(TIER1_BACKBONES)} tier-1 ASes supported"
            )
        for frac_name in (
            "multipath_fraction",
            "policy_deviant_fraction",
            "igp_tie_fraction",
            "arrival_order_fraction",
            "content_stub_fraction",
        ):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise TopologyError(f"{frac_name} must be in [0, 1]")


@dataclass
class ScaleSweepParams:
    """Knobs for internet-scale sweep topologies.

    Where :class:`TopologyParams` targets a paper-faithful testbed,
    this targets *size*: a tier-1 clique, regional tier-2 transit
    pools whose intra-region peering follows a Waxman model (nearby
    transits peer more often), IXP fabrics that full-mesh the transits
    nearest a handful of exchange cities, and a large stub population
    with a strong single-homing bias.  Stubs only buy transit (no
    peering, no customers of their own), so every one of them — multi-
    homed included — is a *pure stub* the delta engine aggregates out
    of the event heap; the simulated core is just the transit
    hierarchy and stays small while ``n_ases`` grows.
    """

    n_ases: int = 1000
    n_tier1: int = 8
    #: Fraction of ``n_ases`` that become regional tier-2 transits.
    tier2_fraction: float = 0.05
    #: Number of geographic regions the tier-2s are pooled into.
    regions: int = 6
    #: Waxman link-probability parameters for intra-region tier-2
    #: peering: ``P(u, v) = alpha * exp(-d(u, v) / (beta * L))`` with
    #: ``L`` the half-circumference of the Earth.
    waxman_alpha: float = 0.4
    waxman_beta: float = 0.2
    #: IXP fabrics: each picks an anchor city and full-meshes the
    #: ``ixp_size`` tier-2s nearest to it (cross-region shortcuts).
    ixp_count: int = 4
    ixp_size: int = 6
    #: Probability a stub buys transit from exactly one provider
    #: (multi-homed stubs still aggregate; the bias shapes realism,
    #: not the delta engine's reach).
    single_home_bias: float = 0.88
    stub_max_providers: int = 3
    content_stub_fraction: float = 0.25

    def __post_init__(self):
        if self.n_tier1 < 2:
            raise TopologyError("need at least two tier-1 ASes")
        if self.n_tier1 > len(TIER1_BACKBONES):
            raise TopologyError(
                f"at most {len(TIER1_BACKBONES)} tier-1 ASes supported"
            )
        if self.regions < 1:
            raise TopologyError("need at least one region")
        if self.ixp_count < 0 or self.ixp_size < 2 and self.ixp_count > 0:
            raise TopologyError("an IXP needs at least two members")
        for frac_name in (
            "tier2_fraction",
            "waxman_alpha",
            "single_home_bias",
            "content_stub_fraction",
        ):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise TopologyError(f"{frac_name} must be in [0, 1]")
        if self.waxman_beta <= 0.0:
            raise TopologyError("waxman_beta must be positive")
        if self.stub_max_providers < 1:
            raise TopologyError("stubs need at least one provider")
        n_tier2, n_stub = self.tier_counts()
        if n_stub < 1:
            raise TopologyError(
                f"n_ases={self.n_ases} leaves no room for stubs "
                f"({self.n_tier1} tier-1 + {n_tier2} tier-2)"
            )

    def tier_counts(self):
        """``(n_tier2, n_stub)`` implied by ``n_ases``."""
        n_tier2 = max(self.regions, int(self.n_ases * self.tier2_fraction))
        return n_tier2, self.n_ases - self.n_tier1 - n_tier2


class Hop(NamedTuple):
    """One inter-AS hop of a data-plane path (:meth:`Internet.hop`):
    the flow crosses its AS's backbone (``transit_ms``), then the link
    to ``next_asn`` (``link_ms``), and enters that AS at
    ``next_entry``."""

    next_asn: int
    transit_ms: float
    link_ms: float
    next_entry: Optional[int]


class TransitColumns(NamedTuple):
    """The static side of forwarding out of non-stub ASes
    (:meth:`Internet.transit_columns`): a node per ``(AS, entry PoP)``
    and at each a slot per neighbour that is not a pure stub."""

    #: ``(AS, entry PoP)`` -> node, and per node the pair
    node: Dict[Tuple[int, Optional[int]], int]
    nodes: List[Tuple[int, Optional[int]]]
    #: per AS in ASN order, neighbour -> slot offset (alike at its nodes)
    slot: Dict[int, Dict[int, int]]
    #: per node: its AS (position in ``slot``) and its first slot
    node_as: np.ndarray
    first_slot: np.ndarray
    #: per slot, the :class:`Hop`: the node it enters and both costs
    next_node: np.ndarray
    transit_ms: np.ndarray
    link_ms: np.ndarray


class StubColumns(NamedTuple):
    """What is static about a pure stub's first hop
    (:meth:`Internet.stub_columns`), as ``[provider, stub]`` arrays:
    stubs are ``TopologyTables.stub_providers`` in ASN order, and a
    stub's providers, in ASN order, fill the first rows of its column;
    the rest is padding.  A per-stub pass is then a few elementwise
    passes over contiguous rows, and ``array.take(col * stubs + at)``
    reads a stub's cell in provider row ``col``."""

    #: stub ASN -> its position on the stub axis
    position: Dict[int, int]
    #: the provider's ``TopologyTables.asn_index``; -1 in the padding
    provider: np.ndarray
    #: the session's part of the packed decision key
    #: (:func:`session_key` of its ``TopologyTables.session_import``)
    key: np.ndarray
    #: the provider-to-stub link's one-way delay and jitter slot
    #: (``TopologyTables.prop_delay`` / ``pair_slot``)
    delay: np.ndarray
    slot: np.ndarray
    #: the stub's :class:`Hop` toward the provider; ``node`` is the
    #: :class:`TransitColumns` node the flow arrives at
    transit_ms: np.ndarray
    link_ms: np.ndarray
    node: np.ndarray
    #: per stub: ``AS.multipath`` and ``AS.arrival_order_tiebreak``
    multipath: np.ndarray
    arrival_order: np.ndarray


def session_key(local_pref: np.ndarray, interior: np.ndarray) -> np.ndarray:
    """The part of a pure stub's strict decision key ``(-local_pref,
    len(path), interior)`` its session fixes: the key orders like the
    int64 ``session_key + (len(path) << 32)`` for a ``local_pref``
    below 2**18, an ``interior`` below 2**32 (checked here) and a path
    shorter than 2**12 (checked where the length is added)."""
    for values, bits in ((local_pref, 18), (interior, 32)):
        if values.min(initial=0) < 0 or values.max(initial=0) >> bits:
            raise ReproError("a stub's decision key does not fit its 64-bit packing")
    return interior - (local_pref << 44)


class Internet:
    """A generated Internet: AS graph plus per-AS PoP backbones."""

    def __init__(self, graph: ASGraph, pop_networks: Dict[int, PopNetwork], params: TopologyParams, seed):
        self.graph = graph
        self.pop_networks = pop_networks
        self.params = params
        self.seed = seed

    def pop_network(self, asn: int) -> Optional[PopNetwork]:
        """The PoP backbone of ``asn``, or None for single-PoP ASes."""
        return self.pop_networks.get(asn)

    def attach_pop(self, multi_pop_asn: int, neighbor_asn: int) -> int:
        """The PoP at which ``neighbor_asn`` attaches to a multi-PoP AS."""
        link = self.graph.link(multi_pop_asn, neighbor_asn)
        try:
            return link.attach_pop[multi_pop_asn]
        except KeyError:
            raise TopologyError(
                f"link {multi_pop_asn}<->{neighbor_asn} has no attachment "
                f"PoP recorded for AS {multi_pop_asn}"
            ) from None

    def entry_pop(self, asn: int, prev: Optional[int]) -> Optional[int]:
        """The PoP at which a flow arriving from ``prev`` enters the
        backbone of ``asn``; None for a single-PoP AS.  With ``prev``
        None the flow originates inside the AS and enters at the PoP
        nearest the AS's nominal location."""
        net = self.pop_networks.get(asn)
        if net is None or net.pop_count == 1:
            return None
        if prev is None:
            return net.nearest_pop(self.graph.as_of(asn).location)
        return self.attach_pop(asn, prev)

    def hop(self, asn: int, entry_pop: Optional[int], neighbor: int) -> Hop:
        """What it costs a flow that entered ``asn`` at ``entry_pop``
        (:meth:`entry_pop`) to leave for ``neighbor``, and where it
        enters ``neighbor``.  A pure function of the topology, so it is
        memoised on the graph's tables and dropped with them when the
        graph changes."""
        hops = self.graph.tables().hops
        key = (asn, entry_pop, neighbor)
        hop = hops.get(key)
        if hop is None:
            transit_ms = 0.0
            if entry_pop is not None:
                # Intra-AS backbone RTT for crossing a multi-PoP AS.
                transit_ms = self.pop_networks[asn].igp_rtt_ms(
                    entry_pop, self.attach_pop(asn, neighbor)
                )
            hop = hops[key] = Hop(
                neighbor,
                transit_ms,
                self.graph.link(asn, neighbor).rtt_ms,
                self.entry_pop(neighbor, asn),
            )
        return hop

    def transit_columns(self) -> TransitColumns:
        """Every :meth:`hop` out of an AS that is not a pure stub, as
        columns, kept on the graph's tables like :meth:`hop`; built by
        the first bulk probe (a deploy never asks)."""
        tables = self.graph.tables()
        if tables.transit_columns is None:
            stubs = tables.stub_providers
            slot = {
                asn: {n: k for k, n in enumerate(x for x in tables.export_all[asn] if x not in stubs)}
                for asn in tables.index_asn if asn not in stubs
            }
            node: Dict[Tuple[int, Optional[int]], int] = {}
            for asn in slot:
                for prev in tables.export_all[asn]:
                    node.setdefault((asn, self.entry_pop(asn, prev)), len(node))
            position = {asn: i for i, asn in enumerate(slot)}
            hops = [self.hop(asn, entry, n) for asn, entry in node for n in slot[asn]]
            tables.transit_columns = TransitColumns(
                node, list(node), slot, np.array([position[asn] for asn, _ in node], dtype=np.intp),
                np.cumsum([0] + [len(slot[asn]) for asn, _ in node], dtype=np.intp)[:-1],
                np.array([node[h.next_asn, h.next_entry] for h in hops], dtype=np.intp),
                np.array([h.transit_ms for h in hops]), np.array([h.link_ms for h in hops]),
            )
        return tables.transit_columns

    def stub_columns(self) -> StubColumns:
        """The first hop of every pure stub toward each of its
        providers, as columns, kept like :meth:`transit_columns`."""
        tables = self.graph.tables()
        if tables.stub_columns is None:
            transit = self.transit_columns()
            providers = tables.stub_providers
            stubs = sorted(providers)
            shape = (max(map(len, providers.values()), default=1), len(stubs))
            provider = np.full(shape, -1, dtype=np.intp)
            local_pref, interior, node, slot = np.zeros((4,) + shape, dtype=np.int64)
            delay, transit_ms, link_ms = np.zeros((3,) + shape)
            for i, stub in enumerate(stubs):
                entry = self.entry_pop(stub, None)
                for col, asn in enumerate(providers[stub]):
                    at = col, i
                    provider[at] = tables.asn_index[asn]
                    local_pref[at], interior[at], _ = tables.session_import[stub, asn]
                    delay[at], slot[at] = tables.prop_delay[asn, stub], tables.pair_slot[asn, stub]
                    _, transit_ms[at], link_ms[at], there = self.hop(stub, entry, asn)
                    node[at] = transit.node[asn, there]
            ases = [self.graph.as_of(stub) for stub in stubs]
            tables.stub_columns = StubColumns(
                {stub: i for i, stub in enumerate(stubs)}, provider,
                session_key(local_pref, interior), delay, slot, transit_ms, link_ms, node,
                np.array([a.multipath for a in ases], dtype=bool),
                np.array([a.arrival_order_tiebreak for a in ases], dtype=bool),
            )
        return tables.stub_columns

    def tier1_by_name(self, name: str) -> int:
        for asn, node in self.graph.ases.items():
            if node.tier == 1 and node.name == name:
                return asn
        raise TopologyError(f"no tier-1 AS named {name!r}")


def generate_internet(params: Optional[TopologyParams] = None, seed=0) -> Internet:
    """Generate a synthetic Internet.

    The same ``(params, seed)`` pair always yields an identical
    topology, including link delays and AS behaviour flags.
    """
    params = params or TopologyParams()
    graph = ASGraph()
    pop_networks: Dict[int, PopNetwork] = {}
    city_names = sorted(CITIES)

    rng_place = derive_rng(seed, "placement")
    rng_pops = derive_rng(seed, "pops")
    rng_links = derive_rng(seed, "links")
    rng_flags = derive_rng(seed, "flags")
    rng_delay = derive_rng(seed, "bgp-delays")

    # --- tier-1 clique ------------------------------------------------
    tier1_asns: List[int] = []
    for name, asn in TIER1_BACKBONES[: params.n_tier1]:
        pop_cities = _tier1_pop_cities(name, params, rng_pops, city_names)
        pops = [city(c) for c in pop_cities]
        node = AS(asn=asn, tier=1, location=pops[0], name=name)
        graph.add_as(node)
        pop_networks[asn] = PopNetwork(asn, pops, derive_rng(seed, "backbone", asn))
        tier1_asns.append(asn)

    for i, a in enumerate(tier1_asns):
        for b in tier1_asns[i + 1:]:
            _link_tier1_pair(graph, pop_networks, a, b, params, rng_delay)
    tier1 = tuple(tier1_asns)
    rows: Dict = {}  # _proximity_sample's weight rows, for this generation

    # --- tier-2 regional transits --------------------------------------
    tier2_asns: List[int] = []
    for idx in range(params.n_tier2):
        asn = _TIER2_ASN_BASE + idx
        loc = city(rng_place.choice(city_names))
        graph.add_as(AS(asn=asn, tier=2, location=loc, name=f"transit-{idx}"))
        tier2_asns.append(asn)
        n_providers = rng_links.randint(1, min(3, len(tier1_asns)))
        for provider in _proximity_sample(rng_links, tier1, graph, pop_networks, loc, n_providers, rows):
            _link_customer_to_provider(graph, pop_networks, asn, provider, params, rng_delay)

    for i, a in enumerate(tier2_asns):
        for b in tier2_asns[i + 1:]:
            if rng_links.random() < params.tier2_peering_prob:
                _link_single_pop_pair(graph, a, b, Relationship.PEER, params, rng_delay)

    # --- stub (client) ASes ---------------------------------------------
    tier2 = tuple(tier2_asns)
    rng_content = derive_rng(seed, "content-stubs")
    for idx in range(params.n_stub):
        asn = _STUB_ASN_BASE + idx
        loc = city(rng_place.choice(city_names))
        is_content = rng_content.random() < params.content_stub_fraction
        graph.add_as(
            AS(
                asn=asn,
                tier=3,
                location=loc,
                name=f"{'content' if is_content else 'stub'}-{idx}",
                hosts_clients=not is_content,
            )
        )
        n_providers = rng_links.randint(1, params.stub_max_providers)
        # Stubs buy transit mostly from tier-2s, sometimes directly
        # from a tier-1 (as many large eyeball networks do).
        candidates = tier2 if rng_links.random() < 0.8 else tier1
        for provider in _proximity_sample(rng_links, candidates, graph, pop_networks, loc, n_providers, rows):
            _link_customer_to_provider(graph, pop_networks, asn, provider, params, rng_delay)

    _assign_costs_and_flags(graph, params, seed, rng_flags)

    graph.validate()
    return Internet(graph, pop_networks, params, seed)


def _assign_costs_and_flags(graph: ASGraph, params: TopologyParams, seed, rng_flags) -> None:
    """Interior costs and per-AS behaviour flags (shared generator tail)."""
    # A "tie-prone" AS (e.g. all sessions at one PoP) has equal IGP
    # costs everywhere, so equally-good routes reach the arrival-order
    # tie-break; other ASes break such ties deterministically here.
    rng_igp = derive_rng(seed, "igp-costs")
    igp = hash_prefix(seed, "igp")
    for asn in graph.asns():
        tie_prone = rng_igp.random() < params.igp_tie_fraction
        for neighbor in graph.neighbors(asn):
            link = graph.link(asn, neighbor)
            if tie_prone:
                link.igp_cost[asn] = 0
            else:
                link.igp_cost[asn] = 1 + stable_hash(asn, neighbor, prefix=igp) % 1_000_000

    rng_arrival = derive_rng(seed, "arrival-order")
    for asn in graph.asns():
        graph.as_of(asn).arrival_order_tiebreak = (
            rng_arrival.random() < params.arrival_order_fraction
        )
    non_tier1 = [asn for asn in graph.asns() if graph.as_of(asn).tier != 1]
    for asn in non_tier1:
        node = graph.as_of(asn)
        if rng_flags.random() < params.multipath_fraction:
            node.multipath = True
        elif rng_flags.random() < params.policy_deviant_fraction:
            node.policy_deviant = True
            node.deviant_prefs = {
                neighbor: rng_flags.randint(50, 350)
                for neighbor in graph.neighbors(asn)
            }


def generate_scale_internet(params: Optional[ScaleSweepParams] = None, seed=0) -> Internet:
    """Generate an internet-scale sweep topology.

    Deterministic in ``(params, seed)`` like :func:`generate_internet`.
    The returned :class:`Internet` carries a :class:`TopologyParams`
    in ``.params`` (so downstream consumers keep working) and the
    sweep knobs in ``.scale_params``.

    Structure: tier-1 peering clique (the AS-graph validator requires
    one), regional tier-2 pools with Waxman intra-region peering, IXP
    full-meshes anchored at exchange cities, and stubs homed into
    their region's transit pool with ``single_home_bias`` controlling
    how many are degree-1 customers (= aggregatable by the delta
    engine's stub aggregation).
    """
    params = params or ScaleSweepParams()
    n_tier2, n_stub = params.tier_counts()
    # The behaviour fractions the scale sweep inherits; sized like the
    # testbed defaults so per-AS policy is comparable across scales.
    base = TopologyParams(
        n_tier1=params.n_tier1,
        n_tier2=n_tier2,
        n_stub=n_stub,
        stub_max_providers=params.stub_max_providers,
        content_stub_fraction=params.content_stub_fraction,
    )
    graph = ASGraph()
    pop_networks: Dict[int, PopNetwork] = {}
    city_names = sorted(CITIES)

    rng_place = derive_rng(seed, "scale-placement")
    rng_pops = derive_rng(seed, "pops")
    rng_links = derive_rng(seed, "scale-links")
    rng_flags = derive_rng(seed, "flags")
    rng_delay = derive_rng(seed, "bgp-delays")

    # --- tier-1 clique ------------------------------------------------
    tier1_asns: List[int] = []
    for name, asn in TIER1_BACKBONES[: params.n_tier1]:
        pop_cities = _tier1_pop_cities(name, base, rng_pops, city_names)
        pops = [city(c) for c in pop_cities]
        node = AS(asn=asn, tier=1, location=pops[0], name=name)
        graph.add_as(node)
        pop_networks[asn] = PopNetwork(asn, pops, derive_rng(seed, "backbone", asn))
        tier1_asns.append(asn)
    for i, a in enumerate(tier1_asns):
        for b in tier1_asns[i + 1:]:
            _link_tier1_pair(graph, pop_networks, a, b, base, rng_delay)
    tier1 = tuple(tier1_asns)
    rows: Dict = {}  # _proximity_sample's weight rows, for this generation

    # --- regional tier-2 pools ----------------------------------------
    anchors = [city(c) for c in rng_place.sample(city_names, params.regions)]
    # Each region draws tier-2/stub locations from the cities nearest
    # its anchor, so Waxman distances and provider proximity mean
    # something.
    region_cities: List[List[str]] = []
    for anchor in anchors:
        ranked = sorted(
            city_names, key=lambda c: great_circle_km(city(c), anchor)
        )
        region_cities.append(ranked[: max(6, len(city_names) // params.regions)])

    region_pools: List[List[int]] = [[] for _ in range(params.regions)]
    tier2_asns: List[int] = []
    for idx in range(n_tier2):
        region = idx % params.regions
        asn = _TIER2_ASN_BASE + idx
        loc = city(rng_place.choice(region_cities[region]))
        graph.add_as(AS(asn=asn, tier=2, location=loc, name=f"transit-r{region}-{idx}"))
        tier2_asns.append(asn)
        region_pools[region].append(asn)
        n_providers = rng_links.randint(1, min(2, len(tier1_asns)))
        for provider in _proximity_sample(rng_links, tier1, graph, pop_networks, loc, n_providers, rows):
            _link_customer_to_provider(graph, pop_networks, asn, provider, base, rng_delay)

    # Waxman peering inside each region: nearby transits peer more
    # often — P = alpha * exp(-d / (beta * L)).
    half_circumference_km = 20015.0
    peered = set()
    for pool in region_pools:
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                d = great_circle_km(graph.as_of(a).location, graph.as_of(b).location)
                p = params.waxman_alpha * math.exp(
                    -d / (params.waxman_beta * half_circumference_km)
                )
                if rng_links.random() < p:
                    _link_single_pop_pair(graph, a, b, Relationship.PEER, base, rng_delay)
                    peered.add((a, b))

    # --- IXP fabrics ---------------------------------------------------
    # Each exchange full-meshes the transits nearest its anchor city,
    # cutting cross-region paths the way real IXPs do.
    for ixp in range(params.ixp_count):
        anchor = city(rng_place.choice(city_names))
        members = sorted(
            tier2_asns,
            key=lambda asn: great_circle_km(graph.as_of(asn).location, anchor),
        )[: params.ixp_size]
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                pair = (a, b) if a < b else (b, a)
                if pair in peered:
                    continue
                _link_single_pop_pair(graph, a, b, Relationship.PEER, base, rng_delay)
                peered.add(pair)

    # --- stubs ---------------------------------------------------------
    pools = [tuple(pool) for pool in region_pools]
    rng_content = derive_rng(seed, "content-stubs")
    for idx in range(n_stub):
        region = rng_place.randrange(params.regions)
        asn = _STUB_ASN_BASE + idx
        loc = city(rng_place.choice(region_cities[region]))
        is_content = rng_content.random() < params.content_stub_fraction
        graph.add_as(
            AS(
                asn=asn,
                tier=3,
                location=loc,
                name=f"{'content' if is_content else 'stub'}-{idx}",
                hosts_clients=not is_content,
            )
        )
        if rng_links.random() < params.single_home_bias:
            n_providers = 1
        else:
            n_providers = rng_links.randint(2, max(2, params.stub_max_providers))
        candidates = pools[region] if rng_links.random() < 0.9 else tier1
        for provider in _proximity_sample(rng_links, candidates, graph, pop_networks, loc, n_providers, rows):
            _link_customer_to_provider(graph, pop_networks, asn, provider, base, rng_delay)

    _assign_costs_and_flags(graph, base, seed, rng_flags)

    graph.validate()
    internet = Internet(graph, pop_networks, base, seed)
    internet.scale_params = params
    return internet


# --- helpers -------------------------------------------------------------


def _tier1_pop_cities(name: str, params: TopologyParams, rng, city_names: Sequence[str]) -> List[str]:
    required = list(params.required_tier1_pops.get(name, ()))
    for c in required:
        city(c)  # raise early on typos
    count = rng.randint(params.tier1_pop_min, params.tier1_pop_max)
    pool = [c for c in city_names if c not in required]
    extra = rng.sample(pool, max(0, min(len(pool), count - len(required))))
    return required + extra


def _proximity_sample(rng, candidates: Tuple[int, ...], graph: ASGraph, pop_networks, loc: GeoPoint, k: int, rows: Dict) -> List[int]:
    """Sample up to ``k`` distinct providers, weighted toward nearby ones.

    A candidate's weight depends only on it and ``loc``, and locations
    are drawn from :data:`CITIES`, so ``rows`` (made per generation)
    keeps each ``(candidates, loc)`` weight row once; each pick pops
    from a copy in step with the pool, so ``rng.choices`` sees the same
    floats as if the row were rebuilt per pick.
    """
    row = rows.get((candidates, loc))
    if row is None:
        row = rows[candidates, loc] = []
        for asn in candidates:
            net = pop_networks.get(asn)
            anchor = net.pop_location(net.nearest_pop(loc)) if net is not None else graph.as_of(asn).location
            row.append(1.0 / (200.0 + great_circle_km(anchor, loc)))
    pool, weights = list(candidates), list(row)
    chosen: List[int] = []
    for _ in range(min(k, len(pool))):
        pick = rng.choices(range(len(pool)), weights=weights, k=1)[0]
        chosen.append(pool.pop(pick))
        weights.pop(pick)
    return chosen


def _bgp_delay(rng, rtt_ms: float, params: TopologyParams) -> float:
    """One-way control-plane delay across a link: half the data-plane
    RTT plus an exponential processing component."""
    return rtt_ms / 2 + rng.expovariate(1.0 / params.bgp_processing_delay_ms)


def _link_tier1_pair(graph: ASGraph, pop_networks, a: int, b: int, params: TopologyParams, rng) -> Link:
    """Peer two tier-1 backbones at their geographically closest PoPs."""
    net_a, net_b = pop_networks[a], pop_networks[b]
    best = None
    for i in range(net_a.pop_count):
        loc_a = net_a.pop_location(i)
        j = net_b.nearest_pop(loc_a)
        km = great_circle_km(loc_a, net_b.pop_location(j))
        if best is None or km < best[0]:
            best = (km, i, j)
    _, pop_a, pop_b = best
    rtt = propagation_rtt_ms(net_a.pop_location(pop_a), net_b.pop_location(pop_b))
    rtt += params.access_latency_ms
    return graph.add_peering(
        a, b,
        rtt_ms=rtt,
        prop_delay_ms=_bgp_delay(rng, rtt, params),
        attach_pop={a: pop_a, b: pop_b},
    )


def _link_customer_to_provider(graph: ASGraph, pop_networks, customer: int, provider: int, params: TopologyParams, rng) -> Link:
    loc = graph.as_of(customer).location
    attach = {}
    net = pop_networks.get(provider)
    if net is not None:
        pop = net.nearest_pop(loc)
        anchor = net.pop_location(pop)
        attach[provider] = pop
    else:
        anchor = graph.as_of(provider).location
    rtt = propagation_rtt_ms(loc, anchor) + params.access_latency_ms
    return graph.add_provider(
        customer, provider,
        rtt_ms=rtt,
        prop_delay_ms=_bgp_delay(rng, rtt, params),
        attach_pop=attach,
    )


def _link_single_pop_pair(graph: ASGraph, a: int, b: int, rel: Relationship, params: TopologyParams, rng) -> Link:
    rtt = propagation_rtt_ms(graph.as_of(a).location, graph.as_of(b).location)
    rtt += params.access_latency_ms
    return graph.add_link(
        a, b, rel,
        rtt_ms=rtt,
        prop_delay_ms=_bgp_delay(rng, rtt, params),
    )
