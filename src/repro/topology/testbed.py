"""The paper's anycast testbed (Table 1), wired onto a synthetic Internet.

Fifteen sites in twelve cities, each buying transit from one of six
tier-1 providers (Telia, Zayo, TATA, GTT, NTT, Sparkle), plus 104
settlement-free peering links distributed across the sites exactly per
Table 1's per-site peer counts.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.topology.generator import (
    Internet,
    TopologyParams,
    generate_internet,
)
from repro.topology.geo import GeoPoint, city, great_circle_km, propagation_rtt_ms
from repro.util.errors import ConfigurationError, TopologyError
from repro.util.rng import derive_rng

#: Table 1 of the paper: (site id, city, transit provider, #peers).
PAPER_SITES: Tuple[Tuple[int, str, str, int], ...] = (
    (1, "Atlanta", "Telia", 4),
    (2, "Amsterdam", "Telia", 1),
    (3, "Los Angeles", "Zayo", 6),
    (4, "Singapore", "TATA", 15),
    (5, "London", "GTT", 14),
    (6, "Tokyo", "NTT", 3),
    (7, "Osaka", "NTT", 4),
    (8, "Los Angeles", "Zayo", 4),
    (9, "Miami", "NTT", 7),
    (10, "London", "Sparkle", 2),
    (11, "Newark", "NTT", 7),
    (12, "Stockholm", "Telia", 14),
    (13, "Toronto", "TATA", 9),
    (14, "Sao Paulo", "Sparkle", 9),
    (15, "Chicago", "GTT", 5),
)


@dataclass(frozen=True)
class Site:
    """A deployed anycast site."""

    site_id: int
    city_name: str
    location: GeoPoint
    provider_name: str
    provider_asn: int
    attach_pop: Optional[int]
    access_rtt_ms: float
    n_peers: int


@dataclass(frozen=True)
class PeeringLink:
    """A settlement-free peering session at a site."""

    peer_id: int
    site_id: int
    peer_asn: int
    link_rtt_ms: float


@dataclass
class TestbedParams:
    """Scale and behaviour knobs for the testbed build."""

    # Not a test case despite the name (keeps pytest collection quiet).
    __test__ = False

    topology: TopologyParams = field(default_factory=TopologyParams)
    #: Virtual-clock spacing between staggered announcements (the
    #: paper uses six minutes between the two announcements of a
    #: pairwise experiment).
    announcement_spacing_ms: float = 360_000.0
    orchestrator_city: str = "Ashburn"

    def __post_init__(self):
        if not 0.0 <= self.announcement_spacing_ms < math.inf:
            raise ConfigurationError(
                "announcement_spacing_ms must be finite and non-negative, "
                f"got {self.announcement_spacing_ms!r}"
            )


class Testbed:
    """A built testbed: Internet + sites + peering links."""

    # Not a test case despite the name (keeps pytest collection quiet).
    __test__ = False

    def __init__(
        self,
        internet: Internet,
        sites: Dict[int, Site],
        peer_links: Dict[int, PeeringLink],
        params: TestbedParams,
    ):
        # Prediction (Theorems A.1/A.2) assumes the tier-1 peering
        # clique; fail at construction time, naming the offending AS
        # pair, instead of surfacing as a mispredicted catchment later.
        internet.graph.validate_tier1_clique()
        self.internet = internet
        self.sites = sites
        self.peer_links = peer_links
        self.params = params
        self.orchestrator_location = city(params.orchestrator_city)

    # -- lookups -----------------------------------------------------------

    def site(self, site_id: int) -> Site:
        try:
            return self.sites[site_id]
        except KeyError:
            raise ConfigurationError(f"unknown site {site_id}") from None

    def peer_link(self, peer_id: int) -> PeeringLink:
        try:
            return self.peer_links[peer_id]
        except KeyError:
            raise ConfigurationError(f"unknown peering link {peer_id}") from None

    def site_ids(self) -> List[int]:
        return sorted(self.sites)

    def peer_ids(self) -> List[int]:
        return sorted(self.peer_links)

    def provider_asns(self) -> List[int]:
        return sorted({s.provider_asn for s in self.sites.values()})

    def provider_of(self, site_id: int) -> int:
        return self.site(site_id).provider_asn

    def sites_of_provider(self, provider_asn: int) -> List[int]:
        return sorted(
            s.site_id for s in self.sites.values() if s.provider_asn == provider_asn
        )

    def representative_site(self, provider_asn: int) -> int:
        """The canonical per-provider site used in provider-level
        pairwise experiments (lowest site id, as a stable choice)."""
        sites = self.sites_of_provider(provider_asn)
        if not sites:
            raise ConfigurationError(f"provider AS {provider_asn} hosts no site")
        return sites[0]


def build_paper_testbed(params: Optional[TestbedParams] = None, seed=0) -> Testbed:
    """Build the Table 1 testbed over a freshly generated Internet.

    Deterministic in ``(params, seed)``.
    """
    params = params or TestbedParams()
    required: Dict[str, List[str]] = {}
    for _, city_name, provider, _ in PAPER_SITES:
        required.setdefault(provider, [])
        if city_name not in required[provider]:
            required[provider].append(city_name)
    topo_params = replace(params.topology, required_tier1_pops=required)
    internet = generate_internet(topo_params, seed=seed)

    rng_access = derive_rng(seed, "site-access")
    sites: Dict[int, Site] = {}
    for site_id, city_name, provider, n_peers in PAPER_SITES:
        provider_asn = internet.tier1_by_name(provider)
        location = city(city_name)
        net = internet.pop_network(provider_asn)
        attach_pop = net.nearest_pop(location)
        anchor = net.pop_location(attach_pop)
        if great_circle_km(anchor, location) > 1.0:
            raise TopologyError(
                f"site {site_id}: provider {provider} has no PoP in {city_name}"
            )
        sites[site_id] = Site(
            site_id=site_id,
            city_name=city_name,
            location=location,
            provider_name=provider,
            provider_asn=provider_asn,
            attach_pop=attach_pop,
            access_rtt_ms=round(rng_access.uniform(0.2, 1.5), 3),
            n_peers=n_peers,
        )

    peer_links = _assign_peers(internet, sites, seed)
    return Testbed(internet, sites, peer_links, params)


#: Fixed encapsulation/backhaul overhead of a peering session (ms).
#: Peering traffic typically traverses an exchange fabric or private
#: backhaul, so a peer path is not a pure great-circle shortcut; this
#: keeps the benefit of peering modest, as the paper observed (S5.4).
PEERING_OVERHEAD_MS = 8.0


def _assign_peers(internet: Internet, sites: Dict[int, Site], seed) -> Dict[int, PeeringLink]:
    """Distribute the 104 settlement-free peers across sites per the
    Table 1 counts.

    Peers skew toward content/infrastructure networks (the ASes that
    actually show up at exchange points) with mild geographic
    preference for the site's region.
    """
    rng = derive_rng(seed, "peering")
    candidates = [node for node in map(internet.graph.as_of, internet.graph.asns()) if node.tier != 1]
    # Locations are cities, so a site prices one distance per distinct
    # location (a candidate's ``spot``), not one per candidate.
    spots: Dict[GeoPoint, int] = {}
    spot = [spots.setdefault(node.location, len(spots)) for node in candidates]
    boosted = [not node.hosts_clients or node.tier == 2 for node in candidates]
    taken = set()
    peer_links: Dict[int, PeeringLink] = {}
    peer_id = 0
    for site in sorted(sites.values(), key=lambda s: s.site_id):
        pool = [i for i in range(len(candidates)) if i not in taken]
        if len(pool) < site.n_peers:
            raise TopologyError(
                f"not enough ASes to assign {site.n_peers} peers at site "
                f"{site.site_id}; grow the topology"
            )
        near = [1.0 / (800.0 + great_circle_km(loc, site.location)) for loc in spots]
        weights = [near[spot[i]] * 3.0 if boosted[i] else near[spot[i]] for i in pool]
        for _ in range(site.n_peers):
            idx = rng.choices(range(len(pool)), weights=weights, k=1)[0]
            weights.pop(idx)
            taken.add(pool[idx])
            peer = candidates[pool.pop(idx)]
            rtt = propagation_rtt_ms(peer.location, site.location) + PEERING_OVERHEAD_MS
            peer_links[peer_id] = PeeringLink(
                peer_id=peer_id,
                site_id=site.site_id,
                peer_asn=peer.asn,
                link_rtt_ms=rtt,
            )
            peer_id += 1
    return peer_links


__all__ = [
    "PAPER_SITES",
    "PeeringLink",
    "Site",
    "Testbed",
    "TestbedParams",
    "build_paper_testbed",
]
