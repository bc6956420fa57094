"""Intra-domain (PoP-level) topology of a multi-PoP AS.

The paper's two-level insight (S4.3) is that once traffic enters the AS
hosting multiple anycast sites, the catchment site is decided by the
AS's *interior* routing, typically shortest-path (hot-potato), and is
insensitive to BGP announcement order.  This module models a tier-1
AS's backbone as a sparse PoP graph with distance-weighted IGP links
and answers the two questions the data plane needs:

- at which PoP does a neighbor attach (nearest PoP), and
- from a given ingress PoP, which anycast attachment PoP is
  IGP-closest, and how far is it.
"""

import heapq
from typing import Dict, List, Sequence, Tuple

from repro.topology.geo import (
    DEFAULT_PATH_STRETCH,
    FIBER_KM_PER_MS,
    GeoPoint,
    great_circle_km,
)
from repro.util.errors import TopologyError


class PopNetwork:
    """A sparse IGP backbone over a set of PoPs.

    PoPs are connected in a geographic ring (ordered by longitude) plus
    random chords, so IGP shortest-path distance correlates with — but
    does not exactly equal — great-circle distance.  That gap is what
    makes the paper's "approximate site-level preference by RTT"
    heuristic (S4.3) an approximation rather than an identity.
    """

    def __init__(self, asn: int, pops: Sequence[GeoPoint], rng, chord_fraction: float = 0.35):
        if not pops:
            raise TopologyError(f"AS {asn}: PopNetwork needs at least one PoP")
        self.asn = asn
        self._pops: List[GeoPoint] = list(pops)
        self._adj: Dict[int, List[Tuple[int, float]]] = {i: [] for i in range(len(pops))}
        self._dist_cache: Dict[int, List[float]] = {}
        self._nearest: Dict[GeoPoint, int] = {}
        self._build_backbone(rng, chord_fraction)

    @classmethod
    def from_adjacency(
        cls,
        asn: int,
        pops: Sequence[GeoPoint],
        edges: Sequence[Tuple[int, int, float]],
    ) -> "PopNetwork":
        """Rebuild a backbone from explicit ``(pop_a, pop_b, km)``
        edges (used by serialization round-trips)."""
        net = cls.__new__(cls)
        if not pops:
            raise TopologyError(f"AS {asn}: PopNetwork needs at least one PoP")
        net.asn = asn
        net._pops = list(pops)
        net._adj = {i: [] for i in range(len(pops))}
        net._dist_cache = {}
        net._nearest = {}
        for i, j, km in edges:
            net._require(i)
            net._require(j)
            net._adj[i].append((j, km))
            net._adj[j].append((i, km))
        return net

    def edges(self) -> List[Tuple[int, int, float]]:
        """Backbone edges as ``(pop_a, pop_b, km)`` with a < b."""
        seen = set()
        out: List[Tuple[int, int, float]] = []
        for i, neighbors in self._adj.items():
            for j, km in neighbors:
                key = (min(i, j), max(i, j))
                if key not in seen:
                    seen.add(key)
                    out.append((key[0], key[1], km))
        return sorted(out)

    # -- construction ---------------------------------------------------

    def _build_backbone(self, rng, chord_fraction: float) -> None:
        n = len(self._pops)
        if n == 1:
            return
        ring = sorted(range(n), key=lambda i: (self._pops[i].lon, self._pops[i].lat))
        edges = set()
        for idx, i in enumerate(ring):
            j = ring[(idx + 1) % n]
            edges.add((min(i, j), max(i, j)))
        # Random chords make the backbone 2-connected-ish and create
        # shortcuts, as real backbones have.
        n_chords = max(1, int(chord_fraction * n)) if n > 2 else 0
        for _ in range(n_chords):
            i, j = rng.sample(range(n), 2)
            edges.add((min(i, j), max(i, j)))
        for i, j in edges:
            km = great_circle_km(self._pops[i], self._pops[j])
            self._adj[i].append((j, km))
            self._adj[j].append((i, km))

    # -- queries ----------------------------------------------------------

    @property
    def pop_count(self) -> int:
        return len(self._pops)

    def pop_location(self, pop_id: int) -> GeoPoint:
        self._require(pop_id)
        return self._pops[pop_id]

    def nearest_pop(self, point: GeoPoint) -> int:
        """The PoP geographically closest to ``point``.

        This is where a neighbor AS located at ``point`` attaches.
        Answered once per point: the PoPs never change.
        """
        pop = self._nearest.get(point)
        if pop is None:
            pop = self._nearest[point] = min(
                range(len(self._pops)),
                key=lambda i: great_circle_km(self._pops[i], point),
            )
        return pop

    def igp_km(self, src_pop: int, dst_pop: int) -> float:
        """IGP shortest-path distance between two PoPs, in km."""
        self._require(src_pop)
        self._require(dst_pop)
        return self._distances_from(src_pop)[dst_pop]

    def igp_rtt_ms(self, src_pop: int, dst_pop: int, stretch: float = DEFAULT_PATH_STRETCH) -> float:
        """Round-trip latency along the IGP shortest path, in ms."""
        return 2 * self.igp_km(src_pop, dst_pop) * stretch / FIBER_KM_PER_MS

    def closest_pop_of(self, ingress_pop: int, candidate_pops: Sequence[int]) -> int:
        """Hot-potato choice: the candidate PoP IGP-closest to ingress.

        Ties break on the lower PoP id, mirroring a deterministic
        router-id style tie-break inside the AS.
        """
        if not candidate_pops:
            raise TopologyError(f"AS {self.asn}: no candidate PoPs")
        dist = self._distances_from(ingress_pop)
        return min(candidate_pops, key=lambda p: (dist[p], p))

    # -- internals --------------------------------------------------------

    def _distances_from(self, src: int) -> List[float]:
        cached = self._dist_cache.get(src)
        if cached is not None:
            return cached
        dist = [float("inf")] * len(self._pops)
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        if any(d == float("inf") for d in dist):
            raise TopologyError(f"AS {self.asn}: PoP backbone is disconnected")
        self._dist_cache[src] = dist
        return dist

    def _require(self, pop_id: int) -> None:
        if not 0 <= pop_id < len(self._pops):
            raise TopologyError(
                f"AS {self.asn}: PoP {pop_id} out of range [0, {len(self._pops)})"
            )
