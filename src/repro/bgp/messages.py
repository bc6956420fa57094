"""Route and update representations.

A :class:`Route` is a RIB entry as seen by one AS: the AS path toward
the anycast origin, the neighbor it was learned from, the local
preference assigned on import, and the arrival timestamp that feeds the
arrival-order tie-break.  ``site_pops`` is only populated on *injected*
routes (at ASes directly connected to anycast sites); it disappears on
re-advertisement, modeling the paper's observation that site-level
differences cannot be observed once a neighboring AS re-advertises the
prefix (S4.3).
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.topology.astopo import Relationship
from repro.util.errors import ReproError


@dataclass(frozen=True)
class SitePop:
    """An anycast site attachment carried on an injected route.

    Attributes:
        site_id: the anycast site's identifier.
        pop_id: the PoP inside the hosting AS where the site attaches,
            or None for single-PoP hosts (e.g. stub peers).
        link_rtt_ms: data-plane RTT across the site's access link.
    """

    site_id: int
    pop_id: Optional[int]
    link_rtt_ms: float


@dataclass(frozen=True)
class Route:
    """One RIB entry for the anycast prefix at one AS.

    ``as_path`` is nearest-first: ``as_path[0]`` is the neighbor AS the
    route was learned from (equal to ``learned_from`` for propagated
    routes) and ``as_path[-1]`` is the anycast origin AS.

    Every route also carries ``strict_key``, its ordering through the
    decision's deterministic steps (a pure function of the fields,
    stored at construction so the decision never recomputes it).
    """

    prefix: str
    as_path: Tuple[int, ...]
    learned_from: int
    local_pref: int
    learned_rel: Relationship = Relationship.PROVIDER
    med: int = 0
    origin_code: int = 0
    interior_cost: int = 0
    arrival_time: float = 0.0
    site_pops: Tuple[SitePop, ...] = field(default=())

    def __post_init__(self):
        if not self.as_path:
            raise ReproError("Route.as_path must not be empty")
        object.__setattr__(self, "strict_key", (
            -self.local_pref, len(self.as_path), self.origin_code, self.med, self.interior_cost
        ))

    @property
    def path_length(self) -> int:
        """AS-path length, BGP's second decision criterion."""
        return len(self.as_path)

    @property
    def origin_asn(self) -> int:
        """The AS that originated the prefix."""
        return self.as_path[-1]

    def is_injected(self) -> bool:
        """True when this AS hosts the anycast site(s) directly."""
        return bool(self.site_pops)

    def materially_equal(self, other: Optional["Route"]) -> bool:
        """True when re-advertising would be a no-op for neighbors.

        Arrival time and local preference are local concerns; a route
        only needs re-announcement when its path, MED, or learned-from
        neighbor changed.
        """
        if other is None:
            return False
        return (
            self.as_path == other.as_path
            and self.learned_from == other.learned_from
            and self.med == other.med
            and self.origin_code == other.origin_code
        )


def make_route(
    prefix: str,
    as_path: Tuple[int, ...],
    learned_from: int,
    local_pref: int,
    learned_rel: Relationship = Relationship.PROVIDER,
    med: int = 0,
    interior_cost: int = 0,
    arrival_time: float = 0.0,
) -> Route:
    """Hot-path :class:`Route` constructor.

    Value-identical to calling ``Route(...)`` (same validation, equal
    and equally hashable results) but bypasses the frozen-dataclass
    ``__init__``/``object.__setattr__`` machinery, which costs ~4x as
    much; a state built from a run's record creates one route per
    Adj-RIB-In entry and one per export path.
    ``origin_code`` and ``site_pops`` keep their defaults: propagated
    routes never carry site attachments.  The strict key is stored here
    too, as ``__post_init__`` stores it for ``Route(...)``.
    """
    if not as_path:
        raise ReproError("Route.as_path must not be empty")
    route = Route.__new__(Route)
    d = route.__dict__
    d["prefix"] = prefix
    d["as_path"] = as_path
    d["learned_from"] = learned_from
    d["local_pref"] = local_pref
    d["learned_rel"] = learned_rel
    d["med"] = med
    d["origin_code"] = 0
    d["interior_cost"] = interior_cost
    d["arrival_time"] = arrival_time
    d["site_pops"] = ()
    d["strict_key"] = (-local_pref, len(as_path), 0, med, interior_cost)
    return route
