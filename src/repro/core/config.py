"""Anycast configurations.

A configuration is the paper's control knob set (S2.3): which sites
announce the anycast prefix (and in which order, since arrival order
breaks ties), and which settlement-free peering links are enabled on
top.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class AnycastConfig:
    """One deployable anycast configuration.

    Attributes:
        site_order: enabled sites in *announcement order* — the first
            site's advertisement reaches every router before the
            second's, and so on (the paper spaces announcements by six
            minutes to guarantee this).
        peer_ids: enabled settlement-free peering links, announced
            after all transit announcements.
        spacing_ms: override for the inter-announcement spacing; None
            uses the testbed default, 0 announces simultaneously
            (the paper's "without considering announcement order"
            baseline).
        prepends: per-site AS-path prepending, as ``(site_id, count)``
            pairs — the BGP control knob the paper lists as future
            work (S6, "Other control knobs"); prepending a site's
            announcement lengthens its AS path and shrinks its
            catchment.
    """

    site_order: Tuple[int, ...]
    peer_ids: Tuple[int, ...] = ()
    spacing_ms: Optional[float] = None
    prepends: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        if not self.site_order and not self.peer_ids:
            raise ConfigurationError("a configuration must enable something")
        if len(set(self.site_order)) != len(self.site_order):
            raise ConfigurationError(f"duplicate sites in {self.site_order}")
        if len(set(self.peer_ids)) != len(self.peer_ids):
            raise ConfigurationError(f"duplicate peers in {self.peer_ids}")
        if self.spacing_ms is not None and not 0.0 <= self.spacing_ms < math.inf:
            raise ConfigurationError(
                f"spacing_ms must be finite and non-negative, got {self.spacing_ms!r}"
            )
        seen = set()
        for site_id, count in self.prepends:
            if site_id not in self.site_order:
                raise ConfigurationError(
                    f"prepend for site {site_id}, which is not enabled"
                )
            if site_id in seen:
                raise ConfigurationError(f"duplicate prepend for site {site_id}")
            if count < 0:
                raise ConfigurationError("prepend count must be non-negative")
            seen.add(site_id)

    @property
    def sites(self) -> Tuple[int, ...]:
        """Enabled sites, sorted (order-insensitive identity)."""
        return tuple(sorted(self.site_order))

    def with_peers(self, peer_ids: Iterable[int]) -> "AnycastConfig":
        """A copy with a different set of enabled peering links."""
        return AnycastConfig(
            self.site_order, tuple(peer_ids), self.spacing_ms, self.prepends
        )

    def with_prepend(self, site_id: int, count: int) -> "AnycastConfig":
        """A copy with ``site_id``'s announcement prepended ``count``
        extra times."""
        others = tuple(p for p in self.prepends if p[0] != site_id)
        return AnycastConfig(
            self.site_order, self.peer_ids, self.spacing_ms,
            others + ((site_id, count),),
        )

    def prepend_of(self, site_id: int) -> int:
        """Extra AS-path prepends for a site's announcement."""
        for sid, count in self.prepends:
            if sid == site_id:
                return count
        return 0

    def announce_order_of(self, site_a: int, site_b: int) -> Tuple[int, int]:
        """The two sites in the order this configuration announces them.

        Used by prediction to pick the matching pairwise experiment
        (S4.2: "we will use a client network's preference orders
        obtained from the measurements when A is announced before B").
        """
        if site_a not in self.site_order or site_b not in self.site_order:
            raise ConfigurationError(
                f"sites {site_a}/{site_b} not both enabled in {self.site_order}"
            )
        for site in self.site_order:
            if site == site_a:
                return (site_a, site_b)
            if site == site_b:
                return (site_b, site_a)
        raise ConfigurationError(f"unreachable: {site_a}/{site_b}")
