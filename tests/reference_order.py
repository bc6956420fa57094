"""The total-order oracle: one client at a time, one dict lookup per game.

:func:`two_level_ranking` ranks every client per announcement order
with one array tournament per provider group and memoised tops; here a
client's order is built the way the paper states it.  Pairwise winners
are read one cell at a time through :meth:`PreferenceMatrix.winner`.
A tournament is transitive when its win counts sort to ``0..n-1``.  The
two-level order ranks providers (each announced at its first site)
first, then each provider's sites, pairwise or by RTT.  The tests
require the kernel's views (``total_order``, ``total_orders``,
``ranking``) to give the same answers.
"""
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.preferences import PreferenceMatrix, TotalOrderResult
from repro.core.twolevel import SiteLevelMode
from repro.util.errors import ConfigurationError, ReproError


def build_total_order(
    matrix: PreferenceMatrix,
    client_id: int,
    items: Sequence[int],
    announce_order: Sequence[int],
) -> TotalOrderResult:
    """Construct a client's total order over ``items`` for a given
    announcement order.

    Effective pairwise winners are looked up with the first-announced
    site of each pair taken from ``announce_order``; a transitive
    tournament yields the total order, anything else yields none.
    """
    items = list(items)
    if len(items) < 2:
        return TotalOrderResult(client_id, tuple(items))
    position = {site: idx for idx, site in enumerate(announce_order)}
    missing = [s for s in items if s not in position]
    if missing:
        raise ReproError(f"items {missing} absent from announcement order")

    wins: Dict[int, int] = {s: 0 for s in items}
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            first = a if position[a] < position[b] else b
            winner = matrix.winner(client_id, a, b, first)
            if winner is None:
                obs = matrix.observation(client_id, a, b)
                reason = "unmeasured pair" if obs is None else obs.outcome().value
                return TotalOrderResult(client_id, None, reason=f"{reason}: ({a}, {b})")
            wins[winner] += 1

    ordered = sorted(items, key=lambda s: -wins[s])
    # A tournament is transitive iff its win counts are a permutation
    # of {0, 1, ..., n-1}.
    if sorted(wins.values()) != list(range(len(items))):
        return TotalOrderResult(client_id, None, reason="cyclic preferences")
    return TotalOrderResult(client_id, tuple(ordered))


def site_ranking_within(
    model, client_id: int, provider_asn: int, sites: Sequence[int]
) -> Optional[Tuple[int, ...]]:
    """The client's preference order among a provider's sites.

    Site-level preferences are announcement-order-insensitive
    (S4.2), so any announcement order works for the lookup.
    """
    sites = list(sites)
    if len(sites) <= 1:
        return tuple(sites)
    if model.site_level_mode is SiteLevelMode.PAIRWISE:
        result = build_total_order(
            model.site_matrices[provider_asn], client_id, sites, sorted(sites)
        )
        return result.order
    if model.rtt_matrix is None:
        raise ReproError("RTT heuristic requires an RTT matrix")
    keyed = []
    for site in sites:
        rtt = model.rtt_matrix.values.get((site, client_id))
        if rtt is None:
            return None
        keyed.append((rtt, site))
    return tuple(site for _, site in sorted(keyed))


def provider_appearance_order(testbed, announce_order: Sequence[int]) -> Tuple[int, ...]:
    """Providers in first-appearance order of ``announce_order``."""
    seen: Dict[int, None] = {}
    for site in announce_order:
        seen.setdefault(testbed.provider_of(site), None)
    return tuple(seen)


def total_order(model, client_id: int, site_order: Sequence[int]) -> TotalOrderResult:
    """The client's total order over the sites in ``site_order``
    (interpreted as the announcement order): for a flat model one
    round-robin over the sites, else providers first, then sites
    within each provider (S5.1).  Accepts an ``AnyOptModel`` too."""
    model = getattr(model, "twolevel", model)
    if hasattr(model, "matrix"):
        return build_total_order(model.matrix, client_id, site_order, site_order)
    if not site_order:
        raise ConfigurationError("empty announcement order")
    provider_sites: Dict[int, List[int]] = {}
    for site in site_order:
        provider_sites.setdefault(model.testbed.provider_of(site), []).append(site)
    providers = provider_appearance_order(model.testbed, site_order)
    if len(providers) == 1:
        ranking = site_ranking_within(model, client_id, providers[0], provider_sites[providers[0]])
        if ranking is None:
            return TotalOrderResult(client_id, None, reason="no intra-AS order")
        return TotalOrderResult(client_id, ranking)

    provider_result = build_total_order(model.provider_matrix, client_id, providers, providers)
    if not provider_result.has_total_order:
        return TotalOrderResult(client_id, None, reason=provider_result.reason)
    order: List[int] = []
    for provider in provider_result.order:
        ranking = site_ranking_within(model, client_id, provider, provider_sites[provider])
        if ranking is None:
            return TotalOrderResult(
                client_id, None, reason=f"no intra-AS order in {provider}"
            )
        order.extend(ranking)
    return TotalOrderResult(client_id, tuple(order))
