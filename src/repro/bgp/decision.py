"""The BGP best-path decision process.

Implements the route-selection algorithm the paper walks through in
S4.1/S4.2, in order:

1. highest LOCAL_PREF;
2. shortest AS_PATH;
3. lowest origin code;
4. lowest MED;
5. (eBGP over iBGP — all sessions here are eBGP, so a no-op);
6. (lowest IGP cost — intra-AS effects are resolved in the data plane
   by :mod:`repro.bgp.dataplane`, so a no-op at the AS level);
7. **oldest route first** — the arrival-order tie-break that Cisco and
   Juniper implement but the BGP standard omits; applied only when the
   AS's ``arrival_order_tiebreak`` flag is set;
8. lowest neighbor (router) id.

``multipath_set`` returns the routes tied through step 4, which is the
set a multipath-enabled AS load-balances across.
"""

from typing import List, Optional, Sequence, Tuple

from repro.bgp.messages import Route
from repro.topology.astopo import AS


def _strict_key(route: Route) -> Tuple:
    """Ordering through the deterministic comparison steps
    (LOCAL_PREF, AS_PATH length, origin, MED, interior cost); what
    :attr:`Route.strict_key` stores, computed from the fields."""
    return (
        -route.local_pref,
        route.path_length,
        route.origin_code,
        route.med,
        route.interior_cost,
    )


def _full_key(route: Route, node: AS) -> Tuple:
    """Ordering through all steps, honouring the AS's tie-break mode."""
    arrival = route.arrival_time if node.arrival_order_tiebreak else 0.0
    return _strict_key(route) + (arrival, route.learned_from)


def evaluate(routes: Sequence[Route], node: AS) -> Tuple[Optional[Route], List[Route]]:
    """One-pass decision: ``(best route, multipath set)``.

    The best route always survives the deterministic comparison steps,
    so it lies inside the strict-tied set; computing both together
    reads each route's stored strict key once.  A state built from a
    run's record decides with it; the loop itself orders record keys
    the same way (:func:`repro.bgp.delta._decide`).
    """
    if len(routes) == 1:
        # Single candidate: the scan and every tie-break are no-ops.
        # Stubs and injection hosts — most of a large topology — take
        # this exit on every delivery.
        only = routes[0] if isinstance(routes, (list, tuple)) else next(iter(routes))
        return only, [only]
    best_key = None
    tied: List[Route] = []
    for r in routes:
        k = r.strict_key
        if best_key is None or k < best_key:
            best_key = k
            tied = [r]
        elif k == best_key:
            tied.append(r)
    if not tied:
        return None, []
    if len(tied) == 1:
        return tied[0], tied
    if node.arrival_order_tiebreak:
        best = min(tied, key=lambda r: (r.arrival_time, r.learned_from))
    else:
        best = min(tied, key=lambda r: r.learned_from)
    tied.sort(key=lambda r: r.learned_from)
    return best, tied


def best_route(routes: Sequence[Route], node: AS) -> Optional[Route]:
    """The single best route for ``node``, or None if no routes.

    >>> best_route([], None) is None
    True
    """
    if not routes:
        return None
    return min(routes, key=lambda r: _full_key(r, node))


def multipath_set(routes: Sequence[Route], node: AS) -> List[Route]:
    """Routes a multipath AS balances over: all tied through the
    deterministic steps (equal-cost multipath).

    For a single-path AS this still returns the tied set; callers
    decide whether to use it.  The result is sorted by neighbor id so
    flow-hash indexing into it is deterministic.
    """
    if not routes:
        return []
    best_key = min(_strict_key(r) for r in routes)
    tied = [r for r in routes if _strict_key(r) == best_key]
    tied.sort(key=lambda r: r.learned_from)
    return tied
