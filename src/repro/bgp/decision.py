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

:func:`evaluate` returns the best route and the routes tied with it
through step 4, the set a multipath-enabled AS load-balances across.
"""

from typing import List, Optional, Sequence, Tuple

from repro.bgp.messages import Route
from repro.topology.astopo import AS


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
