"""Human-readable explanations of catchment decisions.

``explain_catchment`` retraces a client flow hop by hop through a
converged control plane and narrates, at each AS, which candidate
routes existed and which decision-process step picked the winner —
the operator-facing "why did this client end up in Tokyo?" tool.
"""

from typing import List

from repro.bgp.dataplane import DataPlane
from repro.bgp.engine import ConvergedState
from repro.bgp.messages import Route
from repro.topology.astopo import AS
from repro.topology.generator import Internet
from repro.util.errors import ReproError


def _winning_step(chosen: Route, loser: Route, node: AS) -> str:
    """The first decision-process criterion separating two routes."""
    if chosen.local_pref != loser.local_pref:
        return (
            f"local preference ({chosen.local_pref} vs {loser.local_pref})"
        )
    if chosen.path_length != loser.path_length:
        return (
            f"AS-path length ({chosen.path_length} vs {loser.path_length})"
        )
    if chosen.origin_code != loser.origin_code:
        return "origin code"
    if chosen.med != loser.med:
        return f"MED ({chosen.med} vs {loser.med})"
    if chosen.interior_cost != loser.interior_cost:
        return (
            f"interior cost ({chosen.interior_cost} vs {loser.interior_cost})"
        )
    if node.arrival_order_tiebreak and chosen.arrival_time != loser.arrival_time:
        return (
            "arrival order (received at "
            f"t={chosen.arrival_time:.0f}ms vs t={loser.arrival_time:.0f}ms)"
        )
    return f"neighbor id ({chosen.learned_from} vs {loser.learned_from})"


def _describe_hop(asn: int, state, node: AS, chosen: Route) -> str:
    candidates = [r for r in state.routes() if r is not chosen]
    path = "-".join(map(str, chosen.as_path))
    if not candidates:
        return f"AS {asn}: only route is via AS {chosen.learned_from} [{path}]"
    closest = min(candidates, key=lambda r: r.strict_key)
    step = _winning_step(chosen, closest, node)
    extra = f" ({len(candidates)} alternatives)" if len(candidates) > 1 else ""
    return (
        f"AS {asn}: chose route via AS {chosen.learned_from} [{path}] over "
        f"AS {closest.learned_from}'s — decided by {step}{extra}"
    )


def explain_catchment(
    internet: Internet,
    converged: ConvergedState,
    client_asn: int,
    flow_key=None,
    flow_nonce: int = 0,
) -> str:
    """Narrate the hop-by-hop route decisions of one client flow.

    Returns a multi-line string; raises :class:`ReproError` when the
    client has no route at all.
    """
    dataplane = DataPlane(internet, converged, flow_nonce=flow_nonce)
    key = flow_key if flow_key is not None else client_asn
    outcome = dataplane.forward(client_asn, key)
    if outcome is None:
        raise ReproError(f"AS {client_asn} has no route to the anycast prefix")

    lines: List[str] = [
        f"flow from AS {client_asn} reaches site {outcome.site_id} "
        f"(hosted by AS {outcome.terminating_asn}) in {outcome.rtt_ms:.1f} ms"
    ]
    for asn in outcome.as_path:
        state = converged.states[asn]
        node = internet.graph.as_of(asn)
        neighbor, hashed = dataplane.next_hop(asn, key)
        chosen = state.adj_rib_in[neighbor]
        if hashed:
            lines.append(
                f"AS {asn}: multipath across {len(state.multipath)} equal "
                f"routes; this flow hashed to AS {chosen.learned_from}"
            )
        else:
            lines.append(_describe_hop(asn, state, node, chosen))
        if chosen.is_injected():
            sites = ", ".join(str(sp.site_id) for sp in chosen.site_pops)
            if outcome.ingress_pop is not None and len(chosen.site_pops) > 1:
                lines.append(
                    f"AS {asn}: hosts sites [{sites}]; hot-potato from ingress "
                    f"PoP {outcome.ingress_pop} selects site {outcome.site_id}"
                )
            else:
                lines.append(f"AS {asn}: delivers to site {outcome.site_id}")
    return "\n".join(lines)
