"""Event-driven BGP route-propagation simulator.

This package is the substrate that replaces the paper's real-world BGP
testbed.  It implements, at the AS abstraction the paper reasons about:

- Gao-Rexford selection and export policies
  (:mod:`repro.bgp.policy`);
- the full BGP best-path decision process, including the
  *arrival-order tie-break* that the paper identifies in S4.2 as a
  widespread implementation behaviour absent from the BGP standard
  (:mod:`repro.bgp.decision`);
- per-AS RIBs (:mod:`repro.bgp.rib`);
- an event-driven propagation engine with per-link control-plane
  delays and a virtual clock, so announcement arrival order is
  well-defined (:mod:`repro.bgp.engine`), whose one event loop handles
  import, decision and export — with correct withdraw-on-export-set
  change semantics — inline over per-run states
  (:mod:`repro.bgp.delta`);
- a data plane that resolves a converged deployment once, hop record
  by hop record, and each client flow to its terminating AS, ingress
  PoP, hot-potato site choice, and path RTT
  (:mod:`repro.bgp.dataplane`).
"""

from repro.bgp.dataplane import DataPlane, ForwardingOutcome
from repro.bgp.engine import BGPEngine, ConvergedState, SiteInjection
from repro.bgp.explain import explain_catchment
from repro.bgp.messages import Route, SitePop
from repro.bgp.policy import (
    LOCAL_PREF_CUSTOMER,
    LOCAL_PREF_PEER,
    LOCAL_PREF_PROVIDER,
    export_targets,
    local_pref_for,
)
from repro.bgp.rib import RouterState

__all__ = [
    "BGPEngine",
    "ConvergedState",
    "DataPlane",
    "ForwardingOutcome",
    "LOCAL_PREF_CUSTOMER",
    "LOCAL_PREF_PEER",
    "LOCAL_PREF_PROVIDER",
    "Route",
    "RouterState",
    "SiteInjection",
    "SitePop",
    "explain_catchment",
    "export_targets",
    "local_pref_for",
]
