"""Multi-prefix anycast "clouds" and delegation sets (paper S2.2).

The paper's motivating application: Akamai DNS serves each domain from
a *delegation set* of ~6 anycast prefixes, each prefix announced by a
~30-site "anycast cloud".  A resolver picks a prefix from the set and
BGP routes it to that cloud's catchment site, so a domain's latency is
governed by the best (or average) of several independently configured
clouds.

This module builds complementary clouds on top of a discovered AnyOpt
model: the first cloud minimizes the plain mean RTT; each subsequent
cloud solves a *weighted* SPLPO in which clients are weighted by how
badly the existing clouds serve them, so later clouds cover the
stragglers.  Delegation sets are then chosen greedily per domain.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import AnycastConfig
from repro.core.optimizer import build_splpo_instance, choose_announcement_order
from repro.measurement.rtt import RttMatrix
from repro.measurement.targets import PingTarget
from repro.splpo import Client, SPLPOInstance, solve_local_search
from repro.util.errors import ConfigurationError, ReproError
from repro.util.stats import mean


@dataclass(frozen=True)
class AnycastCloud:
    """One anycast prefix and the sites announcing it."""

    prefix_id: int
    config: AnycastConfig


@dataclass
class CloudPlan:
    """A set of complementary anycast clouds plus prediction helpers."""

    clouds: List[AnycastCloud]
    #: client id -> prefix id -> predicted RTT (None if unpredictable).
    predicted_rtts: Dict[int, Dict[int, Optional[float]]]

    def prefix_ids(self) -> List[int]:
        return [c.prefix_id for c in self.clouds]

    def cloud(self, prefix_id: int) -> AnycastCloud:
        for c in self.clouds:
            if c.prefix_id == prefix_id:
                return c
        raise ConfigurationError(f"no cloud with prefix {prefix_id}")

    def delegation_latency(
        self,
        client_id: int,
        prefix_ids: Iterable[int],
        policy: str = "uniform",
    ) -> Optional[float]:
        """Predicted latency of a client querying a delegation set.

        ``uniform`` models resolvers spreading queries round-robin
        (the latency is the mean over the set); ``best`` models
        latency-aware resolvers that learn the fastest prefix.
        """
        rtts = [
            r
            for r in (
                self.predicted_rtts.get(client_id, {}).get(p) for p in prefix_ids
            )
            if r is not None
        ]
        if not rtts:
            return None
        if policy == "uniform":
            return mean(rtts)
        if policy == "best":
            return min(rtts)
        raise ConfigurationError(f"unknown resolver policy {policy!r}")

    def choose_delegation_set(
        self,
        client_ids: Sequence[int],
        set_size: int,
        policy: str = "best",
    ) -> Tuple[int, ...]:
        """Greedy delegation set for a domain whose resolvers are
        ``client_ids``: repeatedly add the prefix that most reduces the
        mean delegation latency across those resolvers."""
        if not 1 <= set_size <= len(self.clouds):
            raise ConfigurationError(
                f"set_size must be in [1, {len(self.clouds)}]"
            )
        chosen: List[int] = []
        remaining = list(self.prefix_ids())
        while len(chosen) < set_size and remaining:
            best_prefix = None
            best_score = float("inf")
            for prefix in remaining:
                score = self._mean_delegation(client_ids, chosen + [prefix], policy)
                if score < best_score:
                    best_score = score
                    best_prefix = prefix
            chosen.append(best_prefix)
            remaining.remove(best_prefix)
        return tuple(chosen)

    def _mean_delegation(self, client_ids, prefix_ids, policy) -> float:
        values = [
            v
            for v in (
                self.delegation_latency(c, prefix_ids, policy) for c in client_ids
            )
            if v is not None
        ]
        if not values:
            return float("inf")
        return mean(values)


def plan_clouds(
    model,
    rtt_matrix: RttMatrix,
    targets: Iterable[PingTarget],
    n_clouds: int,
    sites_per_cloud: int,
    straggler_exponent: float = 1.0,
    seed=0,
) -> CloudPlan:
    """Build ``n_clouds`` complementary anycast clouds.

    Each cloud enables ``sites_per_cloud`` sites.  Cloud 1 minimizes
    the plain mean predicted RTT; cloud ``j`` solves the SPLPO with
    each client weighted by ``best_so_far(client) **
    straggler_exponent``, steering it toward clients the earlier
    clouds serve poorly.
    """
    if n_clouds < 1:
        raise ConfigurationError("need at least one cloud")
    targets = list(targets)
    sites = list(model.testbed.site_ids())
    if not 1 <= sites_per_cloud <= len(sites):
        raise ConfigurationError(
            f"sites_per_cloud must be in [1, {len(sites)}]"
        )
    choice = choose_announcement_order(model, sites, targets, seed=seed)
    announce_order = choice.order
    base_instance = build_splpo_instance(model, rtt_matrix, targets, sites, choice)

    clouds: List[AnycastCloud] = []
    predicted: Dict[int, Dict[int, Optional[float]]] = {
        t.target_id: {} for t in targets
    }
    best_so_far: Dict[int, float] = {}
    for prefix_id in range(n_clouds):
        if prefix_id == 0:
            instance = base_instance
        else:
            reweighted = [
                Client(
                    client_id=c.client_id,
                    preference=c.preference,
                    costs=c.costs,
                    weight=max(
                        best_so_far.get(c.client_id, max(c.costs.values())),
                        1e-3,
                    ) ** straggler_exponent,
                )
                for c in base_instance.clients
            ]
            instance = SPLPOInstance(base_instance.facilities, reweighted)
        result = solve_local_search(
            instance,
            start=_greedy_seed(instance, sites_per_cloud),
            fixed_size=True,
        )
        if not result.open_facilities:
            raise ReproError(f"cloud {prefix_id}: no feasible configuration")
        site_order = tuple(s for s in announce_order if s in result.open_facilities)
        config = AnycastConfig(site_order=site_order)
        clouds.append(AnycastCloud(prefix_id=prefix_id, config=config))

        assignment = base_instance.assignment(result.open_facilities)
        for client in base_instance.clients:
            facility = assignment[client.client_id]
            rtt = client.costs[facility] if facility is not None else None
            predicted[client.client_id][prefix_id] = rtt
            if rtt is not None:
                current = best_so_far.get(client.client_id)
                if current is None or rtt < current:
                    best_so_far[client.client_id] = rtt
    return CloudPlan(clouds=clouds, predicted_rtts=predicted)


def _greedy_seed(instance: SPLPOInstance, k: int):
    """A quick size-k seed for the fixed-size local search."""
    from repro.splpo import solve_greedy

    result = solve_greedy(instance, max_open=k, force_size=True)
    open_set = set(result.open_facilities)
    # force_size can stall below k when additions stop helping; pad
    # with the cheapest unopened facilities.
    for f in instance.facilities:
        if len(open_set) >= k:
            break
        open_set.add(f)
    return frozenset(open_set)
