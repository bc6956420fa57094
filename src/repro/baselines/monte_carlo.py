"""Monte-Carlo configuration search.

The paper notes (S2.2) that the state of the art for configuring large
anycast networks such as Akamai DNS is Monte-Carlo simulation: sample
random configurations, simulate each, keep the best.  With AnyOpt's
predictive model the simulation step is the offline catchment
prediction, so this baseline is a fair "sample instead of optimize"
comparator for the SPLPO solvers.
"""

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.core.config import AnycastConfig
from repro.core.optimizer import build_splpo_instance, choose_announcement_order
from repro.measurement.rtt import RttMatrix
from repro.measurement.targets import PingTarget
from repro.util.errors import ConfigurationError, ReproError
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class MonteCarloResult:
    """Best configuration found by random sampling."""

    best_config: AnycastConfig
    predicted_mean_rtt: float
    samples: int


def monte_carlo_search(
    model,
    rtt_matrix: RttMatrix,
    targets: Iterable[PingTarget],
    n_samples: int = 200,
    sizes: Optional[Sequence[int]] = None,
    seed=0,
) -> MonteCarloResult:
    """Sample ``n_samples`` random site subsets and keep the best
    predicted mean RTT.

    ``sizes`` restricts sampling to the given deployment sizes
    (uniformly chosen per sample); default is any size.
    """
    if n_samples < 1:
        raise ConfigurationError("need at least one sample")
    targets = list(targets)
    sites = list(model.testbed.site_ids())
    choice = choose_announcement_order(model, sites, targets, seed=seed)
    announce_order = choice.order
    instance = build_splpo_instance(model, rtt_matrix, targets, sites, choice)

    rng = derive_rng(seed, "monte-carlo")
    size_pool: Tuple[int, ...] = (
        tuple(sizes) if sizes is not None else tuple(range(1, len(sites) + 1))
    )
    for k in size_pool:
        if not 1 <= k <= len(sites):
            raise ConfigurationError(f"size {k} out of range [1, {len(sites)}]")

    best_subset = None
    best_cost = float("inf")
    seen = set()
    for _ in range(n_samples):
        k = rng.choice(size_pool)
        subset = frozenset(rng.sample(sites, k))
        if subset in seen:
            continue
        seen.add(subset)
        try:
            cost = instance.mean_cost(subset)
        except ReproError:
            continue
        if cost < best_cost:
            best_cost = cost
            best_subset = subset
    if best_subset is None:
        raise ReproError("no sampled configuration served any client")
    site_order = tuple(s for s in announce_order if s in best_subset)
    return MonteCarloResult(
        best_config=AnycastConfig(site_order=site_order),
        predicted_mean_rtt=best_cost,
        samples=len(seen),
    )
