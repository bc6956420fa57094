"""Offline configuration search (S3.4, S5.3).

Maps the anycast problem onto SPLPO: clients with total orders become
preference-ordered SPLPO clients, measured unicast RTTs become costs,
and a facility subset's cost is the predicted mean RTT.  The
announcement order is fixed up front — chosen, as the paper does, to
maximize the number of clients with a consistent total order — and
every candidate configuration announces its sites in that global
order.

Both steps read the model's ``Ranking`` as columns: the order choice
its ``valid`` column, the instance its ``orders()`` rows, which go with
one RTT gather into :meth:`~repro.splpo.SPLPOInstance.from_columns`.
"""

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AnycastConfig
from repro.core.prediction import CatchmentPredictor
from repro.measurement.rtt import RttMatrix
from repro.measurement.targets import PingTarget
from repro.splpo import SPLPOInstance, get_solver
from repro.util.errors import ConfigurationError, ReproError
from repro.util.rng import derive_rng


@dataclass
class OptimizationReport:
    """The outcome of an offline configuration search."""

    best_config: AnycastConfig
    predicted_mean_rtt: float
    announce_order: Tuple[int, ...]
    consistent_clients: int
    total_clients: int
    evaluations: int
    solver: str


def choose_announcement_order(
    model,
    sites: Sequence[int],
    targets: Iterable[PingTarget],
    candidate_orders: int = 6,
    seed=0,
) -> Tuple[Tuple[int, ...], int]:
    """Pick the announcement order maximizing the number of clients
    with a consistent total order (S4.5 step 3).

    Tries the identity order, its reverse, and ``candidate_orders - 2``
    random permutations; exhausting all |S|! orders is impossible, and
    the paper likewise samples within a time bound.  Each distinct
    candidate is ranked once, for its ``valid`` column only.
    """
    sites = list(sites)
    if not sites:
        raise ConfigurationError("no sites to order")
    rng = derive_rng(seed, "announce-order")
    candidates = [tuple(sites), tuple(reversed(sites))]
    while len(candidates) < max(2, candidate_orders):
        perm = sites[:]
        rng.shuffle(perm)
        candidates.append(tuple(perm))
    # One id array for every candidate's ranking.
    client_ids = np.array([t.target_id for t in targets], dtype=np.int64)
    best_order: Tuple[int, ...] = candidates[0]
    best_count = -1
    for order in dict.fromkeys(candidates):
        count = int(np.count_nonzero(model.ranking(client_ids, order).valid))
        if count > best_count:
            best_count = count
            best_order = order
    return best_order, best_count


def build_splpo_instance(
    model,
    rtt_matrix: RttMatrix,
    targets: Iterable[PingTarget],
    sites: Sequence[int],
    announce_order: Sequence[int],
    capacities: Optional[Dict[int, float]] = None,
) -> SPLPOInstance:
    """Build the SPLPO instance for one announcement order.

    A client participates when it has a total order over ``sites`` and
    a measured RTT to each of them; the paper likewise excludes
    clients without total orders from optimization (S4.2).  Its
    preference is its order restricted to ``sites`` — every order
    holds the same announced sites, so the preferences are the rows of
    one matrix — and its costs one gather of the RTT matrix.

    ``capacities`` adds Appendix B's per-site load constraint: each
    client imposes its workload weight as load on its catchment site,
    and subsets overloading any open site become infeasible.
    """
    sites = list(sites)
    targets = list(targets)
    client_ids = [t.target_id for t in targets]
    ranking = model.ranking(client_ids, announce_order)
    # Only sites a total order can name are ever priced.
    members = sorted(set(sites).intersection(announce_order))
    rtts = rtt_matrix.array(members, client_ids)
    usable = np.flatnonzero(ranking.valid & ~np.isnan(rtts).any(axis=0))
    if not members or not len(usable):
        raise ReproError("no client has a usable total order; cannot optimize")
    # Each order, as positions on ``members`` (-1: announced, not a site).
    member_of = np.full(len(ranking.sites), -1, dtype=np.intp)
    member_of[np.searchsorted(ranking.sites, members)] = np.arange(len(members))
    rows = member_of[ranking.orders()[usable]]
    rows = rows[rows >= 0].reshape(len(usable), len(members))
    position = np.array([sites.index(site) for site in members], dtype=np.intp)
    weights = np.array([t.weight for t in targets], dtype=np.float64)[usable]
    return SPLPOInstance.from_columns(
        sites, np.asarray(client_ids)[usable], position[rows].ravel(),
        rtts[rows, usable[:, None]].ravel(), np.full(len(usable), len(members)), weights,
        capacities=capacities,
    )


def search_configurations(
    model,
    rtt_matrix: RttMatrix,
    targets: Iterable[PingTarget],
    sites: Optional[Sequence[int]] = None,
    strategy: str = "exhaustive",
    sizes: Optional[Iterable[int]] = None,
    max_evaluations: Optional[int] = None,
    capacities: Optional[Dict[int, float]] = None,
    seed=0,
    exclude_clients: Optional[Iterable[int]] = None,
    metrics=None,
    **solver_kwargs,
) -> OptimizationReport:
    """Find the lowest-predicted-latency configuration.

    Args:
        model: a preference model with ``ranking`` (two-level or flat).
        strategy: a registered solver name (see
            :func:`repro.splpo.available_strategies`; the built-ins are
            ``exhaustive`` / ``greedy`` / ``local_search`` /
            ``annealing``).  Unknown names raise
            :class:`ConfigurationError` listing the valid strategies.
        sizes: restrict exhaustive search to these deployment sizes.
        max_evaluations: evaluation budget (the paper's time bound).
        capacities: optional per-site load caps (Appendix B); subsets
            that would overload a site are skipped as infeasible.
        exclude_clients: client ids the audit quarantined; they are
            dropped from the SPLPO input up front (the accounting goes
            to the ``splpo_clients_excluded`` counter when ``metrics``
            is given).
    """
    solver = get_solver(strategy)
    targets = list(targets)
    if exclude_clients is not None:
        excluded_set = set(exclude_clients)
        kept = [t for t in targets if t.target_id not in excluded_set]
        if metrics is not None:
            metrics.counter("splpo_clients_excluded").increment(
                len(targets) - len(kept)
            )
        targets = kept
    if sites is None:
        sites = model.testbed.site_ids()
    sites = list(sites)
    announce_order, consistent = choose_announcement_order(model, sites, targets, seed=seed)
    instance = build_splpo_instance(
        model, rtt_matrix, targets, sites, announce_order, capacities=capacities
    )

    result = solver(
        instance,
        seed=seed,
        sizes=sizes,
        max_evaluations=max_evaluations,
        **solver_kwargs,
    )

    if not result.open_facilities:
        raise ReproError(f"{strategy} search found no feasible configuration")
    site_order = tuple(s for s in announce_order if s in result.open_facilities)
    return OptimizationReport(
        best_config=AnycastConfig(site_order=site_order),
        predicted_mean_rtt=instance.mean_cost(result.open_facilities),
        announce_order=tuple(announce_order),
        consistent_clients=consistent,
        total_clients=len(targets),
        evaluations=result.evaluations,
        solver=result.solver,
    )


def predicted_mean_rtt_of(
    model,
    rtt_matrix: RttMatrix,
    targets: Iterable[PingTarget],
    config: AnycastConfig,
) -> float:
    """Predicted mean RTT of an explicit configuration (convenience
    wrapper over :class:`~repro.core.prediction.CatchmentPredictor`)."""
    predictor = CatchmentPredictor(model, rtt_matrix)
    return predictor.predict_mean_rtt(config, targets)
