"""Offline configuration search (S3.4, S5.3).

Maps the anycast problem onto SPLPO: clients with total orders become
preference-ordered SPLPO clients, measured unicast RTTs become costs,
and a facility subset's cost is the predicted mean RTT.  The
announcement order is fixed up front — chosen, as the paper does, to
maximize the number of clients with a consistent total order — and
every candidate configuration announces its sites in that global
order.

Both steps work per client class (the model's ``class_rows``: clients
whose every tournament agrees): each candidate order is ranked once,
over one client of each class, and scored by its classes' ``valid``
weighted by their sizes; the winner's :class:`AnnouncementChoice`
carries that ranking on to the instance, which scatters each class's
order into one rank-table row (:meth:`~repro.splpo.SPLPOInstance.from_rank_table`).
"""

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import AnycastConfig
from repro.core.prediction import CatchmentPredictor
from repro.core.twolevel import Ranking
from repro.measurement.rtt import RttMatrix
from repro.measurement.targets import PingTarget, TargetSet
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


@dataclass(frozen=True, eq=False)
class AnnouncementChoice:
    """A chosen announcement order and its ranking of the clients it
    was chosen for: ``ranking`` has one row per class, ``classes[c]``
    is the row of ``client_ids[c]``.  Unpacks as ``(order,
    consistent)``; :func:`build_splpo_instance` reads the ranking from
    it instead of ranking the order again."""

    order: Tuple[int, ...]
    consistent: int
    client_ids: np.ndarray
    classes: np.ndarray
    ranking: Ranking

    def __iter__(self):
        return iter((self.order, self.consistent))


def _ids(targets) -> Tuple[Sequence[int], np.ndarray]:
    """The targets' ids as a sequence and as an int64 array (a
    :class:`TargetSet` keeps both)."""
    if isinstance(targets, TargetSet):
        return targets.columns.ids, targets.columns.id_array
    ids = [t.target_id for t in targets]
    return ids, np.array(ids, dtype=np.int64)


def _client_classes(model, client_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One client id per class of ``client_ids`` and each client's
    class; a model without ``class_rows`` puts each client in its own."""
    class_rows = getattr(model, "class_rows", None)
    if class_rows is None:
        return client_ids, np.arange(len(client_ids))
    rows = class_rows(client_ids)
    # Any client stands for its class: the last one written, say.
    stand_in = np.full(rows.max(initial=-1) + 1, -1, dtype=np.intp)
    stand_in[rows] = np.arange(len(rows))
    present = stand_in >= 0
    return client_ids[stand_in[present]], (np.cumsum(present) - 1)[rows]


def choose_announcement_order(
    model,
    sites: Sequence[int],
    targets: Iterable[PingTarget],
    candidate_orders: int = 6,
    seed=0,
) -> AnnouncementChoice:
    """Pick the announcement order maximizing the number of clients
    with a consistent total order (S4.5 step 3).

    Tries the identity order, its reverse, and ``candidate_orders - 2``
    random permutations; exhausting all |S|! orders is impossible, and
    the paper likewise samples within a time bound.  Each distinct
    candidate is ranked once, over one client per class, and counts
    its valid classes' sizes; the first maximum wins, returned as an
    :class:`AnnouncementChoice` (it unpacks as ``(order, consistent)``).
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
    _, client_ids = _ids(targets)
    representatives, classes = _client_classes(model, client_ids)
    sizes = np.bincount(classes, minlength=len(representatives))
    best = None
    for order in dict.fromkeys(candidates):
        ranking = model.ranking(representatives, order)
        count = int(sizes[ranking.valid].sum())
        if best is None or count > best.consistent:
            best = AnnouncementChoice(order, count, client_ids, classes, ranking)
    return best


def build_splpo_instance(
    model,
    rtt_matrix: RttMatrix,
    targets: Iterable[PingTarget],
    sites: Sequence[int],
    announce_order: Union[Sequence[int], AnnouncementChoice],
    capacities: Optional[Dict[int, float]] = None,
) -> SPLPOInstance:
    """Build the SPLPO instance for one announcement order, or for the
    order of an :class:`AnnouncementChoice` made for the same clients
    (whose ranking is then reused).

    A client participates when it has a total order over ``sites`` and
    a measured RTT to each of them; the paper likewise excludes
    clients without total orders from optimization (S4.2).  Its
    preference is its class's order restricted to ``sites`` — every
    order holds the same announced sites, so the preferences are the
    rows of one matrix — and its costs one gather of the RTT matrix.

    ``capacities`` adds Appendix B's per-site load constraint: each
    client imposes its workload weight as load on its catchment site,
    and subsets overloading any open site become infeasible.
    """
    sites = list(sites)
    if not isinstance(targets, TargetSet):
        targets = list(targets)
    client_ids, ids = _ids(targets)
    if isinstance(announce_order, AnnouncementChoice):
        if not np.array_equal(announce_order.client_ids, ids):
            raise ConfigurationError("the announcement order was chosen for other clients")
        ranking, classes = announce_order.ranking, announce_order.classes
        announce_order = announce_order.order
    else:
        representatives, classes = _client_classes(model, ids)
        ranking = model.ranking(representatives, announce_order)
    # Only sites a total order can name are ever priced.
    members = sorted(set(sites).intersection(announce_order))
    rtts = rtt_matrix.array(members, client_ids)
    usable = np.flatnonzero(ranking.valid[classes] & ~np.isnan(rtts).any(axis=0))
    if not members or not len(usable):
        raise ReproError("no client has a usable total order; cannot optimize")
    # Each class's order, as positions on ``members`` (-1: announced,
    # not a site); every order lists every announced site once.
    member_of = np.full(len(ranking.sites), -1, dtype=np.intp)
    member_of[np.searchsorted(ranking.sites, members)] = np.arange(len(members))
    by_rank = member_of[ranking.orders()]
    by_rank = by_rank[by_rank >= 0].reshape(len(by_rank), len(members))
    position = np.array([sites.index(site) for site in members], dtype=np.intp)
    rows = classes[usable]
    weights = np.array([t.weight for t in targets], dtype=np.float64)[usable]
    return SPLPOInstance.from_rank_table(
        sites, ids[usable], position[by_rank], rows,
        rtts[by_rank[rows], usable[:, None]], weights, capacities=capacities,
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
    if not isinstance(targets, TargetSet):
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
    choice = choose_announcement_order(model, sites, targets, seed=seed)
    instance = build_splpo_instance(
        model, rtt_matrix, targets, sites, choice, capacities=capacities
    )
    announce_order = choice.order

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
        consistent_clients=choice.consistent,
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
