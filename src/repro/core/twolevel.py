"""Two-level (provider-level + site-level) preference discovery.

The paper's scaling technique (S4.3): BGP decides which *provider AS* a
client's traffic enters, and the provider's interior routing decides
which *site* inside it the traffic reaches.  Discovery therefore splits
into O(|I|^2) ordered pairwise experiments between provider
representative sites, plus per-provider site-level experiments — or,
for large networks, the RTT heuristic that ranks a provider's sites by
their measured unicast RTT to the client.

A :class:`FlatPreferenceModel` over all-sites pairwise sweeps is kept
as the naive comparator used by Figure 4c.
"""

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.experiments import ExperimentRunner
from repro.core.preferences import (
    PairObservation,
    PreferenceMatrix,
    TotalOrderResult,
    build_total_order,
    by_wins,
    tournament,
)
from repro.measurement.rtt import RttMatrix
from repro.runtime.executor import CampaignExecutor, SerialExecutor
from repro.runtime.retry import FailedExperiment
from repro.topology.testbed import Testbed
from repro.util.errors import ConfigurationError, ReproError


class SiteLevelMode(enum.Enum):
    """How intra-provider site preferences are obtained."""

    PAIRWISE = "pairwise"
    RTT_HEURISTIC = "rtt"


@dataclass
class TwoLevelModel:
    """Discovered preferences, queryable per client and configuration."""

    testbed: Testbed
    provider_matrix: PreferenceMatrix
    site_matrices: Dict[int, PreferenceMatrix]
    rtt_matrix: Optional[RttMatrix]
    site_level_mode: SiteLevelMode

    def providers(self) -> List[int]:
        return self.testbed.provider_asns()

    # -- per-client orders ----------------------------------------------------

    def provider_order(
        self,
        client_id: int,
        providers: Sequence[int],
        provider_announce_order: Sequence[int],
    ) -> TotalOrderResult:
        """The client's total order over provider ASes, if any."""
        return build_total_order(
            self.provider_matrix, client_id, providers, provider_announce_order
        )

    def site_ranking_within(
        self, client_id: int, provider_asn: int, sites: Sequence[int]
    ) -> Optional[Tuple[int, ...]]:
        """The client's preference order among a provider's sites.

        Site-level preferences are announcement-order-insensitive
        (S4.2), so any announcement order works for the lookup.
        """
        sites = list(sites)
        if len(sites) <= 1:
            return tuple(sites)
        if self.site_level_mode is SiteLevelMode.PAIRWISE:
            result = build_total_order(
                self.site_matrices[provider_asn], client_id, sites, sorted(sites)
            )
            return result.order
        if self.rtt_matrix is None:
            raise ReproError("RTT heuristic requires an RTT matrix")
        keyed = []
        for site in sites:
            rtt = self.rtt_matrix.values.get((site, client_id))
            if rtt is None:
                return None
            keyed.append((rtt, site))
        return tuple(site for _, site in sorted(keyed))

    def total_order(self, client_id: int, site_order: Sequence[int]) -> TotalOrderResult:
        """The client's total order over the sites in ``site_order``
        (interpreted as the announcement order), built the paper's way:
        rank providers first, then sites within each provider (S5.1).
        """
        if not site_order:
            raise ConfigurationError("empty announcement order")
        provider_position: Dict[int, int] = {}
        provider_sites: Dict[int, List[int]] = {}
        for idx, site in enumerate(site_order):
            provider = self.testbed.provider_of(site)
            provider_position.setdefault(provider, idx)
            provider_sites.setdefault(provider, []).append(site)
        providers = sorted(provider_position, key=provider_position.get)
        if len(providers) == 1:
            ranking = self.site_ranking_within(client_id, providers[0], provider_sites[providers[0]])
            if ranking is None:
                return TotalOrderResult(client_id, None, reason="no intra-AS order")
            return TotalOrderResult(client_id, ranking)

        provider_result = self.provider_order(client_id, providers, providers)
        if not provider_result.has_total_order:
            return TotalOrderResult(client_id, None, reason=provider_result.reason)
        order: List[int] = []
        for provider in provider_result.order:
            ranking = self.site_ranking_within(client_id, provider, provider_sites[provider])
            if ranking is None:
                return TotalOrderResult(
                    client_id, None, reason=f"no intra-AS order in {provider}"
                )
            order.extend(ranking)
        return TotalOrderResult(client_id, tuple(order))

    def total_orders(
        self, client_ids: Sequence[int], site_order: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`total_order` for many clients at once.

        Returns ``(valid, orders)``: ``valid[c]`` is
        ``total_order(client_ids[c], site_order).has_total_order`` and,
        where it holds, row ``orders[c]`` is that order (site ids, most
        preferred first); other rows are unspecified.
        """
        if not site_order:
            raise ConfigurationError("empty announcement order")
        client_ids = list(client_ids)
        provider_sites: Dict[int, List[int]] = {}
        for site in site_order:
            provider_sites.setdefault(self.testbed.provider_of(site), []).append(site)
        providers = list(provider_sites)  # first-appearance order

        valid = np.ones(len(client_ids), dtype=bool)
        rankings = []
        announced = sorted(site_order)
        for provider in providers:
            site_valid, ranking = self._site_rankings(
                client_ids, provider, provider_sites[provider], announced
            )
            valid &= site_valid
            rankings.append(ranking)
        if len(providers) == 1:
            return valid, rankings[0]

        asns = sorted(providers)
        codes = self.provider_matrix.winner_codes(client_ids, asns)
        provider_valid, wins = tournament(codes, [asns.index(p) for p in providers])
        valid &= provider_valid
        # Column where each provider's block of sites starts, per
        # client: the sizes of the providers that client ranks above it.
        by_rank = by_wins(wins)
        sizes = np.array([len(provider_sites[p]) for p in providers])[by_rank]
        starts = np.empty_like(sizes)
        np.put_along_axis(starts, by_rank, np.cumsum(sizes, axis=1) - sizes, axis=1)
        orders = np.empty((len(client_ids), len(site_order)), dtype=np.int64)
        rows = np.arange(len(client_ids))[:, None]
        for p, ranking in enumerate(rankings):
            orders[rows, starts[:, p, None] + np.arange(ranking.shape[1])] = ranking
        return valid, orders

    def _site_rankings(
        self, client_ids: List[int], provider_asn: int, sites: List[int], announced: List[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`site_ranking_within` for many clients: ``(valid,
        [clients, len(sites)] site ids)``.  ``announced`` — every site of
        the order, sorted — is the RTT array key all providers share."""
        # Ascending site id is the announcement order the scalar path
        # uses, and the RTT heuristic's tie-break.
        members = np.array(sorted(sites), dtype=np.int64)
        if len(members) == 1:
            return (
                np.ones(len(client_ids), dtype=bool),
                np.broadcast_to(members, (len(client_ids), 1)),
            )
        if self.site_level_mode is SiteLevelMode.PAIRWISE:
            codes = self.site_matrices[provider_asn].winner_codes(client_ids, members.tolist())
            valid, wins = tournament(codes, range(len(members)))
            return valid, members[by_wins(wins)]
        if self.rtt_matrix is None:
            raise ReproError("RTT heuristic requires an RTT matrix")
        # A missing sample is NaN and sorts last.
        rtts = self.rtt_matrix.array(announced, client_ids)[np.searchsorted(announced, members)]
        return ~np.isnan(rtts).any(axis=0), members[np.argsort(rtts, axis=0, kind="stable").T]


@dataclass
class FlatPreferenceModel:
    """Naive model: one pairwise sweep across *all* site pairs.

    Needs O(|S|^2) experiments and, without order modeling, loses most
    clients to cyclic preferences as the site count grows (Figure 4c).
    """

    matrix: PreferenceMatrix

    def total_order(self, client_id: int, site_order: Sequence[int]) -> TotalOrderResult:
        return build_total_order(self.matrix, client_id, site_order, site_order)

    def total_orders(
        self, client_ids: Sequence[int], site_order: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`total_order`; see
        :meth:`TwoLevelModel.total_orders`."""
        client_ids = list(client_ids)
        announced = np.array(list(site_order), dtype=np.int64)
        items = sorted(announced.tolist())
        codes = self.matrix.winner_codes(client_ids, items)
        valid, wins = tournament(codes, [items.index(s) for s in announced.tolist()])
        return valid, announced[by_wins(wins)]


def discover_two_level(
    runner: ExperimentRunner,
    rtt_matrix: Optional[RttMatrix] = None,
    site_level_mode: SiteLevelMode = SiteLevelMode.PAIRWISE,
    ordered: bool = True,
    providers: Optional[Sequence[int]] = None,
    executor: Optional[CampaignExecutor] = None,
    progress=None,
    checkpoint=None,
) -> TwoLevelModel:
    """Run the two-level discovery experiments of S4.3.

    ``ordered=False`` runs the provider-level experiments with
    simultaneous announcements (the naive baseline of Figure 4b).
    ``providers`` restricts discovery to a subset of transit providers
    (used to emulate smaller anycast networks).  ``executor`` runs the
    independent pairwise experiments concurrently; experiment ids are
    reserved in serial order first, so results are identical to a
    serial campaign.  A single executor serves both discovery levels —
    under the process pool the provider-level sweep and every
    per-provider site sweep dispatch chunks onto the same warm forked
    workers (the pool is keyed on the campaign spec, so no phase
    re-forks it).

    ``progress`` is an optional resumable-state object (duck-typed:
    attributes ``provider_matrix`` and ``site_matrices``); phases whose
    results it already holds are skipped, and freshly computed results
    are written back into it.  ``checkpoint`` is an optional callback
    invoked after each completed phase so the caller can persist
    ``progress``.

    Provider pairs whose experiments exhausted their retries degrade to
    explicit UNDECIDED cells in provider-ASN space; the campaign keeps
    going and records the failures on the orchestrator.
    """
    testbed = runner.orchestrator.testbed
    metrics = runner.orchestrator.metrics
    tracer = runner.orchestrator.tracer
    provider_list = list(providers) if providers is not None else testbed.provider_asns()
    executor = executor if executor is not None else SerialExecutor()

    # Provider-level: one representative site per provider; record
    # observations in provider-ASN space.
    reps = {p: testbed.representative_site(p) for p in provider_list}
    site_to_provider = {s: p for p, s in reps.items()}
    if progress is not None and progress.provider_matrix is not None:
        provider_matrix = progress.provider_matrix
    else:
        provider_matrix = PreferenceMatrix()
        provider_pairs = [
            (pa, pb)
            for i, pa in enumerate(provider_list)
            for pb in provider_list[i + 1:]
        ]
        undecided = metrics.counter("undecided_cells")
        with metrics.phase("provider-pairwise"), tracer.span(
            "provider-pairwise", providers=provider_list, ordered=ordered
        ) as phase_span:
            tasks = runner.pairwise_tasks(
                [(reps[pa], reps[pb]) for pa, pb in provider_pairs],
                ordered=ordered,
                parent_span_id=phase_span.span_id,
            )
            results = executor.run_experiments(runner.orchestrator, tasks)
        for (pa, pb), result in zip(provider_pairs, results):
            if isinstance(result, FailedExperiment):
                runner.orchestrator.record_failure(result)
                for target in runner.orchestrator.targets:
                    provider_matrix.record(
                        target.target_id, PairObservation.undecided_pair(pa, pb)
                    )
                    undecided.increment()
                continue
            a_first, b_first = result.map_a_first, result.map_b_first
            shared: Dict[tuple, PairObservation] = {}
            for target in runner.orchestrator.targets:
                client = target.target_id
                provider_matrix.record(
                    client,
                    PairObservation.shared(
                        shared,
                        pa,
                        pb,
                        site_to_provider.get(a_first.site_of(client)),
                        site_to_provider.get(b_first.site_of(client)),
                    ),
                )
        if progress is not None:
            progress.provider_matrix = provider_matrix
        if checkpoint is not None:
            checkpoint()

    # Site-level: pairwise inside each provider, or nothing for the
    # RTT heuristic.
    site_matrices: Dict[int, PreferenceMatrix] = {}
    if site_level_mode is SiteLevelMode.PAIRWISE:
        with metrics.phase("site-pairwise"), tracer.span(
            "site-pairwise", providers=provider_list
        ):
            for provider in provider_list:
                if progress is not None and provider in progress.site_matrices:
                    site_matrices[provider] = progress.site_matrices[provider]
                    continue
                sites = testbed.sites_of_provider(provider)
                site_matrices[provider] = (
                    runner.pairwise_sweep(sites, ordered=True, executor=executor)
                    if len(sites) > 1
                    else PreferenceMatrix()
                )
                if progress is not None:
                    progress.site_matrices[provider] = site_matrices[provider]
                if checkpoint is not None:
                    checkpoint()
    elif rtt_matrix is None:
        raise ReproError("the RTT heuristic needs a measured RTT matrix")

    return TwoLevelModel(
        testbed=testbed,
        provider_matrix=provider_matrix,
        site_matrices=site_matrices,
        rtt_matrix=rtt_matrix,
        site_level_mode=site_level_mode,
    )
