"""Two-level (provider-level + site-level) preference discovery.

The paper's scaling technique (S4.3): BGP decides which *provider AS* a
client's traffic enters, and the provider's interior routing decides
which *site* inside it the traffic reaches.  Discovery therefore splits
into O(|I|^2) ordered pairwise experiments between provider
representative sites, plus per-provider site-level experiments — or,
for large networks, the RTT heuristic that ranks a provider's sites by
their measured unicast RTT to the client.

A client's catchment is the head of its two-level total order, and
:func:`two_level_ranking` is the one implementation of that order for
many clients: the live model ranks through it over the arrays
:meth:`TwoLevelModel.arrays` compiles, and the snapshot lookup of
:mod:`repro.serve.lookup` over the same arrays read back from a file.
The scalar :meth:`TwoLevelModel.total_order` is its oracle.

A :class:`FlatPreferenceModel` over all-sites pairwise sweeps is kept
as the naive comparator used by Figure 4c.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.experiments import ExperimentRunner
from repro.core.prediction import model_clients
from repro.core.preferences import (
    PreferenceMatrix,
    TotalOrderResult,
    build_total_order,
    tournament,
)
from repro.measurement.rtt import RttMatrix
from repro.runtime.executor import CampaignExecutor, SerialExecutor
from repro.runtime.retry import FailedExperiment
from repro.topology.testbed import Testbed
from repro.util.errors import ConfigurationError, ReproError


@dataclass(frozen=True, eq=False)
class Ranking:
    """Many clients' two-level total orders, as sort keys (lower =
    preferred): per provider in announcement order, its sites (indices
    on ``sites``, ascending) with ``[clients, sites]`` keys (None for a
    lone site), and ``provider_key`` over the providers (None for one).
    Rows without ``valid`` are unspecified in :meth:`orders`."""

    valid: np.ndarray
    sites: np.ndarray
    groups: Tuple[Tuple[np.ndarray, Optional[np.ndarray]], ...]
    provider_key: Optional[np.ndarray]

    def answers(self, rtt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The head view: per client, its catchment — the best site of
        its best provider, ``-1`` without an order — and that site's
        cell of ``rtt`` (``[sites, clients]``; NaN without an order)."""
        n = len(self.valid)
        tops = np.empty((len(self.groups), n), dtype=np.intp)
        for row, (members, key) in enumerate(self.groups):
            tops[row] = members[0] if key is None else members[np.argmin(key, axis=1)]
        if self.provider_key is not None:
            tops = tops[np.argmin(self.provider_key, axis=1), np.arange(n)][None]
        heads = np.where(self.valid, tops[0], -1)
        return heads, np.where(self.valid, rtt[heads, np.arange(n)], np.nan)

    def orders(self) -> np.ndarray:
        """Each client's whole order, ``[clients, announced sites]``,
        most preferred first: by provider, then by site."""
        n = len(self.valid)
        columns = np.array([site for members, _ in self.groups for site in members], dtype=np.intp)
        # The empty first block keeps an empty order (no sites) stackable.
        site_key = np.hstack([np.zeros((n, 0))] + [
            np.zeros((n, 1)) if key is None else key for _, key in self.groups
        ])
        provider_key = np.zeros_like(site_key) if self.provider_key is None else np.repeat(
            self.provider_key, [len(members) for members, _ in self.groups], axis=1
        )
        return columns[np.lexsort((site_key, provider_key), axis=1)]


def two_level_ranking(arrays, site_order: Sequence[int], rtt_heuristic: bool,
                      rows: Optional[np.ndarray] = None) -> Ranking:
    """:meth:`TwoLevelModel.total_order` for every client row of
    ``arrays`` (snapshot encoding, :mod:`repro.serve.snapshot`) or for
    ``rows``; ``site_order`` holds site indices in announcement order.

    Providers are ranked by :func:`~repro.core.preferences.tournament`,
    each announced at its first site; the sites inside one by tournament
    with the lower index first or, with ``rtt_heuristic``, by ascending
    RTT (ties to the lower index; a missing sample voids the order).
    """
    announced: Dict[int, List[int]] = {}
    for site, provider in zip(site_order, np.take(arrays["site_provider"], site_order).tolist()):
        announced.setdefault(provider, []).append(site)
    valid = np.ones(len(arrays["prov_w"]), dtype=bool)
    groups = []
    for sites in announced.values():
        members = np.array(sorted(sites), dtype=np.intp)
        key = None
        if len(members) > 1 and rtt_heuristic:
            rtt = arrays["rtt"][members]
            holes = np.isnan(rtt)
            valid &= ~holes.any(axis=0)
            key = np.where(holes, np.inf, rtt).T
        elif len(members) > 1:
            usable, wins = tournament(arrays["site_w"], members)
            valid &= usable
            # int32: numpy's stable sort of 16-bit integers is a radix
            # sort, ten times slower on rows this short.
            key = np.negative(wins, dtype=np.int32)
        groups.append((members, key))
    provider_key = None
    if len(groups) > 1:
        usable, wins = tournament(arrays["prov_w"], list(announced))
        valid &= usable
        provider_key = np.negative(wins, dtype=np.int32)
    if rows is not None:
        valid = valid[rows]
        groups = [(members, None if key is None else key[rows]) for members, key in groups]
        provider_key = None if provider_key is None else provider_key[rows]
    return Ranking(valid, arrays["sites"], tuple(groups), provider_key)


class SiteLevelMode(enum.Enum):
    """How intra-provider site preferences are obtained."""

    PAIRWISE = "pairwise"
    RTT_HEURISTIC = "rtt"


class _RankedModel:
    """``total_orders`` for a model with ``ranking``."""

    def total_orders(
        self, client_ids: Sequence[int], site_order: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`total_order` for many clients at once.

        Returns ``(valid, orders)``: ``valid[c]`` is
        ``total_order(client_ids[c], site_order).has_total_order`` and,
        where it holds, row ``orders[c]`` is that order (site ids, most
        preferred first); other rows are unspecified.
        """
        ranking = self.ranking(client_ids, site_order)
        return ranking.valid, ranking.sites[ranking.orders()]


@dataclass
class TwoLevelModel(_RankedModel):
    """Discovered preferences, queryable per client and configuration."""

    testbed: Testbed
    provider_matrix: PreferenceMatrix
    site_matrices: Dict[int, PreferenceMatrix]
    rtt_matrix: Optional[RttMatrix]
    site_level_mode: SiteLevelMode
    #: ``(matrix stamps, arrays, client rows, site indices)``, see
    #: :meth:`_compile`.
    _compiled: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    # -- arrays ---------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The model as the read-only arrays a snapshot stores, over
        every client :func:`~repro.core.prediction.model_clients` knows;
        compiled on first use and kept until a matrix is written."""
        arrays = self._compile()[0]
        return {
            **arrays,
            "prov_w": arrays["prov_w"][:-1],
            "site_w": arrays["site_w"][:-1],
            "rtt": arrays["rtt"][:, :-1],
        }

    def _compile(self):
        """:meth:`arrays` plus a last client row for an unseen client (no
        usable cell, no RTT), with client rows and site indices by id."""
        stamps = (
            self.provider_matrix.stamp,
            tuple((p, m.stamp) for p, m in self.site_matrices.items()),
            None if self.rtt_matrix is None else self.rtt_matrix.stamp,
        )
        if self._compiled is None or self._compiled[0] != stamps:
            clients = sorted(model_clients(self, self.rtt_matrix))
            sites = sorted(self.testbed.site_ids())
            providers = sorted(self.testbed.provider_asns())
            site_index = {site: i for i, site in enumerate(sites)}
            rows = clients + [None]  # None: the unseen client
            site_w = np.full((len(rows), len(sites), len(sites)), -1, dtype=np.int8)
            for matrix in self.site_matrices.values():
                # Each matrix holds one provider's sites: a diagonal block.
                members = sorted({s for pair in matrix.pairs() for s in pair if s in site_index})
                block = np.array([site_index[s] for s in members], dtype=np.intp)
                site_w[:, block[:, None], block] = matrix.winner_codes(rows, members)
            rtt_matrix = self.rtt_matrix if self.rtt_matrix is not None else RttMatrix()
            arrays = {
                "clients": np.asarray(clients, dtype=np.int64),
                "sites": np.asarray(sites, dtype=np.int64),
                "providers": np.asarray(providers, dtype=np.int64),
                "site_provider": np.asarray(
                    [providers.index(self.testbed.provider_of(s)) for s in sites], dtype=np.int32
                ),
                "prov_w": self.provider_matrix.winner_codes(rows, providers),
                "site_w": site_w,
                "rtt": rtt_matrix.array(sites, rows),
            }
            for array in arrays.values():
                array.flags.writeable = False
            client_rows = {client: i for i, client in enumerate(clients)}
            self._compiled = (stamps, arrays, client_rows, site_index)
        return self._compiled[1:]

    def ranking(self, client_ids: Sequence[int], site_order: Sequence[int]) -> Ranking:
        """:func:`two_level_ranking` over the model's arrays, a row per
        entry of ``client_ids``."""
        if not site_order:
            raise ConfigurationError("empty announcement order")
        arrays, client_rows, site_index = self._compile()
        unseen = len(client_rows)
        rows = np.array([client_rows.get(c, unseen) for c in client_ids], dtype=np.intp)
        return two_level_ranking(
            arrays, [site_index[site] for site in site_order],
            self.site_level_mode is SiteLevelMode.RTT_HEURISTIC, rows,
        )

    # -- per-client orders ----------------------------------------------------

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

        provider_result = build_total_order(self.provider_matrix, client_id, providers, providers)
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



@dataclass
class FlatPreferenceModel(_RankedModel):
    """Naive model: one pairwise sweep across *all* site pairs.

    Needs O(|S|^2) experiments and, without order modeling, loses most
    clients to cyclic preferences as the site count grows (Figure 4c).
    """

    matrix: PreferenceMatrix

    def total_order(self, client_id: int, site_order: Sequence[int]) -> TotalOrderResult:
        return build_total_order(self.matrix, client_id, site_order, site_order)

    def ranking(self, client_ids: Sequence[int], site_order: Sequence[int]) -> Ranking:
        """:func:`two_level_ranking` with every site its own provider:
        one round-robin over the announced sites."""
        items = sorted(site_order)
        arrays = {
            "sites": np.array(items, dtype=np.int64),
            "site_provider": np.arange(len(items)),
            "prov_w": self.matrix.winner_codes(list(client_ids), items),
        }
        return two_level_ranking(arrays, [items.index(s) for s in site_order], False)


def _relabel(column: np.ndarray, labels: Dict[int, int]) -> np.ndarray:
    """``column`` with each site of ``labels`` as its label and every
    other cell ``-1`` (unmapped)."""
    out = np.full(len(column), -1, dtype=np.int64)
    for site, label in labels.items():
        out[column == site] = label
    return out


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
        clients = runner.orchestrator.targets.columns.ids
        for (pa, pb), result in zip(provider_pairs, results):
            if isinstance(result, FailedExperiment):
                runner.orchestrator.record_failure(result)
                provider_matrix.record_pair(pa, pb, clients)
                undecided.increment(len(clients))
                continue
            first, second = result.winner_columns(clients)
            provider_matrix.record_pair(
                pa, pb, clients,
                _relabel(first, site_to_provider), _relabel(second, site_to_provider),
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
