"""Two-level (provider-level + site-level) preference discovery.

The paper's scaling technique (S4.3): BGP decides which *provider AS* a
client's traffic enters, and the provider's interior routing decides
which *site* inside it the traffic reaches.  Discovery therefore splits
into O(|I|^2) ordered pairwise experiments between provider
representative sites, plus per-provider site-level experiments — or,
for large networks, the RTT heuristic that ranks a provider's sites by
their measured unicast RTT to the client.

A client's catchment is the head of its two-level total order, and
:func:`two_level_ranking` is the one implementation of that order: the
live model ranks through it over the arrays :meth:`TwoLevelModel.arrays`
compiles, the snapshot lookup of :mod:`repro.serve.lookup` over the same
arrays read back from a file — both over one row per class of clients
with equal codes (:func:`client_classes`) — one client's
``total_order`` is a row of it, and the auditor reads which tournament
voided an order from its masks.  Each caller's memo keeps tournaments
with their tops, so a head costs at most the one provider tournament
its announcement order decides.  The scalar oracle lives with the tests
(``tests/reference_order.py``).

A :class:`FlatPreferenceModel` over all-sites pairwise sweeps is kept
as the naive comparator used by Figure 4c.
"""

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.experiments import ExperimentRunner
from repro.core.prediction import model_clients
from repro.core.preferences import PreferenceMatrix, TotalOrderResult, tournament
from repro.measurement.rtt import RttMatrix
from repro.runtime.executor import CampaignExecutor
from repro.runtime.retry import FailedExperiment
from repro.topology.testbed import Testbed
from repro.util.errors import ConfigurationError, ReproError


@dataclass(frozen=True, eq=False)
class Ranking:
    """Many clients' two-level total orders, as scores (higher =
    preferred): per provider in announcement order, its sites (indices
    on ``sites``, ascending), their ``[clients, sites]`` scores (int16
    wins or negated RTTs), each client's ``top`` position on them and
    its ``usable`` mask — the site tournament usable and transitive, or
    no RTT hole under the heuristic — (all three None for a lone site);
    ``provider_score`` / ``provider_top`` / ``provider_usable`` over the
    providers (None for one).  ``valid``, the AND of every mask, is at
    ``rows``, the rest is gathered there on use; rows without ``valid``
    are unspecified in :meth:`orders`."""

    valid: np.ndarray
    sites: np.ndarray
    groups: Tuple[Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray],
                        Optional[np.ndarray]], ...]
    provider_score: Optional[np.ndarray]
    provider_top: Optional[np.ndarray]
    provider_usable: Optional[np.ndarray]
    rows: Union[np.ndarray, slice]

    def answers(self, rtt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The head view: per client, its catchment — the top site of
        its top provider, ``-1`` without an order — and that site's
        cell of ``rtt`` (``[sites, clients]``; NaN without an order)."""
        n = len(self.valid)
        tops = np.empty((len(self.groups), n), dtype=np.intp)
        for row, (members, _, top, _) in enumerate(self.groups):
            tops[row] = members[0] if top is None else members[top[self.rows]]
        if self.provider_top is not None:
            tops = tops[self.provider_top[self.rows], np.arange(n)][None]
        heads = np.where(self.valid, tops[0], -1)
        return heads, np.where(self.valid, rtt[heads, np.arange(n)], np.nan)

    def orders(self) -> np.ndarray:
        """Each client's whole order, ``[clients, announced sites]``,
        most preferred first: by provider, then by site.  Each distinct
        row is sorted once."""
        if isinstance(self.rows, slice):
            rows, back = self.rows, slice(None)
            n = len(self.valid)
        else:
            rows, back = np.unique(self.rows, return_inverse=True)
            n = len(rows)
        columns = np.array([site for members, *_ in self.groups for site in members], dtype=np.intp)
        # The empty first block keeps an empty order (no sites) stackable.
        site_key = np.hstack([np.zeros((n, 0))] + [
            np.zeros((n, 1)) if score is None else -score[rows] for _, score, *_ in self.groups
        ])
        # int32: numpy's stable sort of 16-bit integers is a radix sort,
        # ten times slower on rows this short.
        provider_key = np.zeros_like(site_key) if self.provider_score is None else np.repeat(
            np.negative(self.provider_score[rows], dtype=np.int32),
            [len(members) for members, *_ in self.groups], axis=1,
        )
        return columns[np.lexsort((site_key, provider_key), axis=1)][back]


#: Most tournaments a :func:`two_level_ranking` memo keeps.
_MEMO_CAP = 64


def client_classes(arrays, rtt_heuristic: bool) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """``arrays`` with one client row per class of equal rows, and each
    row's class.  Rows with equal winner codes share every tournament,
    so :func:`two_level_ranking` over the class rows, at each row's
    class, answers what it answers over every row.  Under
    ``rtt_heuristic`` measured RTTs set (nearly) every client apart, so
    each row is its own class: ``arrays`` itself, uncopied."""
    n = len(arrays["prov_w"])
    if rtt_heuristic:
        return arrays, np.arange(n)
    key = np.hstack([arrays["prov_w"].reshape(n, -1), arrays["site_w"].reshape(n, -1)])
    _, first, classes = np.unique(  # rows as bytes: a 1-D sort
        key.view(np.dtype((np.void, key.shape[1]))).ravel(), return_index=True, return_inverse=True)
    ranked = {**arrays, "prov_w": arrays["prov_w"][first],
              "site_w": arrays["site_w"][first], "rtt": arrays["rtt"][:, first]}
    return ranked, classes.reshape(-1)


def two_level_ranking(arrays, site_order: Sequence[int], rtt_heuristic: bool,
                      rows: Optional[np.ndarray] = None,
                      memo: Optional[dict] = None) -> Ranking:
    """Two-level total orders for every client row of ``arrays``
    (snapshot encoding, :mod:`repro.serve.snapshot`) or for ``rows``;
    ``site_order`` holds site indices in announcement order.

    Providers are ranked by :func:`~repro.core.preferences.tournament`,
    each announced at its first site; the sites inside one by tournament
    with the lower index first or, with ``rtt_heuristic``, by ascending
    RTT (ties to the lower index; a missing sample voids the order).
    A site tournament depends on its sorted members only, a provider one
    on the providers' order; ``memo`` keeps both with their tops across
    calls over the same ``arrays``, dropping the least recently used past
    :data:`_MEMO_CAP` so that site tournaments outlive provider orders.
    """
    memo = {} if memo is None else memo

    def ranked(codes: str, members: List[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(usable, wins, top)`` of a tournament over ``arrays[codes]``."""
        cell = codes, tuple(members)
        entry = memo.pop(cell, None)
        if entry is None:
            if len(memo) >= _MEMO_CAP:
                memo.pop(next(iter(memo)), None)
            usable, wins = tournament(arrays[codes], members)
            entry = usable, wins, wins.argmax(axis=1).astype(np.int16)
            for array in entry:
                array.flags.writeable = False
        memo[cell] = entry  # the most recently used last
        return entry

    announced: Dict[int, List[int]] = {}
    for site, provider in zip(site_order, np.take(arrays["site_provider"], site_order).tolist()):
        announced.setdefault(provider, []).append(site)
    valid = np.ones(len(arrays["prov_w"]), dtype=bool)
    groups = []
    for sites in announced.values():
        members = np.array(sorted(sites), dtype=np.intp)
        score = top = usable = None
        if len(members) > 1 and rtt_heuristic:
            rtt = arrays["rtt"][members]
            holes = np.isnan(rtt)
            usable = ~holes.any(axis=0)
            valid &= usable
            score = np.where(holes, -np.inf, -rtt).T
            top = score.argmax(axis=1)
        elif len(members) > 1:
            usable, score, top = ranked("site_w", members.tolist())
            valid &= usable
        groups.append((members, score, top, usable))
    provider_usable = provider_score = provider_top = None
    if len(groups) > 1:
        provider_usable, provider_score, provider_top = ranked("prov_w", list(announced))
        valid &= provider_usable
    rows = slice(None) if rows is None else rows
    return Ranking(valid[rows], arrays["sites"], tuple(groups),
                   provider_score, provider_top, provider_usable, rows)


class SiteLevelMode(enum.Enum):
    """How intra-provider site preferences are obtained."""

    PAIRWISE = "pairwise"
    RTT_HEURISTIC = "rtt"


class _RankedModel:
    """``total_orders`` and ``total_order`` for a model with ``ranking``."""

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

    def total_order(self, client_id: int, site_order: Sequence[int]) -> TotalOrderResult:
        """The client's total order over the sites in ``site_order``
        (interpreted as the announcement order), built the paper's way:
        rank providers first, then sites within each provider (S5.1).
        Without one, the reason names the first tournament that voids
        it: the providers', else a provider's sites' in announcement
        order."""
        ranking = self.ranking([client_id], site_order)
        if ranking.valid[0]:
            return TotalOrderResult(client_id, tuple(ranking.sites[ranking.orders()[0]].tolist()))
        if ranking.provider_usable is not None and not ranking.provider_usable[ranking.rows][0]:
            return TotalOrderResult(client_id, None, reason="no order among the providers")
        members = next(
            members for members, _, _, usable in ranking.groups
            if usable is not None and not usable[ranking.rows][0]
        )
        sites = tuple(ranking.sites[members].tolist())
        return TotalOrderResult(client_id, None, reason=f"no order among sites {sites}")


@dataclass
class TwoLevelModel(_RankedModel):
    """Discovered preferences, queryable per client and configuration."""

    testbed: Testbed
    provider_matrix: PreferenceMatrix
    site_matrices: Dict[int, PreferenceMatrix]
    rtt_matrix: Optional[RttMatrix]
    site_level_mode: SiteLevelMode
    #: ``(matrix stamps, arrays, site indices, class arrays, each row's
    #: class, tournament memo)``, see :meth:`_compile`.
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
        usable cell, no RTT), with site indices by id, the
        :func:`client_classes` of these arrays and the
        :func:`two_level_ranking` memo over the class arrays."""
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
            rtt_heuristic = self.site_level_mode is SiteLevelMode.RTT_HEURISTIC
            self._compiled = (stamps, arrays, site_index, *client_classes(arrays, rtt_heuristic), {})
        return self._compiled[1:]

    def client_rows(self, client_ids: Sequence[int]) -> np.ndarray:
        """Each client's row of :meth:`arrays` — ``len(clients)``, past
        the last, for a client the model never saw."""
        known = self._compile()[0]["clients"]
        ids = np.asarray(client_ids, dtype=np.int64)
        rows = np.searchsorted(known, ids)
        seen = rows < len(known)
        seen[seen] = known[rows[seen]] == ids[seen]
        rows[~seen] = len(known)  # the unseen client's row
        return rows

    def class_rows(self, client_ids: Sequence[int]) -> np.ndarray:
        """Each client's class: the row :meth:`ranking` reads it at.
        Clients of one class have equal orders under every announcement
        order."""
        return self._compile()[3][self.client_rows(client_ids)]

    def ranking(self, client_ids: Sequence[int], site_order: Sequence[int]) -> Ranking:
        """:func:`two_level_ranking` over the model's client classes, a
        row per entry of ``client_ids`` at its class."""
        if not site_order:
            raise ConfigurationError("empty announcement order")
        _, site_index, ranked, _, memo = self._compile()
        return two_level_ranking(
            ranked, [site_index[site] for site in site_order],
            self.site_level_mode is SiteLevelMode.RTT_HEURISTIC,
            self.class_rows(client_ids), memo,
        )


@dataclass
class FlatPreferenceModel(_RankedModel):
    """Naive model: one pairwise sweep across *all* site pairs.

    Needs O(|S|^2) experiments and, without order modeling, loses most
    clients to cyclic preferences as the site count grows (Figure 4c).
    """

    matrix: PreferenceMatrix

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
    progress=None,
    checkpoint=None,
) -> TwoLevelModel:
    """Run the two-level discovery experiments of S4.3.

    ``ordered=False`` runs the provider-level experiments with
    simultaneous announcements (the naive baseline of Figure 4b).
    ``providers`` restricts discovery to a subset of transit providers
    (used to emulate smaller anycast networks).  Experiment ids are
    reserved in pair order before each sweep runs.

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
        with tracer.span(
            "provider-pairwise", providers=provider_list, ordered=ordered
        ) as phase_span:
            tasks = runner.pairwise_tasks(
                [(reps[pa], reps[pb]) for pa, pb in provider_pairs],
                ordered=ordered,
                parent_span_id=phase_span.span_id,
            )
            results = CampaignExecutor().run_experiments(runner.orchestrator, tasks)
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
        with tracer.span("site-pairwise", providers=provider_list):
            for provider in provider_list:
                if progress is not None and provider in progress.site_matrices:
                    site_matrices[provider] = progress.site_matrices[provider]
                    continue
                sites = testbed.sites_of_provider(provider)
                site_matrices[provider] = (
                    runner.pairwise_sweep(sites, ordered=True)
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
