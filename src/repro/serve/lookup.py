"""Batched, vectorized catchment lookup over a model snapshot.

The :class:`LookupEngine` answers the queries of the live
:class:`~repro.core.prediction.CatchmentPredictor` from a snapshot's
arrays alone — no model, testbed or measurement objects — for *all*
snapshot clients at once with dense array indexing:

- provider level: the effective winner of every ordered provider pair
  comes from one ``prov_w[:, i, j]`` slice (provider ``i`` announced
  first); a client has a provider order iff every pair is usable and
  its win counts are a permutation of ``0..P-1`` — the shared
  :func:`~repro.core.preferences.tournament`;
- site level, inside each enabled provider: either the analogous
  ``site_w`` tournament (announce order = sorted site ids, so the
  lower-indexed site is always first) or the S4.3 RTT heuristic
  (argmin over per-site RTT with any hole invalidating the ranking);
- the catchment is the top site of the top provider, and the predicted
  RTT is the (site, client) cell of the RTT matrix.

Predictions are byte-identical to ``CatchmentPredictor.predict``: both
run the same tournament over the same winner codes and RTT array, and
both hand their ``(site_index, rtt)`` answer vectors to the one
columnar :class:`~repro.core.prediction.PredictionBatch`, which owns the
reason taxonomy (``unmapped`` / ``quarantined`` / ``rtt-hole``) and the
conversion back to exact Python ints and floats.

A mapped client's served row depends only on (site index, client
position) — its RTT is a cell of the snapshot's matrix — so the engine
hands every batch one table of encoded rows: a row is encoded the first
time ``PredictionBatch.to_json`` serves it and joined as bytes from then
on.  Filled, the table is about 2 MB for 15 sites x 1120 clients.
"""

from array import array
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import AnycastConfig
from repro.core.prediction import PredictionBatch
from repro.core.preferences import tournament
from repro.serve.snapshot import Snapshot, SnapshotError
from repro.util.errors import ConfigurationError

#: Cached (site, rtt) answer vectors kept per engine.  Serving traffic
#: is heavily repeated-config, so this turns steady-state ``/predict``
#: into pure indexing; the cap bounds memory for config sweeps.
_CACHE_CAP = 128


class LookupEngine:
    """Answers catchment/RTT queries for a :class:`Snapshot`.

    The engine never mutates the snapshot; hot reload swaps in a whole
    new engine, so in-flight requests keep a consistent view.
    """

    def __init__(self, snapshot: Snapshot):
        self.snapshot = snapshot
        arrays = snapshot.arrays
        self._clients = arrays["clients"]
        self._sites = arrays["sites"]
        self._site_provider = arrays["site_provider"]
        self._prov_w = arrays["prov_w"]
        self._site_w = arrays["site_w"]
        self._rtt = arrays["rtt"]
        # Plain Python ints, once: dict keys, batch columns, served ids.
        self._client_ids = self._clients.tolist()
        self._site_ids = self._sites.tolist()
        self._client_pos: Dict[int, int] = {cid: i for i, cid in enumerate(self._client_ids)}
        self._site_pos: Dict[int, int] = {sid: i for i, sid in enumerate(self._site_ids)}
        #: Encoded rows by [site index][client position]; ``[-1]`` is
        #: the quarantined answer.  Batches fill the cells they encode.
        self._rows = [[None] * len(self._client_ids) for _ in range(len(self._site_ids) + 1)]
        self._answers: Dict[Tuple[int, ...], Tuple[list, array]] = {}

    @property
    def version(self) -> str:
        return self.snapshot.version

    def client_ids(self) -> Tuple[int, ...]:
        return tuple(self._client_ids)

    def site_ids(self) -> Tuple[int, ...]:
        return tuple(self._site_ids)

    def knows_site(self, site_id: int) -> bool:
        return site_id in self._site_pos

    # -- vectorized core -------------------------------------------------------

    def predict_arrays(
        self, site_order: Tuple[int, ...]
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Answers for *every* snapshot client, as arrays.

        Returns ``(site_index, rtt)``: per client, the index into the
        snapshot's site vector (``-1`` = quarantined) and the predicted
        RTT (NaN = quarantined or rtt-hole).  Uncached; :meth:`predict`
        adds the per-config memo on top.
        """
        if not site_order:
            raise ConfigurationError("empty announcement order")
        unknown = [s for s in site_order if s not in self._site_pos]
        if unknown:
            raise SnapshotError(f"sites {unknown} are not in this snapshot")

        n_clients = len(self._clients)
        # Providers in first-appearance order, each with its enabled
        # site indices — mirroring TwoLevelModel.total_order's grouping.
        prov_order = []
        prov_sites: Dict[int, list] = {}
        for site in site_order:
            site_idx = self._site_pos[site]
            provider = int(self._site_provider[site_idx])
            if provider not in prov_sites:
                prov_sites[provider] = []
                prov_order.append(provider)
            prov_sites[provider].append(site_idx)

        n_prov = len(prov_order)
        site_valid = np.ones((n_prov, n_clients), dtype=bool)
        top_site = np.empty((n_prov, n_clients), dtype=np.int64)
        rtt_mode = self.snapshot.site_level_mode == "rtt"
        for row, provider in enumerate(prov_order):
            # Ascending index == ascending site id == the announce
            # order site_ranking_within uses (sorted(sites)).
            members = sorted(prov_sites[provider])
            if len(members) == 1:
                top_site[row, :] = members[0]
                continue
            if rtt_mode:
                sub = self._rtt[members, :]
                site_valid[row] = ~np.isnan(sub).any(axis=0)
                filled = np.where(np.isnan(sub), np.inf, sub)
                # argmin's first-occurrence tie-break = lowest site id,
                # matching sorted((rtt, site)) in the live model.
                top_site[row] = np.asarray(members, dtype=np.int64)[
                    np.argmin(filled, axis=0)
                ]
            else:
                site_valid[row], wins = tournament(self._site_w, members)
                top_site[row] = np.asarray(members, dtype=np.int64)[
                    np.argmax(wins, axis=1)
                ]

        if n_prov == 1:
            decided = site_valid[0]
            catchment = top_site[0]
        else:
            prov_valid, wins = tournament(self._prov_w, prov_order)
            top_prov = np.argmax(wins, axis=1)
            # The live path needs *every* enabled provider's site
            # ranking, not just the winner's (total_order builds the
            # full order before most_preferred picks its head).
            decided = prov_valid & site_valid.all(axis=0)
            catchment = top_site[top_prov, np.arange(n_clients)]

        site_index = np.where(decided, catchment, -1)
        rtt = np.full(n_clients, np.nan, dtype=np.float64)
        rtt[decided] = self._rtt[catchment[decided], np.flatnonzero(decided)]
        return site_index, rtt

    # -- typed batch API -------------------------------------------------------

    def _answers_for(self, site_order: Tuple[int, ...]) -> Tuple[list, array]:
        """:meth:`predict_arrays` through the per-config memo."""
        key = tuple(site_order)
        cached = self._answers.get(key)
        if cached is None:
            site_index, rtt = self.predict_arrays(key)
            # Site indices are interned small ints; the RTTs stay
            # packed (a list would hold 1120 float objects a config).
            cached = site_index.tolist(), array("d", rtt.tobytes())
            if len(self._answers) >= _CACHE_CAP:
                self._answers.clear()
            self._answers[key] = cached
        return cached

    def predict(
        self, config: AnycastConfig, clients: Optional[Iterable] = None
    ) -> PredictionBatch:
        """Predict a batch — same signature, same result type, same
        bytes as ``CatchmentPredictor.predict``.

        ``clients=None`` answers for every client in the snapshot, in
        snapshot (sorted-id) order.
        """
        answer_sites, answer_rtts = self._answers_for(config.site_order)
        if clients is None:
            client_ids = self._client_ids
            positions: Sequence[Optional[int]] = range(len(client_ids))
        else:
            client_ids = [getattr(c, "target_id", c) for c in clients]
            positions = [self._client_pos.get(cid) for cid in client_ids]
        return PredictionBatch(
            config, client_ids, positions, answer_sites, answer_rtts,
            self._site_ids, cached_rows=self._rows,
        )
