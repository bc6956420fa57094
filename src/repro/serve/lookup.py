"""Batched catchment lookup over a model snapshot.

The :class:`LookupEngine` answers the queries of the live
:class:`~repro.core.prediction.CatchmentPredictor` for *all* snapshot
clients at once, from the snapshot's arrays alone.  It holds no ranking
of its own: both run :func:`~repro.core.twolevel.two_level_ranking`
over the arrays :meth:`~repro.core.twolevel.TwoLevelModel.arrays`
compiles, so served and predicted answers are one computation over the
same bytes — equal by construction — and both hand them to the one
columnar :class:`~repro.core.prediction.PredictionBatch`, which owns the
reason taxonomy and the conversion back to exact Python ints and floats.
The engine ranks one row per class of clients with equal codes
(:func:`~repro.core.twolevel.client_classes`), and its tournament and
answer memos drop the least recently used entry.

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
from repro.core.twolevel import client_classes, two_level_ranking
from repro.serve.snapshot import Snapshot, SnapshotError
from repro.util.errors import ConfigurationError

#: Cached (site, rtt) answer vectors kept per engine.  Serving traffic
#: is heavily repeated-config, so this turns steady-state ``/predict``
#: into pure indexing; the cap bounds memory for config sweeps, which
#: evict the least recently used configuration first.
_CACHE_CAP = 128


class LookupEngine:
    """Answers catchment/RTT queries for a :class:`Snapshot`.

    The engine never mutates the snapshot; hot reload swaps in a whole
    new engine, so in-flight requests keep a consistent view.
    """

    def __init__(self, snapshot: Snapshot):
        self.snapshot = snapshot
        self._rtt_heuristic = snapshot.site_level_mode == "rtt"
        # Plain Python ints, once: dict keys, batch columns, served ids.
        self._client_ids = snapshot.arrays["clients"].tolist()
        self._site_ids = snapshot.arrays["sites"].tolist()
        self._client_pos: Dict[int, int] = {cid: i for i, cid in enumerate(self._client_ids)}
        self._site_pos: Dict[int, int] = {sid: i for i, sid in enumerate(self._site_ids)}
        #: Encoded rows by [site index][client position]; ``[-1]`` is
        #: the quarantined answer.  Batches fill the cells they encode.
        self._rows = [[None] * len(self._client_ids) for _ in range(len(self._site_ids) + 1)]
        self._answers: Dict[Tuple[int, ...], Tuple[array, array]] = {}
        self._ranked, self._classes = client_classes(snapshot.arrays, self._rtt_heuristic)
        #: :func:`two_level_ranking`'s tournaments over the class rows.
        self._tournaments: dict = {}

    @property
    def version(self) -> str:
        return self.snapshot.version

    def client_ids(self) -> Tuple[int, ...]:
        return tuple(self._client_ids)

    def site_ids(self) -> Tuple[int, ...]:
        return tuple(self._site_ids)

    # -- vectorized core -------------------------------------------------------

    def predict_arrays(self, site_order: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """``(site_index, rtt)`` for *every* snapshot client: the
        :meth:`~repro.core.twolevel.Ranking.answers` of the snapshot's
        arrays (``-1`` / NaN = quarantined; NaN alone = rtt-hole).
        Answers are not memoized here; :meth:`predict` adds that memo.
        """
        if not site_order:
            raise ConfigurationError("empty announcement order")
        unknown = [s for s in site_order if s not in self._site_pos]
        if unknown:
            raise SnapshotError(f"sites {unknown} are not in this snapshot")
        return two_level_ranking(
            self._ranked, [self._site_pos[s] for s in site_order], self._rtt_heuristic,
            self._classes, self._tournaments,
        ).answers(self.snapshot.arrays["rtt"])

    # -- typed batch API -------------------------------------------------------

    def _answers_for(self, site_order: Tuple[int, ...]) -> Tuple[array, array]:
        """:meth:`predict_arrays` through the per-config memo."""
        key = tuple(site_order)
        cached = self._answers.pop(key, None)
        if cached is None:
            site_index, rtt = self.predict_arrays(key)
            # Both stay packed and index to Python ints and floats, ~11 KB
            # a configuration where a list of site indices made it 18 (a
            # snapshot's [clients, sites, sites] codes keep the site count
            # far inside int16).
            cached = array("h", site_index.astype(np.int16).tobytes()), array("d", rtt.tobytes())
            if len(self._answers) >= _CACHE_CAP:
                self._answers.pop(next(iter(self._answers)), None)
        self._answers[key] = cached  # the most recently used last
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
