"""Catchment and RTT prediction for arbitrary configurations.

With total orders and the per-site RTT matrix in hand, predicting a
configuration is pure offline computation: a client's catchment is its
most preferred enabled site, and its RTT is the measured unicast RTT to
that site (S3.4).  ``evaluate`` deploys the configuration on the
simulated Internet and compares — the experiment behind the paper's
Figures 5a-5c.

The query API is :meth:`CatchmentPredictor.predict`: one batched call
returning a typed :class:`Prediction` per client, with an explicit
``reason`` when no (or only a partial) answer exists — ``unmapped``
(the model has never seen the client), ``quarantined`` (the client has
no usable total order under this configuration), or ``rtt-hole`` (a
catchment but no RTT sample for it).  The serving layer
(:mod:`repro.serve`), the audit cross-check, and report rendering all
consume this one result type.

``predict`` holds no ranking logic: it reads the answers of the
model's :func:`~repro.core.twolevel.two_level_ranking` over
``RttMatrix.array`` — the computation the snapshot lookup engine
answers through too — and hands them to the columnar
:class:`PredictionBatch`.  Its per-client reference lives in
``tests/test_prediction.py``.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import AnycastConfig
from repro.measurement.orchestrator import Deployment
from repro.measurement.rtt import RttMatrix
from repro.measurement.targets import PingTarget
from repro.util.errors import ReproError
from repro.util.stats import mean, relative_error

#: ``Prediction.reason`` values (empty string means a full answer).
REASON_UNMAPPED = "unmapped"
REASON_QUARANTINED = "quarantined"
REASON_RTT_HOLE = "rtt-hole"


@dataclass(frozen=True)
class Prediction:
    """One client's predicted catchment under one configuration.

    ``site`` and ``rtt_ms`` are both set for a full answer; ``reason``
    explains anything missing:

    - ``"unmapped"`` — the model holds no observations for this client
      at all (``site`` and ``rtt_ms`` are None);
    - ``"quarantined"`` — the client has no usable total order under
      this configuration (cycle, inconsistent/undecided/unmeasured
      cells — the same set the audit layer quarantines);
    - ``"rtt-hole"`` — the catchment is known but the RTT matrix has
      no sample for (site, client).
    """

    client_id: int
    site: Optional[int]
    rtt_ms: Optional[float]
    reason: str = ""

    @property
    def decided(self) -> bool:
        """True when the client's catchment is predicted."""
        return self.site is not None

    def to_dict(self) -> dict:
        return {
            "client_id": self.client_id,
            "site": self.site,
            "rtt_ms": self.rtt_ms,
            "decided": self.decided,
            "reason": self.reason,
        }


def encode_row(client_id: int, site: Optional[int], rtt_ms: Optional[float],
               reason: str) -> bytes:
    """One served row: the bytes ``json.dumps`` makes of
    :meth:`Prediction.to_dict` for an int id, an int-or-None site, a
    finite-float-or-None RTT and a ``reason`` from the taxonomy above."""
    site_text = "null" if site is None else int.__repr__(site)
    rtt_text = "null" if rtt_ms is None else float.__repr__(rtt_ms)
    return (
        f'{{"client_id": {int.__repr__(client_id)}, "site": {site_text}, '
        f'"rtt_ms": {rtt_text}, "decided": {"false" if site is None else "true"}, '
        f'"reason": "{reason}"}}'
    ).encode("ascii")


@dataclass(eq=False)
class PredictionBatch:
    """Predictions for a batch of clients, in request order, as columns.

    The one place a (site, rtt) answer becomes predictions:
    ``answer_sites[p]`` indexes ``site_ids`` (``-1`` = quarantined),
    ``answer_rtts[p]`` is the predicted RTT (NaN = quarantined or no
    sample), and ``positions`` gives each requested client's ``p`` —
    None for a client the model has never seen.  Both answers index to
    exact Python ints and floats (an array's ``tolist()`` or an
    ``array("d")`` of its bytes; float64 round-trips exactly), an order
    of magnitude faster than per-client numpy scalar extraction.
    ``cached_rows[i][p]``, when given, is the cell for the served row
    of the client at ``p`` answered with site index ``i``: None until
    :meth:`to_json` encodes that row and leaves it there.

    The summary figures and :meth:`to_json` read the columns;
    :class:`Prediction` rows exist only once someone iterates, indexes,
    compares or asks for :attr:`predictions`.
    """

    config: AnycastConfig
    client_ids: Sequence[int]
    positions: Sequence[Optional[int]]
    answer_sites: Sequence[int]
    answer_rtts: Sequence[float]
    site_ids: Sequence[int]
    cached_rows: Optional[Sequence[List[Optional[bytes]]]] = None

    def _fields(self, client_id: int, pos: Optional[int]) -> tuple:
        """One row's ``(client_id, site, rtt_ms, reason)``: the taxonomy."""
        if pos is None:
            return client_id, None, None, REASON_UNMAPPED
        idx = self.answer_sites[pos]
        if idx < 0:
            return client_id, None, None, REASON_QUARANTINED
        value = self.answer_rtts[pos]
        if value != value:  # NaN: predicted site but no RTT cell
            return client_id, self.site_ids[idx], None, REASON_RTT_HOLE
        return client_id, self.site_ids[idx], value, ""

    @cached_property
    def predictions(self) -> List[Prediction]:
        """The rows as :class:`Prediction` objects, built on first use."""
        rows = map(self._fields, self.client_ids, self.positions)
        return [Prediction(*row) for row in rows]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PredictionBatch):
            return NotImplemented
        return (self.config, self.predictions) == (other.config, other.predictions)

    def __len__(self) -> int:
        return len(self.client_ids)

    def __iter__(self):
        return iter(self.predictions)

    def __getitem__(self, index: int) -> Prediction:
        return self.predictions[index]

    @cached_property
    def _census(self) -> Tuple[int, List[float], Dict[str, int]]:
        """``(decided, rtts, reason counts)`` in request order, in one
        pass (:meth:`_fields` inlined: this runs per served request)."""
        sites, answer_rtts = self.answer_sites, self.answer_rtts
        decided = 0
        rtts: List[float] = []
        reasons: Dict[str, int] = {}
        for pos in self.positions:
            if pos is None:
                reason = REASON_UNMAPPED
            elif sites[pos] < 0:
                reason = REASON_QUARANTINED
            else:
                decided += 1
                value = answer_rtts[pos]
                if value == value:
                    rtts.append(value)
                    continue
                reason = REASON_RTT_HOLE
            reasons[reason] = reasons.get(reason, 0) + 1
        return decided, rtts, reasons

    @property
    def decided_count(self) -> int:
        return self._census[0]

    @property
    def mean_rtt_ms(self) -> Optional[float]:
        """Mean predicted RTT over clients with an RTT, or None when
        the batch has none (never raises — the serving layer turns an
        empty answer into a structured error, not a 500)."""
        rtts = self._census[1]
        return mean(rtts) if rtts else None

    def counts_by_reason(self) -> Dict[str, int]:
        """How many predictions carry each non-empty ``reason``."""
        return dict(self._census[2])

    def sites(self) -> Dict[int, Optional[int]]:
        """client id -> predicted site (None when undecided)."""
        rows = map(self._fields, self.client_ids, self.positions)
        return {client_id: site for client_id, site, _, _ in rows}

    def _head(self) -> dict:
        return {
            "sites": list(self.config.site_order),
            "summary": {
                "clients": len(self),
                "decided": self.decided_count,
                "mean_rtt_ms": self.mean_rtt_ms,
                "reasons": self.counts_by_reason(),
            },
        }

    def to_dict(self) -> dict:
        """The JSON-ready dict view (CLI, tests); the server sends :meth:`to_json`."""
        return {**self._head(), "predictions": [p.to_dict() for p in self.predictions]}

    def to_json(self, model_version: str) -> bytes:
        """The served ``/predict`` body: byte for byte
        ``json.dumps({**self.to_dict(), "model_version": model_version})``,
        joined from :func:`encode_row` bytes (kept in the row's
        ``cached_rows`` cell where it has one), no dict in between."""
        cached, answer_sites = self.cached_rows, self.answer_sites

        def encode(client_id, pos):
            row = encode_row(*self._fields(client_id, pos))
            if cached is not None and pos is not None:
                cached[answer_sites[pos]][pos] = row
            return row

        # A row with a filled cell is that cell (bytes are never empty,
        # so ``or`` falls through only on no table, no cell or None).
        rows = [
            cached is not None and pos is not None and cached[answer_sites[pos]][pos]
            or encode(client_id, pos)
            for client_id, pos in zip(self.client_ids, self.positions)
        ]
        head = json.dumps(self._head())[:-1] + ', "predictions": ['
        tail = f'], "model_version": {json.dumps(model_version)}}}'
        return b"".join((head.encode("ascii"), b", ".join(rows), tail.encode("ascii")))


def model_clients(model, rtt_matrix: Optional[RttMatrix] = None) -> FrozenSet[int]:
    """Every client id the model holds observations for.

    Duck-typed over the model kinds ``CatchmentPredictor`` accepts: a
    :class:`~repro.core.twolevel.TwoLevelModel` (provider matrix plus
    per-provider site matrices) or a
    :class:`~repro.core.twolevel.FlatPreferenceModel` (one flat
    matrix).  RTT-matrix targets count too — a client with only RTT
    samples is *known*, merely quarantined for catchment purposes.

    ``TwoLevelModel.arrays`` — what a snapshot stores — spans this
    set, so a snapshot-backed lookup and the live predictor agree on
    which clients are ``unmapped``.
    """
    clients = set()
    provider_matrix = getattr(model, "provider_matrix", None)
    if provider_matrix is not None:
        clients.update(provider_matrix.clients())
    for matrix in getattr(model, "site_matrices", {}).values():
        clients.update(matrix.clients())
    flat = getattr(model, "matrix", None)
    if flat is not None:
        clients.update(flat.clients())
    if rtt_matrix is not None:
        clients.update(t for _, t in rtt_matrix.values)
    return frozenset(clients)


def _client_id(client) -> int:
    """Accept raw ids and ``PingTarget``-likes interchangeably."""
    return getattr(client, "target_id", client)


@dataclass
class PredictionReport:
    """Predicted-versus-measured comparison for one configuration."""

    config: AnycastConfig
    n_targets: int
    n_predicted: int
    n_correct: int
    predicted_mean_rtt: float
    measured_mean_rtt: float

    @property
    def accuracy(self) -> float:
        """Fraction of predicted clients whose measured catchment
        matched (paper: 94.7% on average)."""
        if self.n_predicted == 0:
            raise ReproError("no predictable clients to score")
        return self.n_correct / self.n_predicted

    @property
    def accuracy_or_none(self) -> Optional[float]:
        """Like :attr:`accuracy`, but None for an empty batch instead
        of raising — for callers (the HTTP layer, report renderers)
        that must degrade structurally rather than error."""
        if self.n_predicted == 0:
            return None
        return self.n_correct / self.n_predicted

    @property
    def coverage(self) -> float:
        """Fraction of clients for which a prediction was made."""
        return self.n_predicted / self.n_targets if self.n_targets else 0.0

    @property
    def abs_rtt_error_ms(self) -> float:
        return abs(self.predicted_mean_rtt - self.measured_mean_rtt)

    @property
    def rel_rtt_error(self) -> float:
        return relative_error(self.predicted_mean_rtt, self.measured_mean_rtt)


class CatchmentPredictor:
    """Predicts catchments and RTTs from a preference model.

    ``model`` is anything exposing
    ``ranking(client_ids, site_order) -> Ranking`` — a
    :class:`~repro.core.twolevel.TwoLevelModel` or the naive
    :class:`~repro.core.twolevel.FlatPreferenceModel`.
    """

    def __init__(self, model, rtt_matrix: RttMatrix):
        self.model = model
        self.rtt_matrix = rtt_matrix
        self._known_clients: Optional[FrozenSet[int]] = None

    def known_clients(self) -> FrozenSet[int]:
        """Clients the model holds any observation for (cached)."""
        if self._known_clients is None:
            self._known_clients = model_clients(self.model, self.rtt_matrix)
        return self._known_clients

    # -- prediction ------------------------------------------------------------

    def predict(self, config: AnycastConfig, clients: Iterable) -> PredictionBatch:
        """Predict catchment and RTT for a batch of clients.

        ``clients`` is an iterable of client ids or
        :class:`~repro.measurement.targets.PingTarget`-likes; the
        batch preserves its order.  Never raises on a missing answer —
        each :class:`Prediction` carries its ``reason`` instead.
        """
        known = self.known_clients()
        client_ids = [_client_id(client) for client in clients]
        # One answer column per distinct known client.
        column: Dict[int, int] = {}
        positions = [
            column.setdefault(cid, len(column)) if cid in known else None
            for cid in client_ids
        ]
        asked = list(column)
        ranking = self.model.ranking(asked, config.site_order)
        sites = ranking.sites.tolist()
        site_index, rtt = ranking.answers(self.rtt_matrix.array(sites, asked))
        return PredictionBatch(
            config, client_ids, positions, site_index.tolist(), rtt.tolist(), sites
        )

    # -- batch conveniences ----------------------------------------------------

    def predict_catchments(
        self, config: AnycastConfig, targets: Iterable[PingTarget]
    ) -> Dict[int, Optional[int]]:
        """client id -> predicted site (None when undecided)."""
        return self.predict(config, targets).sites()

    def predict_mean_rtt(self, config: AnycastConfig, targets: Iterable[PingTarget]) -> float:
        """Predicted mean RTT over all predictable clients."""
        rtt = self.predict(config, targets).mean_rtt_ms
        if rtt is None:
            raise ReproError("no client is predictable under this configuration")
        return rtt

    # -- evaluation ---------------------------------------------------------------

    def evaluate(
        self,
        config: AnycastConfig,
        deployment: Deployment,
        targets: Iterable[PingTarget],
        metrics=None,
    ) -> PredictionReport:
        """Compare predictions against a real (simulated) deployment.

        Catchment accuracy is scored over clients with a prediction
        and a measured catchment; the measured mean RTT includes
        unpredictable clients too, exactly as the paper does (S4.2).

        ``metrics`` (a :class:`~repro.runtime.metrics.MetricsRegistry`)
        receives the per-target predicted RTT distribution in the
        ``predicted_rtt_ms`` histogram.
        """
        targets = list(targets)
        measured_map = deployment.measure_catchments(targets)
        batch = self.predict(config, targets)
        n_predicted = 0
        n_correct = 0
        predicted_rtts: List[float] = []
        measured_rtts = [r for r in deployment.measure_rtts(targets) if r is not None]
        for target, prediction in zip(targets, batch):
            measured_site = measured_map.site_of(target.target_id)
            if not prediction.decided:
                continue
            if prediction.rtt_ms is not None:
                predicted_rtts.append(prediction.rtt_ms)
            if measured_site is None:
                continue
            n_predicted += 1
            if prediction.site == measured_site:
                n_correct += 1
        if metrics is not None:
            histogram = metrics.histogram("predicted_rtt_ms")
            for rtt in predicted_rtts:
                histogram.observe(rtt)
        if not predicted_rtts or not measured_rtts:
            raise ReproError("configuration produced no comparable RTTs")
        return PredictionReport(
            config=config,
            n_targets=len(targets),
            n_predicted=n_predicted,
            n_correct=n_correct,
            predicted_mean_rtt=mean(predicted_rtts),
            measured_mean_rtt=mean(measured_rtts),
        )
