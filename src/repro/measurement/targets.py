"""Ping-target selection.

The paper's targets are routers in or near client networks, chosen by
merging end-user paths into a tree and picking the common ancestor
closest to the end users (S3.2) — 15,300 addresses across 12,143 /24
prefixes and 5,317 ASes.  Here targets are synthesized per client AS of
the generated topology: each target carries a last-mile RTT (the
distance between the representative router and the AS border) and a
loss rate, so the median-of-seven filtering in the RTT estimator has
something to filter.
"""

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.topology.generator import Internet
from repro.util.errors import MeasurementError
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class PingTarget:
    """A representative router address inside a client network.

    ``weight`` is the client network's workload share (e.g. query
    volume); Appendix B's weighted objective multiplies each client's
    RTT by it.
    """

    target_id: int
    asn: int
    prefix: str
    last_mile_rtt_ms: float
    loss_rate: float
    weight: float = 1.0

    def __post_init__(self):
        if self.target_id < 0:
            # An id addresses the target's noise words: it has none below 0.
            raise MeasurementError(f"target {self.target_id}: negative target id")
        if not 0.0 <= self.loss_rate < 1.0:
            raise MeasurementError(
                f"target {self.target_id}: loss rate must be in [0, 1)"
            )
        if self.last_mile_rtt_ms < 0:
            raise MeasurementError(
                f"target {self.target_id}: negative last-mile RTT"
            )
        if self.weight <= 0:
            raise MeasurementError(
                f"target {self.target_id}: weight must be positive"
            )


class ProbeColumns(NamedTuple):
    """What probing reads of a target list, as columns in list order:
    ids and ASNs as tuples (dict and flow keys), the ids once more as an
    int64 array (noise addresses) and the noise model's per-target
    constants as arrays — a pure function of the targets."""

    ids: Tuple[int, ...]
    asns: Tuple[int, ...]
    id_array: np.ndarray
    loss_rates: np.ndarray
    last_mile_ms: np.ndarray

    @classmethod
    def of(cls, targets: Union["TargetSet", Iterable[PingTarget]]) -> "ProbeColumns":
        if isinstance(targets, TargetSet):
            return targets.columns
        targets = list(targets)
        ids = tuple(t.target_id for t in targets)
        return cls(
            ids,
            tuple(t.asn for t in targets),
            np.array(ids, dtype=np.int64),
            np.array([t.loss_rate for t in targets]),
            np.array([t.last_mile_rtt_ms for t in targets]),
        )


class TargetSet:
    """An ordered collection of ping targets with per-AS lookup."""

    def __init__(self, targets: Sequence[PingTarget]):
        self._targets = list(targets)
        self._by_asn: Dict[int, List[PingTarget]] = {}
        seen = set()
        for t in self._targets:
            if t.target_id in seen:
                raise MeasurementError(f"duplicate target id {t.target_id}")
            seen.add(t.target_id)
            self._by_asn.setdefault(t.asn, []).append(t)

    @functools.cached_property
    def columns(self) -> ProbeColumns:
        """The set's :class:`ProbeColumns` — targets are frozen, so
        they are computed once, by the first probing pass (a campaign
        that never probes never pays for them)."""
        return ProbeColumns.of(self._targets)

    def __len__(self) -> int:
        return len(self._targets)

    def __iter__(self) -> Iterator[PingTarget]:
        return iter(self._targets)

    def __getitem__(self, index: int) -> PingTarget:
        return self._targets[index]

    def asns(self) -> List[int]:
        return sorted(self._by_asn)

    def in_as(self, asn: int) -> List[PingTarget]:
        return list(self._by_asn.get(asn, ()))

    def by_id(self, target_id: int) -> PingTarget:
        # Target ids are assigned densely by select_targets, so direct
        # indexing is valid there; this method is the safe general path.
        for t in self._targets:
            if t.target_id == target_id:
                return t
        raise MeasurementError(f"unknown target {target_id}")


def select_targets(
    internet: Internet,
    targets_per_as_min: int = 1,
    targets_per_as_max: int = 4,
    lossy_fraction: float = 0.08,
    max_loss_rate: float = 0.35,
    weighted: bool = False,
    seed=0,
) -> TargetSet:
    """Select ping targets for every client AS of ``internet``.

    Mirrors the paper's density of roughly three targets per client AS.
    A small fraction of targets sits behind lossy links; the RTT
    estimator must still produce a median from at least three valid
    replies for them (S3, "Measuring RTTs").

    With ``weighted=True`` each target carries a heavy-tailed workload
    weight (lognormal), for Appendix B's workload-weighted objective;
    otherwise all weights are 1.
    """
    if targets_per_as_min < 1 or targets_per_as_max < targets_per_as_min:
        raise MeasurementError("invalid targets-per-AS bounds")
    rng = derive_rng(seed, "targets")
    targets: List[PingTarget] = []
    next_id = 0
    for asn in internet.graph.client_asns():
        if not internet.graph.as_of(asn).hosts_clients:
            # Content/infrastructure stubs serve no end users: nothing
            # worth probing lives there (S3.2 targets sit near users).
            continue
        count = rng.randint(targets_per_as_min, targets_per_as_max)
        for i in range(count):
            lossy = rng.random() < lossy_fraction
            targets.append(
                PingTarget(
                    target_id=next_id,
                    asn=asn,
                    prefix=f"10.{(asn >> 8) & 255}.{asn & 255}.{i}/24",
                    last_mile_rtt_ms=round(rng.uniform(0.5, 12.0), 3),
                    loss_rate=round(rng.uniform(0.05, max_loss_rate), 3) if lossy else 0.0,
                    weight=round(rng.lognormvariate(0.0, 1.0), 4) if weighted else 1.0,
                )
            )
            next_id += 1
    if not targets:
        raise MeasurementError("topology has no client ASes to target")
    return TargetSet(targets)
