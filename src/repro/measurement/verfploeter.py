"""Catchment mapping (the Verfploeter technique).

An echo request is sent to each target with the anycast prefix as its
source address; the reply routes to the target's catchment site and
arrives at the orchestrator through that site's GRE tunnel, which
identifies the catchment (S3, "Measuring Catchments").  A target whose
probes are all lost stays unmapped for that experiment.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget, ProbeColumns, TargetSet
from repro.util.errors import MeasurementError


@dataclass(eq=False)
class CatchmentMap:
    """One experiment's catchments as a column: ``sites[j]`` is the
    catchment site of probed target ``ids[j]``, ``-1`` while unmapped.

    Every other view reads the column; only :meth:`site_of` (and
    :attr:`mapping` lookups) index targets by id, through a position
    table made on first use.
    """

    experiment_id: int
    ids: Tuple[int, ...] = ()
    sites: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    _position: Optional[Dict[int, int]] = field(default=None, init=False, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CatchmentMap):
            return NotImplemented
        return (self.experiment_id, self.ids) == (other.experiment_id, other.ids) and (
            np.array_equal(self.sites, other.sites)
        )

    @property
    def mapping(self) -> "Mapping[int, Optional[int]]":
        """target id -> catchment site id (None while unmapped), a
        read-only view in probing order."""
        return _MappingView(self)

    def site_of(self, target_id: int) -> Optional[int]:
        if self._position is None:
            self._position = {t: j for j, t in enumerate(self.ids)}
        try:
            site = int(self.sites[self._position[target_id]])
        except KeyError:
            raise MeasurementError(
                f"target {target_id} was not probed in experiment "
                f"{self.experiment_id}"
            ) from None
        return None if site < 0 else site

    def targets_of_site(self, site_id: int) -> Set[int]:
        return {self.ids[j] for j in np.flatnonzero(self.sites == site_id).tolist()}

    def mapped_count(self) -> int:
        return int(np.count_nonzero(self.sites >= 0))

    def catchment_sizes(self) -> Dict[int, int]:
        """Mapped targets per site, sites in order of first appearance."""
        mapped = self.sites[self.sites >= 0]
        sites, first, counts = np.unique(mapped, return_index=True, return_counts=True)
        order = np.argsort(first)
        return dict(zip(sites[order].tolist(), counts[order].tolist()))


class _MappingView(Mapping):
    """:attr:`CatchmentMap.mapping`."""

    def __init__(self, cmap: CatchmentMap):
        self._cmap = cmap

    def __getitem__(self, target_id: int) -> Optional[int]:
        try:
            return self._cmap.site_of(target_id)
        except MeasurementError:
            raise KeyError(target_id) from None

    def __iter__(self) -> Iterator[int]:
        return iter(self._cmap.ids)

    def __len__(self) -> int:
        return len(self._cmap.ids)


def measure_catchments(
    deployment,
    targets: Union[TargetSet, Sequence[PingTarget]],
    prober: IcmpProber,
    retries: int = 3,
) -> CatchmentMap:
    """Map every target's catchment under ``deployment``.

    ``deployment`` must expose ``experiment_id`` and ``dataplane`` (a
    :class:`~repro.bgp.dataplane.DataPlane`; see
    :class:`repro.measurement.orchestrator.Deployment`).  One pass maps
    all targets (:meth:`DataPlane.resolve_flows
    <repro.bgp.dataplane.DataPlane.resolve_flows>`, the target id as
    flow key), each probed up to ``1 + retries`` times; only the loss
    decision of a probe is read (a target without a loss rate never
    loses one) — a reply identifies the catchment by the tunnel it
    arrives through, never by its RTT.
    """
    columns = ProbeColumns.of(targets)
    experiment_id = deployment.experiment_id
    sites, rtts = deployment.dataplane.resolve_flows(columns.asns, columns.ids)
    unmapped = np.isnan(rtts)
    silent = np.ones(len(sites), dtype=bool)
    for attempt in range(1 + retries):
        silent &= prober.lost(columns.id_array, columns.loss_rates, experiment_id, 100 + attempt)
    sites = np.where(unmapped | silent, -1, sites)
    return CatchmentMap(experiment_id, columns.ids, sites)
