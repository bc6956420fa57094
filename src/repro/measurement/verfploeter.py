"""Catchment mapping (the Verfploeter technique).

An echo request is sent to each target with the anycast prefix as its
source address; the reply routes to the target's catchment site and
arrives at the orchestrator through that site's GRE tunnel, which
identifies the catchment (S3, "Measuring Catchments").  A target whose
probes are all lost stays unmapped for that experiment.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Union

import numpy as np

from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget, ProbeColumns, TargetSet
from repro.util.errors import MeasurementError


@dataclass
class CatchmentMap:
    """target id -> catchment site id (None while unmapped)."""

    experiment_id: int
    mapping: Dict[int, Optional[int]] = field(default_factory=dict)

    def site_of(self, target_id: int) -> Optional[int]:
        try:
            return self.mapping[target_id]
        except KeyError:
            raise MeasurementError(
                f"target {target_id} was not probed in experiment "
                f"{self.experiment_id}"
            ) from None

    def targets_of_site(self, site_id: int) -> Set[int]:
        return {t for t, s in self.mapping.items() if s == site_id}

    def mapped_count(self) -> int:
        return sum(1 for s in self.mapping.values() if s is not None)

    def catchment_sizes(self) -> Dict[int, int]:
        sizes: Dict[int, int] = {}
        for site in self.mapping.values():
            if site is not None:
                sizes[site] = sizes.get(site, 0) + 1
        return sizes


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
        silent &= prober.lost(columns.ids, columns.loss_rates, experiment_id, 100 + attempt)
    sites = np.where(unmapped | silent, None, sites).tolist()
    return CatchmentMap(experiment_id=experiment_id, mapping=dict(zip(columns.ids, sites)))
