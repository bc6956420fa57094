"""Catchment mapping (the Verfploeter technique).

An echo request is sent to each target with the anycast prefix as its
source address; the reply routes to the target's catchment site and
arrives at the orchestrator through that site's GRE tunnel, which
identifies the catchment (S3, "Measuring Catchments").  A target whose
probes are all lost stays unmapped for that experiment.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Union

from repro.bgp.dataplane import PER_FLOW
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
    all targets: each client AS is resolved once and its site copied to
    its targets; only targets of an AS whose path crosses a multipath
    split are forwarded flow by flow (the flow key is the target id).
    Each target is probed up to ``1 + retries`` times; loss applies per
    probe, so only targets with a loss rate draw anything, and only the
    loss decision — a reply identifies the catchment by the tunnel it
    arrives through, never by its RTT.
    """
    columns = targets.columns if isinstance(targets, TargetSet) else ProbeColumns.of(targets)
    dataplane = deployment.dataplane
    experiment_id = deployment.experiment_id
    outcome_of_as = {asn: dataplane.resolve(asn) for asn in set(columns.asns)}
    mapping: Dict[int, Optional[int]] = {}
    for target_id, asn in zip(columns.ids, columns.asns):
        outcome = outcome_of_as[asn]
        if outcome is PER_FLOW:
            outcome = dataplane.forward(asn, target_id)
        # With no route back to any site the reply never arrives.
        mapping[target_id] = None if outcome is None else outcome.site_id
    for target in columns.lossy:
        if mapping[target.target_id] is not None and not any(
            prober.answered(target, experiment_id, 100 + attempt)
            for attempt in range(1 + retries)
        ):
            mapping[target.target_id] = None
    return CatchmentMap(experiment_id=experiment_id, mapping=mapping)
