"""Catchment mapping (the Verfploeter technique).

An echo request is sent to each target with the anycast prefix as its
source address; the reply routes to the target's catchment site and
arrives at the orchestrator through that site's GRE tunnel, which
identifies the catchment (S3, "Measuring Catchments").  A target whose
probes are all lost stays unmapped for that experiment.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget
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
    targets: Iterable[PingTarget],
    prober: IcmpProber,
    retries: int = 3,
) -> CatchmentMap:
    """Map every target's catchment under ``deployment``.

    ``deployment`` must expose ``experiment_id`` and
    ``forwarding(target)`` (see
    :class:`repro.measurement.orchestrator.Deployment`).  Each target is
    probed up to ``1 + retries`` times; loss applies per probe.  A reply
    identifies the catchment by the tunnel it arrives through, so only
    each probe's loss decision is drawn — never its RTT.
    """
    cmap = CatchmentMap(experiment_id=deployment.experiment_id)
    for target in targets:
        outcome = deployment.forwarding(target)
        site: Optional[int] = None
        # With no route back to any site the reply never arrives.
        if outcome is not None:
            for attempt in range(1 + retries):
                if prober.answered(target, deployment.experiment_id, 100 + attempt):
                    site = outcome.site_id
                    break
        cmap.mapping[target.target_id] = site
    return cmap
