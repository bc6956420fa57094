"""The one-pass beneficial-peer heuristic (S4.4).

Starting from the optimal transit-only configuration, each peering
link is enabled alone for one measurement; peers that reduce the mean
RTT are "beneficial".  Beneficial peers are then added greedily in
descending catchment-size order, under the conservative assumption
that a newly added peer captures its entire one-pass catchment — a
peer is kept only if the estimate still improves.
"""

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.config import AnycastConfig
from repro.core.experiments import ExperimentTask
from repro.measurement.orchestrator import Orchestrator
from repro.runtime.executor import CampaignExecutor, SerialExecutor
from repro.runtime.retry import FailedExperiment
from repro.util.errors import ConfigurationError, MeasurementError
from repro.util.stats import mean


@dataclass(frozen=True)
class PeerProbeResult:
    """Measurements from enabling one peer on top of the base config."""

    peer_id: int
    peer_asn: int
    site_id: int
    catchment: FrozenSet[int]
    mean_rtt_ms: float
    delta_ms: float
    catchment_rtts: Dict[int, float]

    @property
    def beneficial(self) -> bool:
        return self.delta_ms < 0.0

    def catchment_fraction(self, n_targets: int) -> float:
        return len(self.catchment) / n_targets if n_targets else 0.0


@dataclass
class OnePassReport:
    """Full outcome of the one-pass heuristic.

    ``final_mean_rtt_ms`` is None when the final deployment (or its
    measurement) failed after retries; ``failures`` lists every probe
    or deployment the heuristic had to give up on.
    """

    base_config: AnycastConfig
    base_mean_rtt_ms: float
    probes: List[PeerProbeResult]
    selected_peers: Tuple[int, ...]
    final_config: AnycastConfig
    final_mean_rtt_ms: Optional[float]
    estimated_final_mean_rtt_ms: float
    failures: List[FailedExperiment] = field(default_factory=list)

    def beneficial_peers(self) -> List[int]:
        return [p.peer_id for p in self.probes if p.beneficial]

    def reachable_probes(self) -> List[PeerProbeResult]:
        """Peers whose announcement attracted at least one target
        (the paper found 72 of its 104 peers reachable, S5.4)."""
        return [p for p in self.probes if p.catchment]


def probe_peer(
    orchestrator: Orchestrator,
    base_config: AnycastConfig,
    peer_id: int,
    base_mean_rtt: float,
    experiment_id: Optional[int] = None,
) -> PeerProbeResult:
    """Enable one peer on the base configuration and measure it."""
    link = orchestrator.testbed.peer_link(peer_id)
    deployment = orchestrator.deploy(
        base_config.with_peers((peer_id,)), experiment_id=experiment_id
    )
    catchment: set = set()
    catchment_rtts: Dict[int, float] = {}
    rtts: List[float] = []
    with orchestrator.tracer.span(
        "probe",
        kind="peer",
        experiment_id=deployment.experiment_id,
        peer_id=peer_id,
        targets=len(orchestrator.targets),
    ):
        for target, measured in zip(orchestrator.targets, deployment.measure_rtts()):
            if measured is None:
                continue
            outcome = deployment.forwarding(target)
            rtts.append(measured)
            if outcome.terminating_asn == link.peer_asn:
                catchment.add(target.target_id)
                catchment_rtts[target.target_id] = measured
    mean_rtt = mean(rtts) if rtts else float("inf")
    return PeerProbeResult(
        peer_id=peer_id,
        peer_asn=link.peer_asn,
        site_id=link.site_id,
        catchment=frozenset(catchment),
        mean_rtt_ms=mean_rtt,
        delta_ms=mean_rtt - base_mean_rtt,
        catchment_rtts=catchment_rtts,
    )


def one_pass_peer_selection(
    orchestrator: Orchestrator,
    base_config: AnycastConfig,
    peer_ids: Optional[Sequence[int]] = None,
    executor: Optional[CampaignExecutor] = None,
) -> OnePassReport:
    """Run the full one-pass protocol: M single-peer measurements, a
    greedy selection, then one deployment of the selected set.

    The M single-peer trials are independent, so ``executor`` may run
    them concurrently; ids are reserved in peer order, keeping the
    report identical to the serial protocol.  Under the process pool
    the probes ship as chunked descriptors to the campaign's warm
    workers (a testbed's ~100 peer probes cost a handful of dispatch
    round trips, not one each).

    Probes that exhaust their retries are recorded as failures and
    skipped by the greedy selection; a failed final deployment leaves
    ``final_mean_rtt_ms`` as None.  Only an unreachable *base*
    deployment aborts the heuristic, since every delta depends on it.
    """
    if base_config.peer_ids:
        raise ConfigurationError("base configuration must be transit-only")
    peer_ids = (
        list(peer_ids) if peer_ids is not None else orchestrator.testbed.peer_ids()
    )
    executor = executor if executor is not None else SerialExecutor()
    failures: List[FailedExperiment] = []

    base = orchestrator.deploy(base_config)
    base_rtts: Dict[int, float] = {
        target_id: measured
        for target_id, measured in zip(
            orchestrator.targets.columns.ids, base.measure_rtts()
        )
        if measured is not None
    }
    if not base_rtts:
        raise MeasurementError(
            "one-pass baseline unusable: no target reached the transit-only "
            "base deployment"
        )
    base_mean = mean(base_rtts.values())

    probe_ids = orchestrator.reserve_experiment_ids(len(peer_ids))
    with orchestrator.metrics.phase("one-pass-peers"), orchestrator.tracer.span(
        "one-pass-peers", peers=list(peer_ids)
    ) as phase_span:
        tasks = [
            ExperimentTask(
                kind="peer-probe",
                experiment_ids=(exp_id,),
                subject=f"peer {peer_id}",
                peer_id=peer_id,
                base_config=base_config,
                base_mean_rtt_ms=base_mean,
                parent_span_id=phase_span.span_id,
            )
            for peer_id, exp_id in zip(peer_ids, probe_ids)
        ]
        outcomes = executor.run_experiments(orchestrator, tasks)
    probes: List[PeerProbeResult] = []
    for outcome in outcomes:
        if isinstance(outcome, FailedExperiment):
            orchestrator.record_failure(outcome)
            failures.append(outcome)
        else:
            probes.append(outcome)

    # Greedy selection in descending catchment size, conservative
    # whole-catchment switch assumption.
    estimate = dict(base_rtts)
    current_mean = mean(estimate.values())
    selected: List[int] = []
    for probe in sorted(
        (p for p in probes if p.beneficial),
        key=lambda p: (-len(p.catchment), p.peer_id),
    ):
        candidate = dict(estimate)
        candidate.update(probe.catchment_rtts)
        candidate_mean = mean(candidate.values())
        if candidate_mean < current_mean:
            selected.append(probe.peer_id)
            estimate = candidate
            current_mean = candidate_mean

    final_config = base_config.with_peers(tuple(selected))
    final_ids = orchestrator.reserve_experiment_ids(1)
    final_mean: Optional[float] = None
    try:
        final = orchestrator.deploy(final_config, experiment_id=final_ids[0])
        final_mean = final.measure_mean_rtt()
    except MeasurementError as exc:
        failure = FailedExperiment.from_error(
            "deployment", "final one-pass configuration", final_ids, exc
        )
        orchestrator.record_failure(failure)
        failures.append(failure)
    return OnePassReport(
        base_config=base_config,
        base_mean_rtt_ms=base_mean,
        probes=probes,
        selected_peers=tuple(selected),
        final_config=final_config,
        final_mean_rtt_ms=final_mean,
        estimated_final_mean_rtt_ms=current_mean,
        failures=failures,
    )
