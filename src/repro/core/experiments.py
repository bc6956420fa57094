"""BGP experiment drivers: singleton and pairwise measurements.

These wrap the orchestrator into the experiment vocabulary of the
paper: *singleton* experiments (one site announces; used for RTT
measurement), *ordered pairwise* experiments (two sites announce,
spaced; run twice with the order reversed — S4.2), and *simultaneous
pairwise* experiments (the naive baseline that ignores announcement
order — S5.1).

Campaign drivers describe their experiments as
:class:`ExperimentTask` values — small picklable descriptors whose
experiment ids were reserved up front — and hand the list to a
:class:`~repro.runtime.executor.CampaignExecutor`.  The descriptor
form is what lets the process-pool executor ship work to forked
workers — in chunks, so a phase's worth of descriptors costs a
handful of pickling round trips rather than one per experiment; the
serial and thread executors execute the same descriptors in-process
through :func:`execute_experiment_task`.  Because every driver goes
through ``run_experiments``, chunked dispatch reaches every phase
(RTT matrix, provider/site pairwise, peer probes, audit repair)
without phase-specific plumbing.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import AnycastConfig
from repro.core.preferences import PairObservation, PreferenceMatrix
from repro.measurement.orchestrator import Orchestrator
from repro.measurement.verfploeter import CatchmentMap
from repro.runtime.executor import CampaignExecutor, ProgressFn, SerialExecutor
from repro.runtime.retry import FailedExperiment
from repro.util.errors import ConfigurationError, MeasurementError


@dataclass
class SingletonResult:
    """One site announcing alone: its RTT to every target."""

    site_id: int
    experiment_id: int
    rtts: Dict[int, Optional[float]]
    catchment: CatchmentMap


@dataclass
class PairwiseResult:
    """An ordered pairwise experiment: both announcement orders.

    ``map_a_first`` holds the catchments with ``site_a`` announced
    first; ``map_b_first`` the reversed order.
    """

    site_a: int
    site_b: int
    map_a_first: CatchmentMap
    map_b_first: CatchmentMap
    #: :meth:`PairObservation.shared`'s cache for this pair.
    _observations: Dict[tuple, PairObservation] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def observation(self, client_id: int) -> PairObservation:
        return PairObservation.shared(
            self._observations,
            self.site_a,
            self.site_b,
            self.map_a_first.site_of(client_id),
            self.map_b_first.site_of(client_id),
        )

    def order_changed(self, client_id: int) -> bool:
        """True when reversing the announcement order changed this
        client's catchment (the Figure 4a statistic)."""
        w1 = self.map_a_first.site_of(client_id)
        w2 = self.map_b_first.site_of(client_id)
        return w1 is not None and w2 is not None and w1 != w2


class ExperimentRunner:
    """Runs the paper's experiment repertoire on an orchestrator."""

    def __init__(self, orchestrator: Orchestrator):
        self.orchestrator = orchestrator

    @property
    def experiment_count(self) -> int:
        """BGP experiments consumed so far (the S4.5 budget)."""
        return self.orchestrator.experiment_count

    # -- singleton ---------------------------------------------------------

    def run_singleton(
        self, site_id: int, experiment_id: Optional[int] = None
    ) -> SingletonResult:
        """Announce from one site only; measure RTT to every target."""
        deployment = self.orchestrator.deploy(
            AnycastConfig(site_order=(site_id,)), experiment_id=experiment_id
        )
        rtts = dict(
            zip(self.orchestrator.targets.columns.ids, deployment.measure_rtts())
        )
        return SingletonResult(
            site_id=site_id,
            experiment_id=deployment.experiment_id,
            rtts=rtts,
            catchment=deployment.measure_catchments(),
        )

    # -- pairwise -----------------------------------------------------------

    def run_pairwise(
        self,
        site_a: int,
        site_b: int,
        experiment_ids: Optional[Sequence[int]] = None,
    ) -> PairwiseResult:
        """The S4.2 protocol: announce (a then b), measure, withdraw,
        announce (b then a), measure.

        ``experiment_ids`` accepts the two pre-reserved ids used when a
        campaign executor dispatches pairs concurrently.
        """
        if site_a == site_b:
            raise ConfigurationError("pairwise experiment needs two distinct sites")
        id_ab, id_ba = experiment_ids if experiment_ids is not None else (None, None)
        dep_ab = self.orchestrator.deploy(
            AnycastConfig(site_order=(site_a, site_b)), experiment_id=id_ab
        )
        dep_ba = self.orchestrator.deploy(
            AnycastConfig(site_order=(site_b, site_a)), experiment_id=id_ba
        )
        return PairwiseResult(
            site_a=site_a,
            site_b=site_b,
            map_a_first=dep_ab.measure_catchments(),
            map_b_first=dep_ba.measure_catchments(),
        )

    def run_pairwise_simultaneous(
        self,
        site_a: int,
        site_b: int,
        experiment_id: Optional[int] = None,
    ) -> PairwiseResult:
        """The naive baseline: both sites announce at the same instant,
        so per-router arrival order is a race decided by propagation
        delays.  The single run is recorded as both orders."""
        if site_a == site_b:
            raise ConfigurationError("pairwise experiment needs two distinct sites")
        deployment = self.orchestrator.deploy(
            AnycastConfig(site_order=(site_a, site_b), spacing_ms=0.0),
            experiment_id=experiment_id,
        )
        cmap = deployment.measure_catchments()
        return PairwiseResult(
            site_a=site_a, site_b=site_b, map_a_first=cmap, map_b_first=cmap
        )

    # -- sweeps ---------------------------------------------------------------

    def pairwise_tasks(
        self,
        sites: Sequence[Tuple[int, int]],
        ordered: bool = True,
        parent_span_id: Optional[str] = None,
    ) -> List["ExperimentTask"]:
        """Reserve experiment ids for the given site pairs — in pair
        order, matching what a serial sweep would consume — and return
        the ready-to-dispatch experiment descriptors.

        ``parent_span_id`` parents each task's experiment span to the
        surrounding campaign-phase span; it rides inside the (picklable)
        descriptor because worker threads and processes cannot see the
        dispatching thread's current span.
        """
        tasks = []
        for a, b in sites:
            if ordered:
                ids = tuple(self.orchestrator.reserve_experiment_ids(2))
                kind = "pairwise"
            else:
                ids = tuple(self.orchestrator.reserve_experiment_ids(1))
                kind = "pairwise-simultaneous"
            tasks.append(
                ExperimentTask(
                    kind=kind,
                    experiment_ids=ids,
                    subject=f"pair ({a}, {b})",
                    site_a=a,
                    site_b=b,
                    parent_span_id=parent_span_id,
                )
            )
        return tasks

    def pairwise_sweep(
        self,
        site_ids: Iterable[int],
        ordered: bool = True,
        executor: Optional[CampaignExecutor] = None,
        progress: Optional[ProgressFn] = None,
    ) -> PreferenceMatrix:
        """Run pairwise experiments over every pair in ``site_ids`` and
        collect all clients' observations.

        ``executor`` runs the (independent) pairs concurrently;
        experiment ids are reserved in pair order first, so the matrix
        is identical to a serial sweep — chunked process dispatch
        included.  ``progress`` is called as ``progress(done, total)``
        in completion order: after each pair under the in-process
        executors, after each completed chunk under the process pool.

        A pair whose experiment exhausted its retries degrades to an
        explicit :attr:`PreferenceOutcome.UNDECIDED
        <repro.core.preferences.PreferenceOutcome.UNDECIDED>` cell for
        every client, and the failure is recorded on the orchestrator.
        """
        sites = sorted(set(site_ids))
        pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
        executor = executor if executor is not None else SerialExecutor()
        with self.orchestrator.tracer.span(
            "pairwise-sweep", sites=sites, ordered=ordered
        ) as sweep:
            tasks = self.pairwise_tasks(
                pairs, ordered=ordered, parent_span_id=sweep.span_id
            )
            results = executor.run_experiments(
                self.orchestrator, tasks, progress=progress
            )
        matrix = PreferenceMatrix()
        undecided = self.orchestrator.metrics.counter("undecided_cells")
        for (a, b), result in zip(pairs, results):
            if isinstance(result, FailedExperiment):
                self.orchestrator.record_failure(result)
                for target in self.orchestrator.targets:
                    matrix.record(
                        target.target_id, PairObservation.undecided_pair(a, b)
                    )
                    undecided.increment()
                continue
            for target in self.orchestrator.targets:
                matrix.record(target.target_id, result.observation(target.target_id))
        return matrix


@dataclass(frozen=True)
class ExperimentTask:
    """A picklable description of one independent campaign experiment.

    Descriptors carry everything a worker needs to run the experiment
    against *any* orchestrator built from the same campaign spec
    (testbed, targets, seed, settings): the experiment kind, the
    pre-reserved experiment ids, and the kind-specific arguments.
    That is the process-pool contract — a forked worker rebuilds its
    own orchestrator and executes the descriptor bit-identically to
    the serial path, because every noise stream is keyed by the
    experiment ids reserved here, not by which worker runs it.

    ``subject`` is the human-readable label used when the experiment
    degrades into a :class:`~repro.runtime.retry.FailedExperiment`.

    ``parent_span_id`` carries the dispatching phase's span id across
    the executor (and process) boundary, so the experiment's trace
    span lands under the right parent no matter which worker runs it.
    """

    kind: str
    experiment_ids: Tuple[int, ...]
    subject: str
    site_a: Optional[int] = None
    site_b: Optional[int] = None
    site_id: Optional[int] = None
    peer_id: Optional[int] = None
    base_config: Optional[AnycastConfig] = None
    base_mean_rtt_ms: Optional[float] = None
    parent_span_id: Optional[str] = None


#: How each task kind is reported when it fails (the vocabulary of
#: :class:`~repro.runtime.retry.FailedExperiment.kind` predates tasks).
_FAILURE_KIND = {
    "pairwise": "pairwise",
    "pairwise-simultaneous": "pairwise",
    "rtt-row": "singleton",
    "peer-probe": "peer-probe",
}


def _announce_orders(task: ExperimentTask) -> List[List[int]]:
    """The announcement order(s) an experiment task deploys — a span
    attribute, so a trace records how each preference was probed."""
    if task.kind == "pairwise":
        return [[task.site_a, task.site_b], [task.site_b, task.site_a]]
    if task.kind == "pairwise-simultaneous":
        return [[task.site_a, task.site_b]]
    if task.kind == "rtt-row":
        return [[task.site_id]]
    if task.kind == "peer-probe" and task.base_config is not None:
        return [list(task.base_config.site_order)]
    return []


def _task_span_attributes(task: ExperimentTask) -> Dict:
    attributes = {
        "kind": task.kind,
        "subject": task.subject,
        "experiment_ids": list(task.experiment_ids),
        "announce_orders": _announce_orders(task),
    }
    if task.site_a is not None:
        attributes["site_pair"] = [task.site_a, task.site_b]
    if task.site_id is not None:
        attributes["site_id"] = task.site_id
    if task.peer_id is not None:
        attributes["peer_id"] = task.peer_id
    return attributes


def _annotate_experiment_span(tracer, span, task: ExperimentTask) -> None:
    """Roll retry and fault activity up from the finished descendants,
    so one experiment span answers "did this experiment struggle"."""
    if span.span_id is None:  # tracing disabled
        return
    retries = 0
    faults: Dict[str, int] = {}
    for record in tracer.records_under(span.span_id):
        if record["name"] == "attempt" and record["status"] == "error":
            retries += 1
        for event in record["events"]:
            if event["name"] == "fault":
                fault = event["attributes"]["fault"]
                faults[fault] = faults.get(fault, 0) + 1
    span.set_attribute("retries", retries)
    span.set_attribute("faults", dict(sorted(faults.items())))


def _dispatch_experiment_task(orchestrator: Orchestrator, task: ExperimentTask):
    if task.kind == "pairwise":
        runner = ExperimentRunner(orchestrator)
        return runner.run_pairwise(task.site_a, task.site_b, task.experiment_ids)
    if task.kind == "pairwise-simultaneous":
        runner = ExperimentRunner(orchestrator)
        return runner.run_pairwise_simultaneous(
            task.site_a, task.site_b, task.experiment_ids[0]
        )
    if task.kind == "rtt-row":
        deployment = orchestrator.deploy(
            AnycastConfig(site_order=(task.site_id,)),
            experiment_id=task.experiment_ids[0],
        )
        with orchestrator.tracer.span(
            "probe",
            kind="rtt",
            experiment_id=deployment.experiment_id,
            targets=len(orchestrator.targets),
        ):
            return deployment.measure_rtts()
    if task.kind == "peer-probe":
        # Imported here: repro.core.peers imports this module's
        # ExperimentTask, so a module-level import would be a cycle.
        from repro.core.peers import probe_peer

        return probe_peer(
            orchestrator,
            task.base_config,
            task.peer_id,
            task.base_mean_rtt_ms,
            task.experiment_ids[0],
        )
    raise ConfigurationError(f"unknown experiment task kind {task.kind!r}")


def execute_experiment_task(orchestrator: Orchestrator, task: ExperimentTask):
    """Run one :class:`ExperimentTask` against ``orchestrator``.

    Retries-exhausted failures come back as
    :class:`~repro.runtime.retry.FailedExperiment` *values*, not
    exceptions: executors only return records, and the main-process
    collection loop records them, so the failure log order is the task
    order regardless of executor (or process boundary).

    The whole task runs inside one ``experiment`` span keyed by its
    first reserved experiment id (``…/exp:17``) and parented to
    ``task.parent_span_id`` — explicitly, never to the worker thread's
    ambient span, so the span tree is identical across executors.
    """
    tracer = orchestrator.tracer
    with tracer.span(
        "experiment",
        key=f"exp:{task.experiment_ids[0]}",
        parent=task.parent_span_id,
        **_task_span_attributes(task),
    ) as span:
        try:
            result = _dispatch_experiment_task(orchestrator, task)
        except MeasurementError as exc:
            result = FailedExperiment.from_error(
                _FAILURE_KIND[task.kind], task.subject, task.experiment_ids, exc
            )
            span.set_error(result.error)
        _annotate_experiment_span(tracer, span, task)
        return result
