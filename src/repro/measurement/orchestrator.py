"""The measurement orchestrator: deploys configurations and measures.

This is the simulated counterpart of the paper's GoBGP box (S3.1): it
turns an :class:`~repro.core.config.AnycastConfig` into BGP injections,
runs them to convergence, and offers catchment and RTT measurements
over the resulting data plane.  Every deployment is one "BGP
experiment" — the unit the paper's measurement budget counts (S4.5) —
and the orchestrator keeps a running tally.
"""

import math
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.bgp.dataplane import DataPlane, ForwardingOutcome
from repro.bgp.engine import BGPEngine, ConvergedState, SiteInjection
from repro.core.config import AnycastConfig
from repro.measurement.icmp import IcmpProber
from repro.measurement.rtt import RttMatrix, estimate_rtts
from repro.measurement.targets import PingTarget, ProbeColumns, TargetSet
from repro.measurement.tunnels import TunnelManager
from repro.measurement.verfploeter import CatchmentMap, measure_catchments
from repro.obs.log import get_logger
from repro.obs.trace import Tracer
from repro.runtime.cache import ConvergenceCache
from repro.runtime.executor import CampaignExecutor, SerialExecutor
from repro.runtime.faults import FaultInjector
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.retry import FailedExperiment, RetryPolicy, run_with_retry
from repro.runtime.settings import CampaignSettings
from repro.topology.astopo import Relationship
from repro.topology.testbed import Testbed
from repro.util.errors import ConfigurationError
from repro.util.rng import (
    hash_prefix, noise_key, stable_hash, standard_normals, uniform_rows, uniforms,
)
from repro.util.stats import mean

logger = get_logger("orchestrator")


class Deployment:
    """One deployed configuration: converged control plane + data plane."""

    def __init__(
        self,
        orchestrator: "Orchestrator",
        config: AnycastConfig,
        converged: ConvergedState,
        experiment_id: int,
    ):
        self.orchestrator = orchestrator
        self.config = config
        self.converged = converged
        self.experiment_id = experiment_id
        self.dataplane = DataPlane(
            orchestrator.testbed.internet, converged, flow_nonce=experiment_id
        )
        self._probe_session_ok = False

    def _ensure_probe_session(self) -> None:
        """Survive injected probe blackouts before any measurement.

        A blackout kills every probe of the measurement session; the
        retry policy re-establishes the session in virtual time.  The
        check runs once per deployment (the blackout stream is keyed
        per experiment) and raises
        :class:`~repro.util.errors.RetriesExhaustedError` when the
        blackout outlasts the retry budget.
        """
        if self._probe_session_ok:
            return
        orchestrator = self.orchestrator
        if orchestrator.faults.enabled("probe-blackout"):
            run_with_retry(
                lambda attempt: orchestrator.faults.raise_if(
                    "probe-blackout", self.experiment_id, attempt
                ),
                orchestrator.retry_policy,
                metrics=orchestrator.metrics,
                description=f"probe session of experiment {self.experiment_id}",
                tracer=orchestrator.tracer,
            )
        self._probe_session_ok = True

    # -- data plane ---------------------------------------------------------

    def forwarding(self, target: PingTarget) -> Optional[ForwardingOutcome]:
        """Where this target's anycast traffic lands."""
        return self.dataplane.forward(target.asn, target.target_id)

    def _true_rtts(self, columns: ProbeColumns):
        """Per target: ground-truth RTT to its catchment site (NaN
        without a route) and that site."""
        sites, path = self.dataplane.resolve_flows(columns.asns, columns.ids)
        drift = self.orchestrator.rtt_drift_factors(self.experiment_id, columns.id_array)
        return path * drift + columns.last_mile_ms, sites

    def true_rtt(self, target: PingTarget) -> Optional[float]:
        """Ground-truth RTT between the target and its catchment site,
        the orchestrator's per-experiment path-RTT drift included: real
        paths change between the time a site's unicast RTT was measured
        and the time a configuration is deployed — the noise floor
        behind Figure 5b/5c."""
        return _optional(self._true_rtts(ProbeColumns.of([target]))[0])[0]

    # -- measurements ---------------------------------------------------------

    def measure_catchments(self, targets: Optional[Iterable[PingTarget]] = None) -> CatchmentMap:
        """Verfploeter-style catchment map of this deployment (one pass
        over the data plane's forwarding table, all targets)."""
        orchestrator = self.orchestrator
        targets = orchestrator.targets if targets is None else list(targets)
        with orchestrator.tracer.span(
            "probe", kind="catchment", experiment_id=self.experiment_id, targets=len(targets)
        ):
            self._ensure_probe_session()
            orchestrator.metrics.counter("catchment_probes").increment(len(targets))
            return measure_catchments(self, targets, orchestrator.prober)

    def measure_rtts(
        self, targets: Optional[Iterable[PingTarget]] = None
    ) -> List[Optional[float]]:
        """Median-of-seven RTT estimate from every target (default: the
        orchestrator's) to its catchment site, in target order, None
        without a route or with too few replies — one pass: each client
        AS resolved once, drift and probe trains drawn as arrays.  A
        target reads the same value in any subset, in any order."""
        self._ensure_probe_session()
        orchestrator = self.orchestrator
        columns = ProbeColumns.of(orchestrator.targets if targets is None else targets)
        orchestrator.metrics.counter("rtt_estimates").increment(len(columns.ids))
        true_rtt, sites = self._true_rtts(columns)
        # One tunnel lookup per distinct catchment site.
        routed = np.flatnonzero(true_rtt == true_rtt)
        reached, inverse = np.unique(sites[routed], return_inverse=True)
        tunnels = [orchestrator.tunnels.tunnel(site) for site in reached.tolist()]
        tunnel_true, tunnel_estimate = np.full((2, len(sites)), math.nan)
        tunnel_true[routed] = np.array([t.true_rtt_ms for t in tunnels])[inverse]
        tunnel_estimate[routed] = np.array([t.estimated_rtt_ms for t in tunnels])[inverse]
        return _optional(estimate_rtts(
            orchestrator.prober, columns.id_array, columns.loss_rates, self.experiment_id,
            true_rtt + tunnel_true, tunnel_estimate,
        ))

    def measure_rtt(self, target: PingTarget) -> Optional[float]:
        """:meth:`measure_rtts` for one target."""
        return self.measure_rtts([target])[0]

    def measure_mean_rtt(
        self, targets: Optional[Iterable[PingTarget]] = None
    ) -> Optional[float]:
        """Mean measured RTT over all reachable targets — the paper's
        per-configuration performance figure (S5.2/S5.3).

        Returns None when *no* target produced a sample (every probe
        lost, or an empty target set): an all-unreachable deployment
        is a typed empty outcome, not an exception, so optimizer and
        baseline sweeps can skip the configuration and continue.
        """
        rtts = [r for r in self.measure_rtts(targets) if r is not None]
        if not rtts:
            self.orchestrator.metrics.counter("measurements_empty").increment()
            logger.warning(
                "no reachable targets for deployment",
                extra={"fields": {"experiment_id": self.experiment_id}},
            )
            return None
        return mean(rtts)


def _optional(values: np.ndarray) -> List[Optional[float]]:
    return [None if v != v else v for v in values.tolist()]  # NaN -> None


class Orchestrator:
    """Deploys anycast configurations on the simulated Internet.

    The noise knobs live in a :class:`CampaignSettings` value:

    - ``session_churn_prob``: per-experiment probability that an AS's
      interior-routing state changed since the topology was built;
      churned ASes get fresh session costs for that run.  This is the
      measurement-to-deployment drift that keeps real catchment
      prediction below 100% accurate.
    - ``rtt_drift_sigma``: relative standard deviation of
      per-experiment path-RTT drift.

    Campaign drivers reserve experiment ids *before* dispatching work
    (:meth:`reserve_experiment_ids`), which is what makes pooled
    execution bit-identical to the serial path: every seeded noise
    stream is keyed by experiment id, never by completion order.
    """

    def __init__(
        self,
        testbed: Testbed,
        targets: TargetSet,
        seed=0,
        settings: Optional[CampaignSettings] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.settings = settings if settings is not None else CampaignSettings()
        self.testbed = testbed
        self.targets = targets
        self.seed = seed
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        store = None
        if self.settings.convergence_cache and self.settings.convergence_cache_path:
            # Imported here: repro.io imports repro.core, which imports
            # this module, so a module-level import would be a cycle.
            from repro.bgp.engine import DEFAULT_ANYCAST_PREFIX
            from repro.io.cachestore import ConvergenceStore

            store = ConvergenceStore.for_topology(
                self.settings.convergence_cache_path,
                testbed.internet.graph,
                DEFAULT_ANYCAST_PREFIX,
            )
        self.convergence_cache = (
            ConvergenceCache(
                self.settings.convergence_cache_size,
                metrics=self.metrics,
                store=store,
            )
            if self.settings.convergence_cache
            else None
        )
        self.engine = BGPEngine(
            testbed.internet,
            cache=self.convergence_cache,
            metrics=self.metrics,
            tracer=self.tracer,
            max_events=self.settings.max_convergence_events,
        )
        self.prober = IcmpProber(seed=seed)
        self.tunnels = TunnelManager(testbed, seed=seed)
        self.faults = FaultInjector(
            seed, self.settings, metrics=self.metrics, tracer=self.tracer
        )
        self.retry_policy = RetryPolicy.from_settings(self.settings)
        self._experiment_count = 0
        self._id_lock = threading.Lock()
        #: Ids already consumed by a deployment (reuse is an error).
        self._used_ids: set = set()
        #: Ids at or below this floor are consumed (checkpoint restore).
        self._used_floor = 0
        #: Experiments the campaign gave up on, in campaign order.
        self.failures: List[FailedExperiment] = []
        self._failure_lock = threading.Lock()

    @property
    def experiment_count(self) -> int:
        """BGP experiments consumed (or reserved) so far — the unit
        the paper's measurement budget counts (S4.5)."""
        return self._experiment_count

    # -- deployment -----------------------------------------------------------

    def reserve_experiment_ids(self, count: int) -> range:
        """Claim the next ``count`` experiment ids, in serial order.

        Campaign executors reserve ids for a whole batch up front and
        then deploy concurrently; because ids — not completion times —
        seed the churn/jitter/drift streams, the results match a
        serial run experiment for experiment.
        """
        if count < 0:
            raise ConfigurationError("cannot reserve a negative id count")
        with self._id_lock:
            start = self._experiment_count + 1
            self._experiment_count += count
        return range(start, start + count)

    def _claim_experiment_id(self, experiment_id: Optional[int]) -> int:
        """Validate and consume one experiment id.

        A reused or never-reserved id would duplicate noise streams and
        silently corrupt pooled-vs-serial determinism, so both are
        rejected with :class:`ConfigurationError`.
        """
        with self._id_lock:
            if experiment_id is None:
                self._experiment_count += 1
                experiment_id = self._experiment_count
            elif experiment_id < 1 or experiment_id > self._experiment_count:
                raise ConfigurationError(
                    f"experiment id {experiment_id} was never reserved "
                    f"(reserved ids run 1..{self._experiment_count}); use "
                    "reserve_experiment_ids()"
                )
            elif experiment_id <= self._used_floor or experiment_id in self._used_ids:
                raise ConfigurationError(
                    f"experiment id {experiment_id} was already deployed; "
                    "reusing an id would duplicate its noise streams"
                )
            self._used_ids.add(experiment_id)
        return experiment_id

    def adopt_reserved_ids(self, experiment_ids: Iterable[int]) -> None:
        """Recognise ids reserved by a *coordinating* orchestrator.

        A process-pool worker's orchestrator never reserves ids itself
        — the main-process orchestrator reserved them serially before
        dispatch — so the worker extends its id space to cover the
        incoming task's ids before deploying them.  Each task runs on
        exactly one worker, so the per-worker used-id set still catches
        local reuse.
        """
        top = max(experiment_ids, default=0)
        with self._id_lock:
            if top > self._experiment_count:
                self._experiment_count = top

    def restore_experiment_state(self, experiment_count: int) -> None:
        """Fast-forward the id space past a checkpoint's experiments.

        Ids ``1..experiment_count`` are treated as consumed, so a
        resumed campaign reserves exactly the ids an uninterrupted run
        would have used for the remaining experiments — which is what
        keeps the resumed model bit-identical.
        """
        with self._id_lock:
            if experiment_count < self._experiment_count:
                raise ConfigurationError(
                    f"cannot restore experiment count to {experiment_count}: "
                    f"{self._experiment_count} experiments already reserved"
                )
            self._experiment_count = experiment_count
            self._used_floor = experiment_count
            self._used_ids.clear()

    def record_failure(self, failure: FailedExperiment) -> None:
        """Record one degraded experiment (drivers call this in task
        order, so the failure log is deterministic under pooling)."""
        with self._failure_lock:
            self.failures.append(failure)
        self.metrics.counter("experiments_failed").increment()
        logger.warning(
            "experiment degraded",
            extra={"fields": {
                "kind": failure.kind,
                "subject": failure.subject,
                "experiment_ids": list(failure.experiment_ids),
                "attempts": failure.attempts,
                "error": failure.error,
            }},
        )

    def deploy(
        self, config: AnycastConfig, experiment_id: Optional[int] = None
    ) -> Deployment:
        """Announce ``config`` and converge; counts as one BGP experiment.

        ``experiment_id`` accepts an id obtained from
        :meth:`reserve_experiment_ids`; by default the next id is
        claimed on the spot (the serial path).  Injected transient
        faults (session resets, announcement failures, convergence
        timeouts) are retried under the settings' retry policy; when
        the budget runs out the typed
        :class:`~repro.util.errors.RetriesExhaustedError` escapes for
        the campaign driver to record.
        """
        experiment_id = self._claim_experiment_id(experiment_id)
        injections = self._injections(config)
        attempts_used = [0]

        def attempt_deploy(attempt: int) -> ConvergedState:
            attempts_used[0] = attempt + 1
            with self.tracer.span("announce", injections=len(injections)):
                self.faults.raise_if("session-reset", experiment_id, attempt)
                self.faults.raise_if("announcement", experiment_id, attempt)
            with self.metrics.timer("deploy").time():
                converged = self.engine.run(
                    injections,
                    igp_overlay=self._igp_overlay(experiment_id),
                    delay_jitter_ms=self.settings.bgp_delay_jitter_ms,
                    delay_nonce=experiment_id,
                )
            self.faults.raise_if("convergence-timeout", experiment_id, attempt)
            return converged

        start = time.perf_counter()
        with self.tracer.span(
            "deploy",
            experiment_id=experiment_id,
            site_order=list(config.site_order),
            peer_ids=list(config.peer_ids),
        ) as span:
            try:
                converged = run_with_retry(
                    attempt_deploy,
                    self.retry_policy,
                    metrics=self.metrics,
                    description=f"deployment of experiment {experiment_id}",
                    tracer=self.tracer,
                )
            finally:
                span.set_attribute("attempts", attempts_used[0])
                span.set_attribute("retries", max(0, attempts_used[0] - 1))
                self.metrics.histogram("experiment_wall_s").observe(
                    time.perf_counter() - start
                )
        self.metrics.counter("experiments").increment()
        logger.debug(
            "deployed configuration",
            extra={"fields": {
                "experiment_id": experiment_id,
                "sites": list(config.site_order),
                "attempts": attempts_used[0],
            }},
        )
        return Deployment(self, config, converged, experiment_id)

    # -- drift models -----------------------------------------------------------

    def _igp_overlay(self, experiment_id: int) -> Dict[Tuple[int, int], int]:
        """Interior-cost overrides for one experiment's churned ASes.

        The ``"igp-churn"`` stream holds two words per AS index (ASN
        order): the churn decision and, if churned, whether its sessions
        tie.  One comparison finds the churned ASes; the walk visits them.
        """
        churn_prob = self.settings.session_churn_prob
        if churn_prob == 0.0:
            return {}
        tables = self.testbed.internet.graph.tables()
        index_asn = tables.index_asn
        tie_fraction = self.testbed.internet.params.igp_tie_fraction
        key = noise_key(self.seed, "igp-churn", experiment_id)
        draws = uniforms(key, 0, 2 * len(index_asn)).reshape(-1, 2)
        prefix = hash_prefix(self.seed, "igp-churn", experiment_id)
        overlay: Dict[Tuple[int, int], int] = {}
        for index in np.flatnonzero(draws[:, 0] < churn_prob).tolist():
            asn = index_asn[index]
            if draws[index, 1] < tie_fraction:
                for neighbor in tables.export_all[asn]:
                    overlay[(asn, neighbor)] = 0
            else:
                asn_prefix = hash_prefix(asn, prefix=prefix)
                for neighbor in tables.export_all[asn]:
                    overlay[(asn, neighbor)] = 1 + stable_hash(
                        neighbor, prefix=asn_prefix
                    ) % 1_000_000
        return overlay

    def rtt_bias_factor(self, experiment_id: int) -> float:
        """The per-experiment epoch bias of :meth:`rtt_drift_factor`:
        path changes between the singleton RTT campaign and a later
        deployment shift whole configurations, not just single targets."""
        pair = uniforms(noise_key(self.seed, "rtt-bias", experiment_id), 0, 2)
        return 1.0 + self.settings.rtt_bias_sigma * standard_normals(pair).item()

    def rtt_drift_factors(self, experiment_id: int, target_ids) -> np.ndarray:
        """Multiplicative path-RTT drift per target in one experiment:
        its :meth:`rtt_bias_factor` times per-target noise (one pair of
        the ``"rtt-drift"`` stream per id), floored to stay physical."""
        if self.settings.rtt_drift_sigma == 0.0 and self.settings.rtt_bias_sigma == 0.0:
            return np.ones(len(target_ids))
        key = noise_key(self.seed, "rtt-drift", experiment_id)
        noise = standard_normals(uniform_rows(key, target_ids, 2))
        bias = self.rtt_bias_factor(experiment_id)
        return np.maximum(0.7, bias * (1.0 + self.settings.rtt_drift_sigma * noise))

    def rtt_drift_factor(self, experiment_id: int, target_id: int) -> float:
        """:meth:`rtt_drift_factors` for one target."""
        return self.rtt_drift_factors(experiment_id, [target_id]).item()

    def _injections(self, config: AnycastConfig) -> List[SiteInjection]:
        spacing = (
            self.testbed.params.announcement_spacing_ms
            if config.spacing_ms is None
            else config.spacing_ms
        )
        injections: List[SiteInjection] = []
        for idx, site_id in enumerate(config.site_order):
            site = self.testbed.site(site_id)
            injections.append(
                SiteInjection(
                    host_asn=site.provider_asn,
                    site_id=site_id,
                    pop_id=site.attach_pop,
                    link_rtt_ms=site.access_rtt_ms,
                    rel_from_host=Relationship.CUSTOMER,
                    announce_time_ms=idx * spacing,
                    prepend=config.prepend_of(site_id),
                )
            )
        peer_start = len(config.site_order) * spacing
        for jdx, peer_id in enumerate(config.peer_ids):
            link = self.testbed.peer_link(peer_id)
            if link.peer_asn not in self.testbed.internet.graph:
                raise ConfigurationError(
                    f"peer link {peer_id} references unknown AS {link.peer_asn}"
                )
            injections.append(
                SiteInjection(
                    host_asn=link.peer_asn,
                    site_id=link.site_id,
                    pop_id=None,
                    link_rtt_ms=link.link_rtt_ms,
                    rel_from_host=Relationship.PEER,
                    announce_time_ms=peer_start + jdx * spacing,
                )
            )
        return injections

    # -- bulk measurements ------------------------------------------------------

    def measure_rtt_matrix(
        self,
        site_ids: Optional[Iterable[int]] = None,
        executor: Optional[CampaignExecutor] = None,
    ) -> RttMatrix:
        """Run one singleton experiment per site and estimate the RTT
        from that site to every target (paper S3.4: ``O(|S|)``
        singleton experiments).

        The singletons are independent, so ``executor`` may run them
        concurrently; ids are reserved in site order, keeping the
        result identical to the serial sweep.

        A singleton whose experiment exhausts its retries degrades
        gracefully: that site's row is recorded as all-None (no usable
        RTT samples) and the failure lands in :attr:`failures`.
        """
        # Imported here: repro.core.experiments imports this module, so
        # a module-level import would be a cycle.
        from repro.core.experiments import ExperimentTask

        site_ids = self.testbed.site_ids() if site_ids is None else list(site_ids)
        executor = executor if executor is not None else SerialExecutor()
        ids = self.reserve_experiment_ids(len(site_ids))
        with self.metrics.phase("rtt-matrix"), self.tracer.span(
            "rtt-matrix", sites=len(site_ids)
        ) as span:
            tasks = [
                ExperimentTask(
                    kind="rtt-row",
                    experiment_ids=(experiment_id,),
                    subject=f"site {site_id}",
                    site_id=site_id,
                    parent_span_id=span.span_id,
                )
                for site_id, experiment_id in zip(site_ids, ids)
            ]
            rows = executor.run_experiments(self, tasks)
        matrix = RttMatrix()
        for site_id, row in zip(site_ids, rows):
            if isinstance(row, FailedExperiment):
                self.record_failure(row)
                row = [None] * len(self.targets)
            matrix.set_row(site_id, self.targets.columns.ids, row)
        return matrix
