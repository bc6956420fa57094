"""The AnyOpt facade: measure, model, predict, optimize (S4.5).

Typical use::

    testbed = build_paper_testbed(seed=7)
    anyopt = AnyOpt(testbed, seed=7)
    model = anyopt.discover()                  # BGP experiments
    report = anyopt.optimize(model)            # offline SPLPO search
    evaluation = anyopt.evaluate(model, report.best_config)
    peers = anyopt.incorporate_peers(report.best_config)
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from repro.core.config import AnycastConfig
from repro.core.experiments import ExperimentRunner
from repro.core.optimizer import OptimizationReport, search_configurations
from repro.core.peers import OnePassReport, one_pass_peer_selection
from repro.core.prediction import CatchmentPredictor, PredictionReport
from repro.core.twolevel import SiteLevelMode, TwoLevelModel, discover_two_level
from repro.measurement.orchestrator import Deployment, Orchestrator
from repro.measurement.rtt import RttMatrix
from repro.measurement.targets import TargetSet, select_targets
from repro.runtime.settings import CampaignSettings
from repro.topology.testbed import Testbed


@dataclass
class AnyOptModel:
    """Everything AnyOpt learned from its measurement campaign."""

    testbed: Testbed
    rtt_matrix: RttMatrix
    twolevel: TwoLevelModel
    predictor: CatchmentPredictor
    experiments_used: int
    #: Campaign metrics snapshot taken when discovery finished (None
    #: for models loaded from disk); see :mod:`repro.runtime.metrics`.
    metrics: Optional[Dict] = field(default=None, compare=False)
    #: Experiments the campaign gave up on (degradation report); not
    #: serialized with the model.
    failures: list = field(default_factory=list, compare=False)

    def total_order(self, client_id: int, site_order: Sequence[int]):
        """Delegate so the model can be used wherever a preference
        model is expected."""
        return self.twolevel.total_order(client_id, site_order)

    def total_orders(self, client_ids: Sequence[int], site_order: Sequence[int]):
        """Batched :meth:`total_order` (same delegation)."""
        return self.twolevel.total_orders(client_ids, site_order)

    def ranking(self, client_ids: Sequence[int], site_order: Sequence[int]):
        """Batched two-level ranking (same delegation)."""
        return self.twolevel.ranking(client_ids, site_order)


class AnyOpt:
    """End-to-end driver for the AnyOpt pipeline on a testbed.

    Campaign knobs — the drift/noise models plus the runtime options
    (convergence caching, the convergence event budget, faults and
    retries) — live in one
    :class:`~repro.runtime.settings.CampaignSettings` value.
    """

    def __init__(
        self,
        testbed: Testbed,
        targets: Optional[TargetSet] = None,
        seed=0,
        site_level_mode: SiteLevelMode = SiteLevelMode.PAIRWISE,
        settings: Optional[CampaignSettings] = None,
    ):
        self.settings = settings if settings is not None else CampaignSettings()
        self.testbed = testbed
        self.seed = seed
        self.site_level_mode = site_level_mode
        self.targets = (
            targets
            if targets is not None
            else select_targets(testbed.internet, seed=seed)
        )
        self.orchestrator = Orchestrator(
            testbed, self.targets, seed=seed, settings=self.settings
        )
        self.runner = ExperimentRunner(self.orchestrator)

    @property
    def metrics(self):
        """The campaign's :class:`~repro.runtime.metrics.MetricsRegistry`."""
        return self.orchestrator.metrics

    @property
    def tracer(self):
        """The campaign's :class:`~repro.obs.trace.Tracer`."""
        return self.orchestrator.tracer

    # -- measurement -------------------------------------------------------

    def discover(
        self,
        checkpoint_path=None,
        resume_from=None,
    ) -> AnyOptModel:
        """Run the full measurement campaign (S4.5 steps 1-2):
        singleton RTT experiments plus two-level pairwise discovery.

        ``checkpoint_path`` makes discovery write a checkpoint after
        each completed phase; ``resume_from`` loads one (it must match
        this campaign's seed, settings, and site-level mode), replays
        its completed phases, and runs only the remainder — producing
        a model byte-identical to an uninterrupted run.
        """
        # Imported lazily: repro.io imports repro.core.anyopt for the
        # model serializer, so a module-level import would be a cycle.
        from repro.io import checkpoint as checkpoint_io

        before = self.orchestrator.experiment_count
        failures_before = len(self.orchestrator.failures)

        if resume_from is not None:
            progress = checkpoint_io.load_checkpoint(
                resume_from, self.seed, self.settings, self.site_level_mode
            )
            # Completed phases already consumed ids 1..k; mark them
            # spent so the remaining phases draw the same ids they
            # would have in the uninterrupted run.
            self.orchestrator.restore_experiment_state(progress.experiment_count)
            for failure in progress.failures:
                self.orchestrator.record_failure(failure)
        else:
            progress = checkpoint_io.DiscoveryProgress(
                seed=self.seed,
                settings=self.settings,
                site_level_mode=self.site_level_mode,
            )

        def save() -> None:
            progress.experiment_count = self.orchestrator.experiment_count
            progress.failures = list(self.orchestrator.failures[failures_before:])
            if checkpoint_path is not None:
                checkpoint_io.save_checkpoint(progress, checkpoint_path)

        with self.tracer.span(
            "discover",
            sites=len(self.testbed.site_ids()),
            providers=len(self.testbed.provider_asns()),
            site_level=self.site_level_mode.value,
            resumed=resume_from is not None,
        ):
            if progress.rtt_matrix is not None:
                rtt_matrix = progress.rtt_matrix
            else:
                rtt_matrix = self.orchestrator.measure_rtt_matrix()
                progress.rtt_matrix = rtt_matrix
                save()
            twolevel = discover_two_level(
                self.runner,
                rtt_matrix=rtt_matrix,
                site_level_mode=self.site_level_mode,
                progress=progress,
                checkpoint=save,
            )
        return AnyOptModel(
            testbed=self.testbed,
            rtt_matrix=rtt_matrix,
            twolevel=twolevel,
            predictor=CatchmentPredictor(twolevel, rtt_matrix),
            experiments_used=self.orchestrator.experiment_count - before,
            metrics=self.metrics.snapshot(),
            failures=list(self.orchestrator.failures[failures_before:]),
        )

    # -- integrity ------------------------------------------------------------

    def audit(
        self,
        model: AnyOptModel,
        ground_truth_k: int = 0,
        min_accuracy: float = 0.9,
        announce_order: Optional[Sequence[int]] = None,
    ):
        """Audit ``model`` for prediction-integrity violations.

        Sweeps every client's tournaments for cycles, INCONSISTENT,
        UNDECIDED, and unmeasured cells plus RTT-matrix holes, and
        marks the clients without a usable total order as quarantined.
        With ``ground_truth_k > 0`` the audit additionally deploys
        that many seeded-random configurations and cross-checks
        predicted catchments against measured ones, raising
        :class:`~repro.audit.findings.AuditViolation` (report
        attached) when accuracy lands below ``min_accuracy``.
        """
        # Imported lazily: repro.audit imports repro.io for repair
        # checkpoints, which imports repro.core — keep the cycle cut.
        from repro.audit import audit_model, cross_check

        report = audit_model(
            model,
            self.targets,
            announce_order=announce_order,
            failures=model.failures or self.orchestrator.failures,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        if ground_truth_k > 0:
            cross_check(
                self.orchestrator,
                model,
                self.targets,
                k=ground_truth_k,
                seed=self.seed,
                min_accuracy=min_accuracy,
                quarantined=frozenset(report.quarantined_clients()),
                audit_report=report,
            )
        return report

    def repair(
        self,
        model: AnyOptModel,
        report=None,
        max_rounds: int = 3,
        budget: Optional[int] = None,
        checkpoint_path=None,
        resume_from=None,
        announce_order: Optional[Sequence[int]] = None,
    ):
        """Self-heal ``model`` (mutated in place) by re-running only
        the experiments implicated in audit findings.

        Runs up to ``max_rounds`` escalating repair rounds under an
        optional overall experiment ``budget``; same seed ⇒ same
        repair transcript.  ``checkpoint_path`` /
        ``resume_from`` give repair the discovery campaign's
        kill-and-resume contract.
        """
        from repro.audit import repair_model

        return repair_model(
            self.orchestrator,
            model,
            self.targets,
            report=report,
            announce_order=announce_order,
            max_rounds=max_rounds,
            budget=budget,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
        )

    # -- offline computation ---------------------------------------------------

    def optimize(
        self,
        model: AnyOptModel,
        strategy: str = "exhaustive",
        sizes: Optional[Iterable[int]] = None,
        max_evaluations: Optional[int] = None,
        audit_report=None,
        exclude_clients: Optional[Iterable[int]] = None,
        **solver_kwargs,
    ) -> OptimizationReport:
        """Search configurations offline (S4.5 step 3).

        ``audit_report`` (or an explicit ``exclude_clients``) keeps
        quarantined clients out of the SPLPO input; the exclusion is
        accounted in the ``splpo_clients_excluded`` counter so
        ``--stats`` can show what the audit removed.
        """
        excluded = set(exclude_clients) if exclude_clients is not None else set()
        if audit_report is not None:
            excluded.update(audit_report.quarantined_clients())
        return search_configurations(
            model.twolevel,
            model.rtt_matrix,
            self.targets,
            strategy=strategy,
            sizes=sizes,
            max_evaluations=max_evaluations,
            seed=self.seed,
            exclude_clients=excluded if excluded else None,
            metrics=self.metrics,
            **solver_kwargs,
        )

    # -- deployment & validation --------------------------------------------------

    def deploy(self, config: AnycastConfig) -> Deployment:
        return self.orchestrator.deploy(config)

    def evaluate(self, model: AnyOptModel, config: AnycastConfig) -> PredictionReport:
        """Deploy ``config`` and compare predictions with measurements
        (the S5.2 experiment)."""
        deployment = self.orchestrator.deploy(config)
        return model.predictor.evaluate(
            config, deployment, self.targets, metrics=self.metrics
        )

    def incorporate_peers(
        self,
        config: AnycastConfig,
        peer_ids: Optional[Sequence[int]] = None,
    ) -> OnePassReport:
        """Run the one-pass peer heuristic on top of ``config`` (S4.4)."""
        return one_pass_peer_selection(self.orchestrator, config, peer_ids=peer_ids)
