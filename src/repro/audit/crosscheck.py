"""Sampled ground-truth cross-check of catchment predictions.

Deploys K seeded-random configurations and compares every
non-quarantined client's predicted catchment against what the
simulator actually measures — the audit layer's analogue of the
paper's S5.1 prediction-accuracy evaluation, run as a spot check
rather than a full sweep.  Falling below the accuracy floor raises a
structured :class:`~repro.audit.findings.AuditViolation` whose first
mismatch carries a :func:`repro.bgp.explain.explain_catchment`
narration of the simulator's routing decision.

Determinism: the configuration sample is keyed by ``(seed,
"audit-crosscheck")`` and the deployments claim experiment ids from
the orchestrator in config order, so the check consumes the same ids
— and measures the same catchments — on every run.
"""

from typing import FrozenSet, List, Optional

from repro.audit.findings import (
    AuditReport,
    AuditViolation,
    CatchmentMismatch,
    CrossCheckReport,
)
from repro.bgp.explain import explain_catchment
from repro.core.config import AnycastConfig
from repro.util.rng import derive_rng

#: How many mismatches per cross-check get a bgp.explain narration
#: (the narrations are long; the count keeps violation reports sane).
EXPLAINED_MISMATCHES = 3


def cross_check(
    orchestrator,
    model,
    targets,
    k: int,
    seed,
    min_accuracy: float = 0.9,
    quarantined: FrozenSet[int] = frozenset(),
    audit_report: Optional[AuditReport] = None,
) -> CrossCheckReport:
    """Deploy ``k`` sampled configurations and verify predictions.

    Quarantined clients are skipped (they have no prediction to
    check), as are clients the model declines to predict for a given
    configuration.  When overall accuracy lands below
    ``min_accuracy``, the cross-check report is attached to
    ``audit_report`` (when given) and :class:`AuditViolation` is
    raised carrying the first mismatch and its explanation.  The check
    runs inside a ``cross-check`` span of the orchestrator's tracer and
    ships ``audit_crosscheck_*`` counters to its metrics.
    """
    site_ids = list(model.testbed.site_ids())
    targets = sorted(targets, key=lambda t: t.target_id)
    rng = derive_rng(seed, "audit-crosscheck")
    configs: List[AnycastConfig] = []
    for _ in range(k):
        size = rng.randint(min(2, len(site_ids)), len(site_ids))
        subset = tuple(sorted(rng.sample(site_ids, size)))
        configs.append(AnycastConfig(site_order=subset))

    checked = 0
    correct = 0
    mismatches: List[CatchmentMismatch] = []

    def check_config(config: AnycastConfig) -> None:
        nonlocal checked, correct
        deployment = orchestrator.deploy(config)
        measured = deployment.measure_catchments()
        batch = model.predictor.predict(config, targets)
        for target, prediction in zip(targets, batch):
            client = target.target_id
            if client in quarantined:
                continue
            predicted = prediction.site
            measured_site = measured.site_of(client)
            if predicted is None or measured_site is None:
                continue
            checked += 1
            if predicted == measured_site:
                correct += 1
                continue
            explanation = ""
            if len(mismatches) < EXPLAINED_MISMATCHES:
                explanation = explain_catchment(
                    model.testbed.internet,
                    deployment.converged,
                    target.asn,
                    flow_key=client,
                    flow_nonce=deployment.experiment_id,
                )
            mismatches.append(
                CatchmentMismatch(
                    config_sites=tuple(config.site_order),
                    client_id=client,
                    predicted_site=predicted,
                    measured_site=measured_site,
                    explanation=explanation,
                )
            )

    with orchestrator.tracer.span(
        "cross-check", configs=len(configs), min_accuracy=min_accuracy
    ) as span:
        for config in configs:
            check_config(config)
        span.set_attribute("checked", checked)
        span.set_attribute("mismatches", len(mismatches))
    metrics = orchestrator.metrics
    metrics.counter("audit_crosscheck_configs").increment(len(configs))
    metrics.counter("audit_crosscheck_clients").increment(checked)
    metrics.counter("audit_crosscheck_mismatches").increment(len(mismatches))

    report = CrossCheckReport(
        configs=[tuple(c.site_order) for c in configs],
        checked=checked,
        correct=correct,
        mismatches=mismatches,
        min_accuracy=min_accuracy,
    )
    if audit_report is not None:
        audit_report.cross_check = report
    if report.accuracy < min_accuracy:
        raise AuditViolation(
            mismatches[0], report.accuracy, min_accuracy, report=audit_report
        )
    return report
