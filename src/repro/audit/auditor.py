"""The preference-integrity auditor.

Sweeps every client's discovered tournaments — provider-level, then
site-level inside each provider (or the RTT matrix under the RTT
heuristic) — and emits one typed :class:`~repro.audit.findings.Finding`
per defect, mirroring exactly how
:meth:`~repro.core.twolevel.TwoLevelModel.total_order` will consume the
model: providers are taken in first-appearance order of the
announcement order, the provider matrix is bypassed when only one
provider appears, and intra-provider rankings come from the per-provider
matrices (pairwise mode) or the RTT matrix (heuristic mode).

Because the audit only reads the model (no RNG, no experiments), the
report is a pure function of the model — identical across executors and
repeat runs by construction.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.audit.findings import (
    CYCLE,
    INCONSISTENT,
    RTT_HOLE,
    UNDECIDED,
    UNMAPPED,
    UNMEASURED,
    AuditReport,
    ClientAudit,
    Finding,
)
from repro.core.preferences import (
    PreferenceMatrix,
    PreferenceOutcome,
    find_cycle_witness,
)
from repro.core.twolevel import SiteLevelMode

#: Finding kind -> the ``audit_*`` counter it increments.
KIND_COUNTERS = {
    CYCLE: "audit_cycles",
    INCONSISTENT: "audit_inconsistent_cells",
    UNDECIDED: "audit_undecided_cells",
    UNMAPPED: "audit_unmapped_cells",
    UNMEASURED: "audit_unmeasured_cells",
    RTT_HOLE: "audit_rtt_holes",
}

_CELL_KINDS = {
    PreferenceOutcome.INCONSISTENT: INCONSISTENT,
    PreferenceOutcome.UNDECIDED: UNDECIDED,
    PreferenceOutcome.UNKNOWN: UNMAPPED,
}


def provider_appearance_order(testbed, announce_order: Sequence[int]) -> Tuple[int, ...]:
    """Providers in first-appearance order of ``announce_order`` — the
    exact order ``TwoLevelModel.total_order`` ranks them in."""
    seen: Dict[int, None] = {}
    for site in announce_order:
        seen.setdefault(testbed.provider_of(site), None)
    return tuple(seen)


def _failure_details(failures) -> Dict[Tuple[str, str], str]:
    """Map each failed experiment's (kind, subject) to a detail string
    naming the final fault kind and attempt count, so UNDECIDED cells
    say *why* they are undecided (blackout vs timeout vs ...)."""
    details: Dict[Tuple[str, str], str] = {}
    for failure in failures or ():
        details[(failure.kind, failure.subject)] = (
            f"fault={failure.fault or 'unknown'} attempts={failure.attempts}"
        )
    return details


def _audit_tournament(
    matrix: PreferenceMatrix,
    client_id: int,
    items: Sequence[int],
    scope: str,
    subject_of,
    failure_details: Dict[Tuple[str, str], str],
) -> List[Finding]:
    """Findings for one client's tournament over ``items`` (which is
    both the item list and the announcement order, as in discovery)."""
    findings: List[Finding] = []
    items = list(items)
    usable = True
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            obs = matrix.observation(client_id, a, b)
            if obs is None:
                findings.append(Finding(UNMEASURED, client_id, scope, (a, b)))
                usable = False
                continue
            kind = _CELL_KINDS.get(obs.outcome())
            if kind is None:
                continue
            usable = False
            detail = ""
            if kind == UNDECIDED:
                # The experiment's subject may name the pair in either
                # orientation (discovery enumerates sorted pairs; this
                # sweep walks the announcement's appearance order).
                detail = (
                    failure_details.get(("pairwise", subject_of(a, b)))
                    or failure_details.get(("pairwise", subject_of(b, a)))
                    or ""
                )
            findings.append(Finding(kind, client_id, scope, (a, b), detail=detail))
    if usable:
        witness = find_cycle_witness(matrix, client_id, items, items)
        if witness is not None:
            findings.append(Finding(CYCLE, client_id, scope, witness))
    return findings


def audit_model(
    model,
    targets,
    announce_order: Optional[Sequence[int]] = None,
    failures=None,
    metrics=None,
    tracer=None,
) -> AuditReport:
    """Audit a discovered :class:`~repro.core.anyopt.AnyOptModel`.

    ``failures`` (defaults to ``model.failures``) supplies the
    fault-kind details for UNDECIDED cells.  When ``metrics`` /
    ``tracer`` are given, the sweep runs inside an ``audit`` phase and
    span and ships ``audit_*`` counters plus the
    ``audit_findings_per_client`` histogram.
    """
    testbed = model.testbed
    twolevel = model.twolevel
    if announce_order is None:
        announce_order = tuple(testbed.site_ids())
    else:
        announce_order = tuple(announce_order)
    if failures is None:
        failures = getattr(model, "failures", None)
    failure_details = _failure_details(failures)

    providers = provider_appearance_order(testbed, announce_order)
    provider_sites: Dict[int, List[int]] = {}
    for site in announce_order:
        provider_sites.setdefault(testbed.provider_of(site), []).append(site)
    reps = {p: testbed.representative_site(p) for p in providers}
    rtt_matrix = model.rtt_matrix
    pairwise_sites = twolevel.site_level_mode is SiteLevelMode.PAIRWISE

    def sweep() -> AuditReport:
        report = AuditReport(
            announce_order=announce_order,
            clients_total=len(list(targets)),
            predictable_clients=0,
        )
        clients = sorted(t.target_id for t in targets)
        predictable_mask, _ = model.total_orders(clients, announce_order)
        for client, predictable in zip(clients, predictable_mask.tolist()):
            findings: List[Finding] = []
            # Provider level — bypassed by total_order when only one
            # provider appears, so bypassed here too.
            if len(providers) > 1:
                findings.extend(
                    _audit_tournament(
                        twolevel.provider_matrix,
                        client,
                        providers,
                        "provider",
                        lambda a, b: f"pair ({reps[a]}, {reps[b]})",
                        failure_details,
                    )
                )
            # Site level inside each multi-site provider.
            if pairwise_sites:
                for provider in providers:
                    sites = sorted(provider_sites[provider])
                    if len(sites) < 2:
                        continue
                    findings.extend(
                        _audit_tournament(
                            twolevel.site_matrices[provider],
                            client,
                            sites,
                            f"site:{provider}",
                            lambda a, b: f"pair ({a}, {b})",
                            failure_details,
                        )
                    )
            # RTT holes: always a finding (they starve RTT prediction);
            # they only break total orders under the RTT heuristic.
            if rtt_matrix is not None:
                for site in announce_order:
                    if rtt_matrix.values.get((site, client)) is None:
                        findings.append(Finding(RTT_HOLE, client, "rtt", (site,)))
            if predictable:
                report.predictable_clients += 1
            if findings:
                report.clients[client] = ClientAudit(
                    client_id=client,
                    findings=sorted(findings, key=lambda f: f.sort_key),
                    quarantined=not predictable,
                )
        return report

    if metrics is None:
        report = sweep()
    else:
        with metrics.phase("audit"):
            if tracer is not None:
                with tracer.span(
                    "audit", clients=len(list(targets)), sites=len(announce_order)
                ) as span:
                    report = sweep()
                    span.set_attribute("findings", report.total_findings())
                    span.set_attribute("quarantined", len(report.quarantined_clients()))
            else:
                report = sweep()
        metrics.counter("audit_runs").increment()
        metrics.counter("audit_findings").increment(report.total_findings())
        metrics.counter("audit_clients_quarantined").increment(
            len(report.quarantined_clients())
        )
        for kind, count in report.counts_by_kind().items():
            metrics.counter(KIND_COUNTERS[kind]).increment(count)
        histogram = metrics.histogram("audit_findings_per_client")
        for client_id in sorted(report.clients):
            histogram.observe(float(len(report.clients[client_id].findings)))
    return report
