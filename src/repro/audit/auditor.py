"""The preference-integrity auditor.

One :meth:`~repro.core.twolevel.TwoLevelModel.ranking` call per audit
says which of each client's tournaments void its total order — the
providers', and each multi-site provider's sites' — exactly as the
prediction and search paths consume the model.  Only those (client,
tournament) pairs are walked cell by cell, for one typed
:class:`~repro.audit.findings.Finding` per defect; RTT holes are the
NaN cells of the model's compiled RTT array, read at each client's own
row (the ranking's rows are client classes).

Because the audit only reads the model (no RNG, no experiments), the
report is a pure function of the model — identical across repeat runs
by construction.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
from repro.core.preferences import PreferenceMatrix, PreferenceOutcome, find_cycle_witness
from repro.core.twolevel import SiteLevelMode
from repro.obs.trace import Tracer
from repro.runtime.metrics import MetricsRegistry

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
    fault-kind details for UNDECIDED cells.  The sweep runs inside an
    ``audit`` span of ``tracer`` and ships ``audit_*`` counters plus
    the ``audit_findings_per_client`` histogram to ``metrics``; either
    left out is a fresh one nobody reads (repair's own audits).
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

    def sweep() -> AuditReport:
        clients = sorted(t.target_id for t in targets)
        ranking = model.ranking(clients, announce_order)
        # The announced sites of each provider, providers in
        # first-appearance order: the kernel's groups.
        groups = [ranking.sites[members].tolist() for members, *_ in ranking.groups]
        providers = [testbed.provider_of(sites[0]) for sites in groups]
        reps = {p: testbed.representative_site(p) for p in providers}
        tournaments = [(
            ranking.provider_usable, twolevel.provider_matrix, providers, "provider",
            lambda a, b: f"pair ({reps[a]}, {reps[b]})",
        )]
        if twolevel.site_level_mode is SiteLevelMode.PAIRWISE:
            tournaments += [
                (usable, twolevel.site_matrices[provider], sites, f"site:{provider}",
                 lambda a, b: f"pair ({a}, {b})")
                for provider, sites, (*_, usable) in zip(providers, groups, ranking.groups)
                if usable is not None
            ]
        findings: Dict[int, List[Finding]] = {}  # by row of clients
        for usable, matrix, items, scope, subject_of in tournaments:
            if usable is None:
                continue
            for row in np.flatnonzero(~usable[ranking.rows]).tolist():
                findings.setdefault(row, []).extend(_audit_tournament(
                    matrix, clients[row], items, scope, subject_of, failure_details,
                ))
        # RTT holes: always a finding (they starve RTT prediction);
        # they only break total orders under the RTT heuristic.
        if model.rtt_matrix is not None:
            rtt = twolevel.arrays()["rtt"]
            rows = twolevel.client_rows(clients)
            seen = rows < rtt.shape[1]  # the rest: clients the model never saw
            holes = np.ones((len(clients), len(announce_order)), dtype=bool)
            columns = np.searchsorted(ranking.sites, announce_order)
            holes[seen] = np.isnan(rtt[columns][:, rows[seen]]).T
            for row, column in zip(*(axis.tolist() for axis in np.nonzero(holes))):
                findings.setdefault(row, []).append(
                    Finding(RTT_HOLE, clients[row], "rtt", (announce_order[column],))
                )
        report = AuditReport(
            announce_order=announce_order,
            clients_total=len(clients),
            predictable_clients=int(np.count_nonzero(ranking.valid)),
        )
        for row in sorted(findings):
            report.clients[clients[row]] = ClientAudit(
                client_id=clients[row],
                findings=sorted(findings[row], key=lambda f: f.sort_key),
                quarantined=not ranking.valid[row],
            )
        return report

    metrics = MetricsRegistry() if metrics is None else metrics
    tracer = Tracer() if tracer is None else tracer
    with tracer.span("audit", clients=len(list(targets)), sites=len(announce_order)) as span:
        report = sweep()
        span.set_attribute("findings", report.total_findings())
        span.set_attribute("quarantined", len(report.quarantined_clients()))
    metrics.counter("audit_runs").increment()
    metrics.counter("audit_findings").increment(report.total_findings())
    metrics.counter("audit_clients_quarantined").increment(len(report.quarantined_clients()))
    for kind, count in report.counts_by_kind().items():
        metrics.counter(KIND_COUNTERS[kind]).increment(count)
    histogram = metrics.histogram("audit_findings_per_client")
    for client_id in sorted(report.clients):
        histogram.observe(float(len(report.clients[client_id].findings)))
    return report
