"""Offline trace analysis: the ``repro inspect-trace`` views.

Works on the span records produced by
:func:`repro.obs.export.load_trace` — no live campaign needed, so a
trace captured in CI can be inspected anywhere.
"""

from typing import Dict, List

from repro.obs.trace import span_sort_key
from repro.report import render_table


#: Spans at the experiment level — an experiment, a deployment, a probe
#: of one — which are never phases themselves.
TASK_SPANS = ("experiment", "deploy", "probe")


def phase_breakdown(records: List[Dict]) -> str:
    """The campaign's phases, in the order they started: each root span
    and, indented, its direct children (:data:`TASK_SPANS` excepted),
    with wall time, the BGP experiments below it — the ``deploy`` spans
    that ended ``ok``, as the ``experiments`` counter counts them — and
    status.  ``--stats`` renders it from the live tracer,
    ``inspect-trace`` from a loaded trace."""
    kept = [r for r in records if r["name"] not in TASK_SPANS]
    roots = {r["span_id"] for r in kept if not r.get("parent_id")}
    phases = [r for r in kept if r["span_id"] in roots or r.get("parent_id") in roots]
    if not phases:
        return "(no phase spans in trace)"
    deploys = [
        r["span_id"] for r in records if r["name"] == "deploy" and r.get("status") == "ok"
    ]
    rows = []
    phases.sort(key=lambda r: (r.get("start_unix", 0.0), span_sort_key(r["span_id"])))
    for phase in phases:
        prefix = f"{phase['span_id']}/"
        rows.append(
            [
                ("" if phase["span_id"] in roots else "  ") + phase["name"],
                f"{phase.get('duration_s', 0.0):.3f}",
                sum(1 for span_id in deploys if span_id.startswith(prefix)),
                phase.get("status", "ok"),
            ]
        )
    return render_table(["phase", "wall (s)", "experiments", "status"], rows)


def slowest_experiments(records: List[Dict], top: int = 10) -> str:
    """The ``top`` experiment spans by wall time."""
    experiments = [r for r in records if r["name"] == "experiment"]
    if not experiments:
        return "(no experiment spans in trace)"
    experiments.sort(
        key=lambda r: (-r.get("duration_s", 0.0), span_sort_key(r["span_id"]))
    )
    rows = []
    for record in experiments[:top]:
        attrs = record.get("attributes", {})
        faults = attrs.get("faults", {})
        rows.append(
            [
                attrs.get("subject", record["span_id"]),
                attrs.get("kind", "?"),
                f"{record.get('duration_s', 0.0):.4f}",
                attrs.get("retries", 0),
                ", ".join(f"{k}x{v}" for k, v in sorted(faults.items())) or "-",
                record.get("status", "ok"),
            ]
        )
    return render_table(
        ["experiment", "kind", "wall (s)", "retries", "faults", "status"], rows
    )


def retry_hot_spots(records: List[Dict], top: int = 10) -> str:
    """Experiments ranked by how many retries they burned."""
    retried = [
        r
        for r in records
        if r["name"] == "experiment" and r.get("attributes", {}).get("retries", 0)
    ]
    if not retried:
        return "(no retries recorded)"
    retried.sort(
        key=lambda r: (-r["attributes"]["retries"], span_sort_key(r["span_id"]))
    )
    rows = [
        [
            r["attributes"].get("subject", r["span_id"]),
            r["attributes"]["retries"],
            ", ".join(
                f"{k}x{v}" for k, v in sorted(r["attributes"].get("faults", {}).items())
            )
            or "-",
            r.get("status", "ok"),
        ]
        for r in retried[:top]
    ]
    return render_table(["experiment", "retries", "faults", "status"], rows)


def fault_timeline(records: List[Dict]) -> str:
    """Every injected fault, in injection order."""
    faults = []
    for record in records:
        for event in record.get("events", []):
            if event.get("name") != "fault":
                continue
            attrs = event.get("attributes", {})
            faults.append(
                (
                    event.get("time_unix", 0.0),
                    attrs.get("experiment_id", "?"),
                    attrs.get("fault", "?"),
                    attrs.get("attempt", "?"),
                    record["span_id"],
                )
            )
    if not faults:
        return "(no faults injected)"
    faults.sort(key=lambda f: (f[0], str(f[1])))
    rows = [
        [str(experiment_id), fault, str(attempt), span_id]
        for _, experiment_id, fault, attempt, span_id in faults
    ]
    return render_table(["experiment", "fault", "attempt", "span"], rows)


def summarize_trace(records: List[Dict], top: int = 10) -> str:
    """The full ``inspect-trace`` report: phase breakdown, slowest
    experiments, retry hot spots, and the fault timeline."""
    experiments = sum(1 for r in records if r["name"] == "experiment")
    sections = [
        f"trace: {len(records)} spans, {experiments} experiment spans",
        "== phase breakdown ==\n" + phase_breakdown(records),
        f"== slowest experiments (top {top}) ==\n" + slowest_experiments(records, top),
        f"== retry hot spots (top {top}) ==\n" + retry_hot_spots(records, top),
        "== fault timeline ==\n" + fault_timeline(records),
    ]
    return "\n\n".join(sections)
