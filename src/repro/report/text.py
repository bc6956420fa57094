"""ASCII rendering of tables, CDFs, histograms, and catchment shares."""

from typing import Dict, List, Optional, Sequence

from repro.util.errors import ReproError
from repro.util.stats import cdf_points, percentile


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    float_format: str = "{:.1f}",
) -> str:
    """Render rows as an aligned text table.

    >>> print(render_table(["site", "rtt"], [[1, 43.25], [2, 76.0]]))
    site  rtt
    ----  ----
    1     43.2
    2     76.0
    """
    if not headers:
        raise ReproError("a table needs at least one column")
    rendered: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ReproError(
                f"row {row!r} has {len(row)} cells; expected {len(headers)}"
            )
        rendered.append(
            [
                float_format.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_cdf(
    values: Sequence[float],
    width: int = 50,
    height: int = 12,
    label: str = "value",
) -> str:
    """Render a sample's CDF as an ASCII plot.

    The x-axis spans the sample's range; each row of the plot is a
    cumulative-fraction level, marked where the CDF crosses it.
    """
    if width < 10 or height < 4:
        raise ReproError("CDF plot needs width >= 10 and height >= 4")
    xs, fs = cdf_points(values)
    lo, hi = xs[0], xs[-1]
    span = hi - lo or 1.0
    lines: List[str] = []
    for level_idx in range(height, 0, -1):
        level = level_idx / height
        # First x at which the CDF reaches this level.
        col = None
        for x, f in zip(xs, fs):
            if f >= level:
                col = int((x - lo) / span * (width - 1))
                break
        row = [" "] * width
        if col is not None:
            for c in range(col, width):
                row[c] = "#" if c == col else "#"
        lines.append(f"{level:4.2f} |" + "".join(row))
    axis = f"     +{'-' * width}"
    p50 = percentile(values, 50)
    footer = (
        f"      {label}: min {lo:.1f}  median {p50:.1f}  max {hi:.1f}  "
        f"(n={len(xs)})"
    )
    return "\n".join(lines + [axis, footer])


def render_histogram(
    values: Sequence[float],
    bins: int = 10,
    width: int = 40,
    float_format: str = "{:.1f}",
) -> str:
    """Render a horizontal-bar histogram of a sample."""
    values = list(values)
    if not values:
        raise ReproError("histogram of empty sample")
    if bins < 1:
        raise ReproError("need at least one bin")
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    counts = [0] * bins
    for v in values:
        idx = min(bins - 1, int((v - lo) / span * bins))
        counts[idx] += 1
    peak = max(counts)
    lines = []
    for i, count in enumerate(counts):
        left = lo + span * i / bins
        right = lo + span * (i + 1) / bins
        bar = "#" * (int(count / peak * width) if peak else 0)
        lines.append(
            f"[{float_format.format(left):>8}, {float_format.format(right):>8})"
            f" {bar} {count}"
        )
    return "\n".join(lines)


def render_metrics(snapshot: Dict) -> str:
    """Render a campaign-metrics snapshot (the dict produced by
    :meth:`repro.runtime.metrics.MetricsRegistry.snapshot`) as aligned
    tables: one for counters, one with percentile summaries per
    histogram.  The per-phase table is the span tree's
    (:func:`repro.obs.inspect.phase_breakdown`)."""
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    rows = [[name, str(counters[name])] for name in sorted(counters)]
    if "audit_clients_quarantined" in counters:
        # The audit accounting row: how many quarantined clients the
        # optimizer actually dropped from its SPLPO input.
        rows.append(
            [
                "quarantined_excluded_from_splpo",
                str(counters.get("splpo_clients_excluded", 0)),
            ]
        )
    if not rows and not histograms:
        return "(no campaign metrics recorded)"
    sections: List[str] = []
    if rows:
        sections.append(render_table(["metric", "value"], rows))
    if histograms:
        histogram_rows = [
            [
                name,
                histograms[name].get("count", 0),
                histograms[name].get("mean", 0.0),
                histograms[name].get("p50", 0.0),
                histograms[name].get("p90", 0.0),
                histograms[name].get("p99", 0.0),
                histograms[name].get("max", 0.0),
            ]
            for name in sorted(histograms)
        ]
        sections.append(
            render_table(
                ["histogram", "count", "mean", "p50", "p90", "p99", "max"],
                histogram_rows,
                float_format="{:.4g}",
            )
        )
    return "\n\n".join(sections)


def render_audit_report(report) -> str:
    """Render an :class:`~repro.audit.findings.AuditReport` as text:
    a headline, a findings-by-kind table, the quarantine accounting,
    and (when present) the ground-truth cross-check outcome."""
    quarantined = report.quarantined_clients()
    sections: List[str] = [
        f"audit: {report.total_findings()} finding(s) across "
        f"{len(report.clients)} of {report.clients_total} client(s); "
        f"{report.predictable_clients} predictable, "
        f"{len(quarantined)} quarantined (excluded from SPLPO input)"
    ]
    counts = report.counts_by_kind()
    if counts:
        sections.append(
            render_table(
                ["finding", "count"],
                [[kind, str(counts[kind])] for kind in sorted(counts)],
            )
        )
    if quarantined:
        shown = ", ".join(str(c) for c in quarantined[:20])
        suffix = ", ..." if len(quarantined) > 20 else ""
        sections.append(f"quarantined clients: {shown}{suffix}")
    if report.cross_check is not None:
        check = report.cross_check
        sections.append(
            f"cross-check: {len(check.configs)} config(s), "
            f"{check.checked} prediction(s) checked, "
            f"{len(check.mismatches)} mismatch(es), "
            f"accuracy {check.accuracy:.1%} (floor {check.min_accuracy:.1%})"
        )
    return "\n\n".join(sections)


def render_prediction_batch(batch, limit: int = 20) -> str:
    """Render a typed :class:`~repro.core.prediction.PredictionBatch`:
    headline summary, the per-reason census, and the first ``limit``
    predictions.  Degrades structurally on an empty or all-quarantined
    batch (no RTT, no rows) instead of raising."""
    mean_rtt = batch.mean_rtt_ms
    rtt_note = (
        f"; mean RTT {mean_rtt:.1f} ms" if mean_rtt is not None else "; no RTT available"
    )
    sections: List[str] = [
        f"predicted {batch.decided_count}/{len(batch)} client(s) under "
        f"sites {','.join(map(str, batch.config.site_order))}{rtt_note}"
    ]
    reasons = batch.counts_by_reason()
    if reasons:
        sections.append(
            render_table(
                ["reason", "clients"],
                [[reason, str(reasons[reason])] for reason in sorted(reasons)],
            )
        )
    rows = [
        [
            str(p.client_id),
            str(p.site) if p.site is not None else "-",
            f"{p.rtt_ms:.1f}" if p.rtt_ms is not None else "-",
            p.reason or "ok",
        ]
        for p in list(batch)[:limit]
    ]
    if rows:
        sections.append(render_table(["client", "site", "rtt (ms)", "status"], rows))
        if len(batch) > limit:
            sections.append(f"... {len(batch) - limit} more client(s)")
    return "\n\n".join(sections)


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def render_heartbeat(record: Dict) -> str:
    """Render one campaign heartbeat record as a single status line —
    the ``anyopt watch`` display format::

        [  42] discover     8m20s  done 512/1200 (42.7%)  3.2/s  eta 3m35s

    Missing optional fields (no total hint) render as omissions, not
    zeros; a ``final`` record is flagged, and a record carrying an
    ``error`` shows it.
    """
    parts = [
        f"[{record.get('seq', '?'):>4}]",
        f"{(record.get('phase') or record.get('campaign', 'campaign')):<12}",
        f"{_fmt_duration(record.get('elapsed_s', 0)):>7}",
    ]
    done = record.get("experiments_done", 0)
    total = record.get("experiments_total")
    if total:
        parts.append(f"done {done}/{total} ({100.0 * done / total:.1f}%)")
    else:
        parts.append(f"done {done}")
    parts.append(f"{record.get('experiments_per_s', 0.0):.1f}/s")
    failed = record.get("experiments_failed", 0)
    if failed:
        parts.append(f"failed {failed}")
    if total:
        parts.append(f"eta {_fmt_duration(record.get('eta_s'))}")
    if record.get("error"):
        parts.append(f"ERROR: {record['error']}")
    if record.get("final"):
        parts.append("(final)")
    return "  ".join(parts)


def render_heartbeat_history(records: Sequence[Dict]) -> str:
    """Render a whole heartbeat file, one line per record."""
    if not records:
        raise ReproError("no heartbeat records to render")
    return "\n".join(render_heartbeat(record) for record in records)


def render_catchment_bars(
    catchment_sizes: Dict[int, int],
    total: Optional[int] = None,
    width: int = 40,
) -> str:
    """Render each site's catchment share as a horizontal bar, e.g.
    ``site 4  ############  165 ( 33.1%)``."""
    if not catchment_sizes:
        raise ReproError("no catchments to render")
    denominator = total if total is not None else sum(catchment_sizes.values())
    if denominator <= 0:
        raise ReproError("catchment total must be positive")
    lines = []
    for site in sorted(catchment_sizes):
        count = catchment_sizes[site]
        frac = count / denominator
        bar = "#" * max(1 if count else 0, int(frac * width))
        lines.append(
            f"site {site:<2} {bar:<{width // 2 * 2}} {count:>4} ({100 * frac:5.1f}%)"
        )
    return "\n".join(lines)


def render_chaos_report(report) -> str:
    """Render a :class:`~repro.serve.chaos.ChaosReport`: the verdict
    headline, what was injected, the status census, and one line per
    invariant with its evidence."""
    doc = report.to_dict() if hasattr(report, "to_dict") else dict(report)
    verdict = "PASS" if doc["passed"] else "FAIL"
    sections: List[str] = [
        f"chaos: {verdict} — seed {doc['seed']}, {doc['requests']} request "
        f"event(s), {sum(doc['publishes'].values())} publish(es), "
        f"{doc['duration_s']:.1f}s ({doc['mode']})"
    ]
    faults = doc["faults_injected"]
    if faults:
        sections.append(
            render_table(
                ["fault", "count"],
                [[kind, str(faults[kind])] for kind in sorted(faults)],
            )
        )
    statuses = doc["statuses"]
    if statuses:
        sections.append(
            render_table(
                ["outcome", "count"],
                [[key, str(statuses[key])] for key in sorted(statuses)],
            )
        )
    sections.append(
        f"answers checked: {doc['answers_checked']}, "
        f"mismatches: {len(doc['mismatches'])}, "
        f"unexpected 5xx: {len(doc['internal_errors'])}, "
        f"sheds observed: {doc['sheds_observed']}"
    )
    sections.append(
        f"model versions: final {doc['final_version'] or '?'} "
        f"(expected {doc['expected_final_version']}), "
        f"seen while storming: {', '.join(doc['versions_seen']) or '-'}"
    )
    lines = []
    for inv in doc["invariants"]:
        mark = "ok " if inv["passed"] else "FAIL"
        lines.append(f"[{mark}] {inv['name']}: {inv['detail']}")
    sections.append("\n".join(lines))
    return "\n\n".join(sections)
