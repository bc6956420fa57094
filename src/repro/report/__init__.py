"""Plain-text reporting: aligned tables and ASCII charts.

Used by the CLI and the examples to render measurement results without
any plotting dependency:

- :func:`render_table` — aligned columns with optional float formats;
- :func:`render_cdf` — an ASCII CDF plot of a sample;
- :func:`render_histogram` — a horizontal bar histogram;
- :func:`render_catchment_bars` — per-site catchment share bars;
- :func:`render_metrics` — campaign counters and histograms (the
  phase table is :func:`repro.obs.inspect.phase_breakdown`);
- :func:`render_audit_report` — integrity-audit findings and quarantine;
- :func:`render_prediction_batch` — a typed prediction batch with its
  reason census;
- :func:`render_chaos_report` — the ``anyopt chaos`` verdict with its
  per-invariant evidence;
- :func:`render_heartbeat` / :func:`render_heartbeat_history` — the
  ``anyopt watch`` one-line campaign-progress format.
"""

from repro.report.text import (
    render_audit_report,
    render_catchment_bars,
    render_cdf,
    render_chaos_report,
    render_heartbeat,
    render_heartbeat_history,
    render_histogram,
    render_metrics,
    render_prediction_batch,
    render_table,
)

__all__ = [
    "render_audit_report",
    "render_catchment_bars",
    "render_cdf",
    "render_chaos_report",
    "render_heartbeat",
    "render_heartbeat_history",
    "render_histogram",
    "render_metrics",
    "render_prediction_batch",
    "render_table",
]
