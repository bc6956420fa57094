"""Observability for measurement campaigns: traces, logs, exporters.

``repro.obs`` layers several views over a running campaign or server:

* :mod:`repro.obs.trace` — hierarchical spans with deterministic ids,
  recorded in memory;
* :mod:`repro.obs.log` — structured stdlib logging (key=value or
  JSON) under the ``repro.`` namespace;
* :mod:`repro.obs.export` — JSONL trace files and Prometheus text
  exposition, both pure views over recorded state;
* :mod:`repro.obs.live` — bounded sliding-window instruments (ring
  reservoirs, rate wheels) for always-on serving;
* :mod:`repro.obs.slo` — declarative SLOs evaluated into multi-window
  burn-rate state (ok / warn / page);
* :mod:`repro.obs.heartbeat` — periodic JSONL progress snapshots for
  long campaigns, tailed by ``anyopt watch``.

Nothing in this package may import :mod:`repro.runtime` (the runtime
imports us); everything here is stdlib plus ``repro.util``.
Observability must also never feed back into the campaign's seeded
RNG streams — spans, logs, and heartbeats observe, they do not
perturb.
"""

from repro.obs.export import (
    lint_prometheus,
    render_prometheus,
    sanitize_label_value,
    sanitize_metric_name,
)
from repro.obs.heartbeat import HeartbeatWriter, follow_heartbeats, load_heartbeats
from repro.obs.live import FakeClock, LiveMetrics, RateCounter, WindowReservoir
from repro.obs.log import JsonFormatter, KeyValueFormatter, configure_logging, get_logger
from repro.obs.slo import SloEngine, SloSpec, SloStatus, worst_state
from repro.obs.trace import (
    CURRENT,
    Span,
    Tracer,
    render_record,
    span_sort_key,
    strip_timing,
)

__all__ = [
    "CURRENT",
    "FakeClock",
    "HeartbeatWriter",
    "JsonFormatter",
    "KeyValueFormatter",
    "LiveMetrics",
    "RateCounter",
    "SloEngine",
    "SloSpec",
    "SloStatus",
    "Span",
    "Tracer",
    "WindowReservoir",
    "configure_logging",
    "follow_heartbeats",
    "get_logger",
    "lint_prometheus",
    "load_heartbeats",
    "render_prometheus",
    "render_record",
    "sanitize_label_value",
    "sanitize_metric_name",
    "span_sort_key",
    "strip_timing",
    "worst_state",
]
