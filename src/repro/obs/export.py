"""Exporters: JSONL trace files and Prometheus text exposition.

Both exports are *views* over what the tracer and registry already
hold — they never mutate campaign state, so exporting is safe at any
point and (for traces) byte-identical across runs once the
wall-clock fields are excluded.
"""

import json
import re
from typing import Dict, List, Optional

from repro.obs.trace import render_record, span_sort_key
from repro.util.errors import ReproError

#: Quantiles rendered for each histogram in the Prometheus summary.
_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


# -- JSONL traces -----------------------------------------------------------


def write_trace_jsonl(records: List[Dict], path) -> None:
    """Write span records as one JSON object per line, sorted by span
    id (the deterministic export order)."""
    ordered = sorted(records, key=lambda r: span_sort_key(r["span_id"]))
    with open(path, "w", encoding="utf-8") as fh:
        for record in ordered:
            fh.write(render_record(record))
            fh.write("\n")


def load_trace(path) -> List[Dict]:
    """Read a JSONL trace file back into span records."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(f"corrupt trace line {lineno} in {path}: {exc}")
            if not isinstance(record, dict) or "span_id" not in record:
                raise ReproError(f"trace line {lineno} in {path} is not a span record")
            records.append(record)
    return records


# -- Prometheus text exposition ---------------------------------------------

#: Live-reservoir quantiles rendered as gauges on ``/metricsz``.
_LIVE_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

#: Numeric encoding of SLO alert states for the ``anyopt_slo_state``
#: gauge (graphable and alertable: ``>= 2`` means "page").
_SLO_STATE_VALUES = {"ok": 0, "warn": 1, "page": 2}

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\["\\n])*)"$'
)


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary registry name into a valid Prometheus
    metric-name fragment: invalid characters become ``_``, a leading
    digit gets a ``_`` prefix, and an empty result becomes
    ``_unnamed`` (the exposition format forbids empty names)."""
    sanitized = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not sanitized:
        return "_unnamed"
    if sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def sanitize_label_value(value) -> str:
    """Escape a label value for the text exposition format
    (backslash, double quote, and newline are the three characters
    the format requires escaping)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _metric_name(name: str, suffix: str = "") -> str:
    return f"anyopt_{sanitize_metric_name(name)}{suffix}"


def _fmt(value) -> str:
    return repr(float(value))


class _Families:
    """Accumulates samples grouped into metric families, each with
    exactly one ``# TYPE`` line emitted before its samples and stable
    name-sorted output ordering."""

    def __init__(self):
        self._families: Dict[str, Dict] = {}

    def add(self, family: str, kind: str, samples) -> None:
        """``samples`` are ``(suffix, labels_dict_or_None, value)``
        tuples; suffix distinguishes ``_sum``/``_count`` children."""
        entry = self._families.setdefault(family, {"kind": kind, "samples": []})
        if entry["kind"] != kind:
            raise ReproError(
                f"metric family {family} registered as both "
                f"{entry['kind']} and {kind}"
            )
        entry["samples"].extend(samples)

    def render(self) -> str:
        lines: List[str] = []
        for family in sorted(self._families):
            entry = self._families[family]
            lines.append(f"# TYPE {family} {entry['kind']}")
            for suffix, labels, value in entry["samples"]:
                if labels:
                    rendered = ",".join(
                        f'{key}="{sanitize_label_value(labels[key])}"'
                        for key in labels
                    )
                    lines.append(f"{family}{suffix}{{{rendered}}} {value}")
                else:
                    lines.append(f"{family}{suffix} {value}")
        return "\n".join(lines) + "\n"


def render_prometheus(
    snapshot: Dict, live: Optional[Dict] = None, slo: Optional[List[Dict]] = None
) -> str:
    """Render metrics as Prometheus text exposition format (0.0.4).

    ``snapshot`` is a :meth:`MetricsRegistry.snapshot`: counters
    become ``anyopt_<name>_total`` and histograms Prometheus
    *summaries* with exact ``quantile`` lines (the batch
    registry keeps all raw observations, so no bucketing error is
    introduced).

    ``live`` (a :meth:`~repro.obs.live.LiveMetrics.snapshot`) adds
    rolling-window gauges under ``anyopt_live_*``; ``slo`` (a list of
    :meth:`~repro.obs.slo.SloStatus.to_dict` documents) adds
    ``anyopt_slo_*`` gauges.  Both are gauges, never counters: a
    windowed reading can go down.

    Output is grouped into families with exactly one ``# TYPE`` line
    each, families sorted by name — a stable ordering scrapers and
    diffs can rely on — and all names/label values sanitized for the
    format (:func:`sanitize_metric_name`,
    :func:`sanitize_label_value`).
    """
    families = _Families()
    for name, value in snapshot.get("counters", {}).items():
        families.add(_metric_name(name, "_total"), "counter", [("", None, value)])
    for name, summary in snapshot.get("histograms", {}).items():
        samples = []
        if summary.get("count"):
            samples.extend(
                ("", {"quantile": quantile}, _fmt(summary[key]))
                for quantile, key in _QUANTILES
            )
            samples.append(("_sum", None, _fmt(summary["sum"])))
        samples.append(("_count", None, summary.get("count", 0)))
        families.add(_metric_name(name), "summary", samples)

    if live:
        for name, summary in live.get("reservoirs", {}).items():
            family = _metric_name(f"live_{name}")
            samples = [
                ("", {"quantile": quantile}, _fmt(summary[key]))
                for quantile, key in _LIVE_QUANTILES
                if key in summary
            ]
            families.add(family, "gauge", samples)
            families.add(
                f"{family}_window_count", "gauge",
                [("", None, summary.get("count", 0))],
            )
        for name, rate in live.get("rates", {}).items():
            families.add(
                _metric_name(f"live_{name}_per_s"), "gauge",
                [("", None, _fmt(rate["rate_per_s"]))],
            )

    if slo:
        state_samples, burn_samples, budget_samples = [], [], []
        for status in slo:
            labels = {"slo": status["name"], "kind": status["kind"]}
            state_samples.append(
                ("", labels, _SLO_STATE_VALUES.get(status["state"], 2))
            )
            budget_samples.append(
                ("", labels, _fmt(status["budget_remaining"]))
            )
            for window in ("fast", "slow"):
                burn_samples.append(
                    ("", dict(labels, window=window),
                     _fmt(status[f"burn_{window}"]))
                )
        families.add("anyopt_slo_state", "gauge", state_samples)
        families.add("anyopt_slo_burn_rate", "gauge", burn_samples)
        families.add("anyopt_slo_budget_remaining", "gauge", budget_samples)

    return families.render()


def write_prometheus(snapshot: Dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_prometheus(snapshot))


def lint_prometheus(text: str) -> List[str]:
    """Check text exposition output against the format rules the
    scrapers we claim to support enforce.  Returns a list of
    problems; an empty list means the document passes.

    Checked: newline termination; every line a valid comment or
    sample; metric and label names match the format's grammar; every
    sample belongs to a family declared by a preceding ``# TYPE``
    line (allowing the ``_sum``/``_count``/``_bucket`` children);
    one ``# TYPE`` per family; counter families named ``*_total``
    (this repo's convention, and OpenMetrics'); parseable sample
    values; no duplicate ``(name, labels)`` series.
    """
    problems: List[str] = []
    if text and not text.endswith("\n"):
        problems.append("document does not end with a newline")
    families: Dict[str, str] = {}
    seen_series = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] not in ("TYPE", "HELP"):
                problems.append(f"line {lineno}: unknown comment kind {parts[1]!r}")
                continue
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    problems.append(f"line {lineno}: malformed TYPE line")
                    continue
                _, _, family, kind = parts
                if not _NAME_RE.match(family):
                    problems.append(
                        f"line {lineno}: invalid family name {family!r}"
                    )
                if kind not in ("counter", "gauge", "summary", "histogram", "untyped"):
                    problems.append(f"line {lineno}: invalid metric type {kind!r}")
                if family in families:
                    problems.append(f"line {lineno}: duplicate TYPE for {family}")
                if kind == "counter" and not family.endswith("_total"):
                    problems.append(
                        f"line {lineno}: counter {family} does not end in _total"
                    )
                families[family] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name, labels, value = (
            match.group("name"), match.group("labels"), match.group("value"),
        )
        base_candidates = [name]
        for child in ("_sum", "_count", "_bucket"):
            if name.endswith(child):
                base_candidates.append(name[: -len(child)])
        if not any(candidate in families for candidate in base_candidates):
            problems.append(f"line {lineno}: sample {name} has no TYPE line")
        if labels:
            for pair in labels.split(","):
                if not _LABEL_RE.match(pair):
                    problems.append(f"line {lineno}: malformed label {pair!r}")
        try:
            float(value)
        except ValueError:
            problems.append(f"line {lineno}: unparseable value {value!r}")
        series = (name, labels or "")
        if series in seen_series:
            problems.append(f"line {lineno}: duplicate series {name}{{{labels or ''}}}")
        seen_series.add(series)
    return problems
