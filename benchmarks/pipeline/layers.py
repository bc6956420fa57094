"""Per-layer metrics of a traced run, derived from its spans.

``calls`` are exact counts, ``busy_ms`` is summed span duration
(children included), ``self_ms`` is duration minus the part child
spans cover.  Set-up spans (``op == SETUP_OP``) and op spans are kept
apart: a layer's op metrics describe the fixed traced pass only.
"""

import math
import os
from typing import Dict, Iterable, List, Optional

from spans import SETUP_OP, self_times

#: Layers = packages under ``src/repro/`` that the spans name.
SHARE_LAYERS = ("topology", "bgp", "measurement", "runtime", "core", "splpo", "serve")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class _Agg:
    __slots__ = ("calls", "busy_ms", "self_ms", "count", "durations")

    def __init__(self):
        self.calls = 0
        self.busy_ms = 0.0
        self.self_ms = 0.0
        self.count = 0
        self.durations: List[float] = []


def aggregate(spans):
    """``(ops, setup)``: per span name, the totals over op spans and
    over set-up spans."""
    ops: Dict[str, _Agg] = {}
    setup: Dict[str, _Agg] = {}
    for (name, start, end, parent, op, count), own in zip(spans, self_times(spans)):
        agg = (setup if op == SETUP_OP else ops).setdefault(name, _Agg())
        agg.calls += 1
        agg.busy_ms += (end - start) * 1000.0
        agg.self_ms += own * 1000.0
        agg.count += count
        agg.durations.append((end - start) * 1000.0)
    return ops, setup


def layer_metrics(spans, extras: Dict[str, float], unresolved: Iterable[str]):
    """``{metric: value}``; a metric whose wrap point did not resolve
    is ``None`` (the caller prints ``null`` and warns)."""
    ops, setup = aggregate(spans)
    empty = _Agg()
    unresolved = set(unresolved)
    out: Dict[str, Optional[float]] = {}

    def put(metric: str, span_name: str, value) -> None:
        out[metric] = None if span_name in unresolved else value

    def rate(count: float, busy_ms: float) -> float:
        return count / (busy_ms / 1000.0) if busy_ms else 0.0

    for name in ("topology.build", "topology.tables"):
        both = ops.get(name, empty).busy_ms + setup.get(name, empty).busy_ms
        put(f"{name}.busy_ms", name, both)

    converge = ops.get("bgp.converge", empty)
    put("bgp.converge.calls", "bgp.converge", converge.calls)
    put("bgp.converge.busy_ms", "bgp.converge", converge.busy_ms)
    for q in (50, 99):
        put(f"bgp.converge.p{q}_ms", "bgp.converge",
            percentile(converge.durations, q) if converge.durations else 0.0)
    put("bgp.converge.events", "bgp.converge", converge.count)
    put("bgp.converge.events_per_s", "bgp.converge", rate(converge.count, converge.busy_ms))

    for name, fields in (
        ("bgp.dataplane", ("calls", "busy_ms")),
        ("measurement.deploy", ("calls", "self_ms")),
        ("measurement.catchments", ("calls", "busy_ms")),
        ("measurement.rtt", ("calls", "busy_ms")),
        ("measurement.rtt_matrix", ("busy_ms",)),
        ("runtime.executor", ("calls", "self_ms")),
        ("core.discover_two_level", ("self_ms",)),
        ("core.total_order", ("calls", "busy_ms")),
        ("core.choose_order", ("busy_ms",)),
        ("core.build_instance", ("busy_ms",)),
        ("splpo.solve", ("calls", "busy_ms")),
        ("serve.lookup", ("calls", "busy_ms")),
        ("serve.lookup.kernel", ("calls", "busy_ms")),
    ):
        agg = ops.get(name, empty)
        for field in fields:
            put(f"{name}.{field}", name, getattr(agg, field))

    catchments = ops.get("measurement.catchments", empty)
    rtt = ops.get("measurement.rtt", empty)
    probed = catchments.count + rtt.count
    out["measurement.targets_probed"] = probed
    out["measurement.probe_us_per_target"] = (
        (catchments.busy_ms + rtt.busy_ms) * 1000.0 / probed if probed else 0.0
    )

    solve = ops.get("splpo.solve", empty)
    put("splpo.evaluations", "splpo.solve", solve.count)
    put("splpo.evals_per_s", "splpo.solve", rate(solve.count, solve.busy_ms))

    for step in ("compile", "write", "load"):
        agg = setup.get(f"serve.snapshot.{step}", empty)
        put(f"serve.snapshot.{step}_ms", f"serve.snapshot.{step}",
            agg.busy_ms / agg.calls if agg.calls else 0.0)

    lookup = ops.get("serve.lookup", empty)
    kernel = ops.get("serve.lookup.kernel", empty)
    put("serve.lookup.memo_hit_ratio", "serve.lookup.kernel",
        1.0 - kernel.calls / lookup.calls if lookup.calls else 0.0)

    requests: List[float] = []
    for cls in ("full", "distinct", "repeat"):
        durations = ops.get(f"serve.http.{cls}", empty).durations
        requests += durations
        out[f"serve.http.{cls}_p50_ms"] = percentile(durations, 50) if durations else 0.0
    out["serve.http.request_p99_ms"] = percentile(requests, 99) if requests else 0.0
    out["serve.http.self_ms_per_request"] = (
        (sum(requests) - lookup.busy_ms) / len(requests) if requests else 0.0
    )
    reload = ops.get("serve.reload", empty)
    out["serve.reload.calls"] = reload.calls
    out["serve.reload.p50_ms"] = (
        percentile(reload.durations, 50) if reload.durations else 0.0
    )

    op_spans = ops.get("bench.op", empty)
    out["bench.unattributed_pct"] = (
        100.0 * op_spans.self_ms / op_spans.busy_ms if op_spans.busy_ms else 0.0
    )
    for layer in SHARE_LAYERS:
        own = sum(a.self_ms for n, a in ops.items() if n.split(".")[0] == layer)
        out[f"share.{layer}_pct"] = (
            100.0 * own / op_spans.busy_ms if op_spans.busy_ms else 0.0
        )

    out.update(extras)
    return out


def count_loc(src_root: str) -> Dict[str, int]:
    """Non-blank, non-comment source lines per package under
    ``src_root`` (``loc.<package>``) and in all of it (``loc.total``)."""
    counts: Dict[str, int] = {}
    total = 0
    for folder, _, files in os.walk(src_root):
        relative = os.path.relpath(folder, src_root)
        package = None if relative == "." else relative.split(os.sep)[0]
        for filename in files:
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(folder, filename), encoding="utf-8") as fh:
                lines = sum(
                    1 for line in fh
                    if line.strip() and not line.lstrip().startswith("#")
                )
            total += lines
            if package is not None:
                counts[package] = counts.get(package, 0) + lines
    result = {f"loc.{package}": n for package, n in sorted(counts.items())}
    result["loc.total"] = total
    return result
