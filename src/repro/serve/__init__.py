"""Catchment prediction as a service.

Once preferences are discovered, predicting "which site catches client
X under configuration C, at what RTT" is pure offline computation
(S5.2) — this package turns that computation into a long-running
service instead of a one-shot CLI invocation:

- :mod:`repro.serve.snapshot` — an immutable, versioned, checksummed
  model snapshot format, compiled from a discovered model into dense
  numpy arrays and memory-mapped so N workers share one copy;
- :mod:`repro.serve.lookup` — a batched, vectorized lookup engine over
  a snapshot: the array tournament and row builder of the live
  :class:`~repro.core.prediction.CatchmentPredictor`, run on the
  snapshot's arrays alone, so the two are byte-identical;
- :mod:`repro.serve.http` — an asyncio HTTP/JSON front end
  (``anyopt serve``) with ``/predict``, ``/healthz``, ``/modelz``,
  graceful shutdown, and hot snapshot reload;
- :mod:`repro.serve.guard` — request deadlines, admission control, and
  load shedding (the hardening layer behind ``--request-timeout``,
  ``--max-inflight``, ``--max-connections``);
- :mod:`repro.serve.watch` — the ``--watch`` reload-on-publish
  watcher with a corrupt-publish circuit breaker;
- :mod:`repro.serve.chaos` — the ``anyopt chaos`` harness that storms
  a live server with seeded hostile-client faults and publish churn,
  then asserts the serving invariants.
"""

import importlib

#: Each export's submodule.  The package imports none of them up front:
#: a name is resolved on first access (PEP 562), so a caller that never
#: serves never imports the server, the chaos harness or asyncio.
_EXPORTS = {
    "SNAPSHOT_FORMAT": "snapshot",
    "SNAPSHOT_VERSION": "snapshot",
    "ChaosConfig": "chaos",
    "ChaosReport": "chaos",
    "GuardConfig": "guard",
    "GuardTimeout": "guard",
    "LookupEngine": "lookup",
    "ModelServer": "http",
    "RequestError": "http",
    "ServeGuard": "guard",
    "SnapshotWatcher": "watch",
    "WatchConfig": "watch",
    "run_chaos": "chaos",
    "run_chaos_async": "chaos",
    "run_server": "http",
    "Snapshot": "snapshot",
    "SnapshotError": "snapshot",
    "compile_snapshot": "snapshot",
    "load_snapshot": "snapshot",
    "read_header": "snapshot",
    "write_snapshot": "snapshot",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
