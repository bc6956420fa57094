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

from repro.serve.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotError,
    compile_snapshot,
    load_snapshot,
    read_header,
    write_snapshot,
)
from repro.serve.lookup import LookupEngine
from repro.serve.guard import GuardConfig, GuardTimeout, ServeGuard
from repro.serve.watch import SnapshotWatcher, WatchConfig
from repro.serve.http import ModelServer, RequestError, run_server
from repro.serve.chaos import (
    ChaosConfig,
    ChaosReport,
    run_chaos,
    run_chaos_async,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "ChaosConfig",
    "ChaosReport",
    "GuardConfig",
    "GuardTimeout",
    "LookupEngine",
    "ModelServer",
    "RequestError",
    "ServeGuard",
    "SnapshotWatcher",
    "WatchConfig",
    "run_chaos",
    "run_chaos_async",
    "run_server",
    "Snapshot",
    "SnapshotError",
    "compile_snapshot",
    "load_snapshot",
    "read_header",
    "write_snapshot",
]
