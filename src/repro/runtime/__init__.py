"""Campaign runtime: parallel execution, convergence caching, metrics.

The AnyOpt pipeline is dominated by independent BGP experiments —
singletons, ordered pairwise pairs, one-pass peer trials — that a
serial loop turns into the campaign's wall-clock floor.  This package
supplies the runtime machinery the drivers in :mod:`repro.core` and
:mod:`repro.measurement` thread through their call chains:

- :mod:`repro.runtime.executor` — serial, thread-pooled, and
  process-pooled campaign executors; experiment ids are reserved up
  front so pooled runs are bit-identical to serial ones.  The process
  executor dispatches *chunks* of tasks to a warm pool of forked
  workers keyed on the campaign spec (one metrics/span merge per
  chunk, one pool across campaign phases);
- :mod:`repro.runtime.cache` — an exact-input LRU cache of converged
  BGP states, so redeployments of the same configuration skip
  re-propagation;
- :mod:`repro.runtime.metrics` — counters, timers, histograms with
  percentile summaries, and per-phase campaign summaries (surfaced via
  ``AnyOpt.metrics``, the CLI's ``--stats`` / ``--metrics-out`` flags,
  and ``repro.report.render_metrics``);
- :mod:`repro.runtime.settings` — :class:`CampaignSettings`, the
  single home of every campaign knob;
- :mod:`repro.runtime.faults` — deterministic, seed-keyed fault
  injection (announcement failures, convergence timeouts, probe
  blackouts, session resets);
- :mod:`repro.runtime.retry` — :class:`RetryPolicy` with virtual-time
  exponential backoff, and the :class:`FailedExperiment` degradation
  record.
"""

from repro.runtime.cache import ConvergenceCache
from repro.runtime.executor import (
    CampaignExecutor,
    PooledExecutor,
    ProcessExecutor,
    SerialExecutor,
    auto_chunk_size,
    make_executor,
)
from repro.runtime.faults import (
    AnnouncementFailureError,
    ConvergenceTimeoutError,
    FaultInjector,
    ProbeBlackoutError,
    SessionResetError,
)
from repro.runtime.metrics import Counter, Histogram, MetricsRegistry, PhaseRecord, Timer
from repro.runtime.retry import (
    FailedExperiment,
    RetryPolicy,
    run_with_retry,
)
from repro.runtime.settings import CampaignSettings

__all__ = [
    "AnnouncementFailureError",
    "CampaignExecutor",
    "CampaignSettings",
    "ConvergenceCache",
    "ConvergenceTimeoutError",
    "Counter",
    "FailedExperiment",
    "FaultInjector",
    "Histogram",
    "MetricsRegistry",
    "PhaseRecord",
    "PooledExecutor",
    "ProbeBlackoutError",
    "ProcessExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "SessionResetError",
    "Timer",
    "auto_chunk_size",
    "make_executor",
    "run_with_retry",
]
