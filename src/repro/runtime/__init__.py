"""Campaign runtime: experiment execution, settings, faults, metrics.

The AnyOpt pipeline is dominated by independent BGP experiments —
singletons, ordered pairwise pairs, one-pass peer trials.  This package
supplies the runtime machinery the drivers in :mod:`repro.core` and
:mod:`repro.measurement` thread through their call chains:

- :mod:`repro.runtime.executor` — the campaign executor, which runs a
  phase's experiment descriptors in order in the calling thread;
  experiment ids are reserved up front, so a resumed campaign draws
  the same noise as an uninterrupted one;
- :mod:`repro.runtime.metrics` — counters and histograms with
  percentile summaries (surfaced via ``AnyOpt.metrics``, the CLI's
  ``--stats`` / ``--metrics-out`` flags, and
  ``repro.report.render_metrics``); per-phase wall time lives on the
  span tree (:mod:`repro.obs.trace`);
- :mod:`repro.runtime.settings` — :class:`CampaignSettings`, the
  single home of every campaign knob;
- :mod:`repro.runtime.faults` — deterministic, seed-keyed fault
  injection (announcement failures, convergence timeouts, probe
  blackouts, session resets);
- :mod:`repro.runtime.retry` — :class:`RetryPolicy` with virtual-time
  exponential backoff, and the :class:`FailedExperiment` degradation
  record.
"""

from repro.runtime.executor import CampaignExecutor
from repro.runtime.faults import (
    AnnouncementFailureError,
    ConvergenceTimeoutError,
    FaultInjector,
    ProbeBlackoutError,
    SessionResetError,
)
from repro.runtime.metrics import Counter, Histogram, MetricsRegistry
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
    "ConvergenceTimeoutError",
    "Counter",
    "FailedExperiment",
    "FaultInjector",
    "Histogram",
    "MetricsRegistry",
    "ProbeBlackoutError",
    "RetryPolicy",
    "SessionResetError",
    "run_with_retry",
]
