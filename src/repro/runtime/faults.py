"""Deterministic fault injection for measurement campaigns.

The paper's campaigns run for days on the real Internet (S4.5: ~10
days of singleton plus ~8 days of pairwise experiments at 2h spacing),
where probes are lost, orchestrator sessions reset, and announcements
fail.  This module injects those failure modes into the simulated
campaign so the runtime can be exercised — and tested — against them:

- *announcement failures*: the BGP injection never takes effect;
- *convergence timeouts*: the control plane does not settle within the
  per-experiment measurement window;
- *probe blackouts*: the measurement session loses every probe of an
  experiment;
- *session resets*: the orchestrator's session to the testbed drops.

Each fault is a probability knob on
:class:`~repro.runtime.settings.CampaignSettings` and raises a typed
:class:`~repro.util.errors.TransientError` subclass that
:func:`repro.runtime.retry.run_with_retry` knows to retry.

Determinism: every fault stream is keyed by ``(seed, fault,
experiment_id, attempt)`` — never by wall-clock or completion order —
so a resumed campaign injects the faults an uninterrupted one would, and
a retry (next ``attempt`` nonce) re-derives fresh fault noise instead
of deterministically re-failing.

The serving layer has its own hostile-network failure modes —
slow-loris reads, torn request bodies, clients that stop reading their
responses, corrupt snapshot publishes — modelled by
:class:`ServeFaultInjector` with the same seed-keyed determinism
(``(seed, "serve-fault", scope, index)``), consumed by the
``anyopt chaos`` harness (:mod:`repro.serve.chaos`).
"""

from typing import Optional, Sequence, Tuple

from repro.obs.log import get_logger
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.settings import CampaignSettings
from repro.util.errors import TransientError
from repro.util.rng import derive_rng

logger = get_logger("faults")


class AnnouncementFailureError(TransientError):
    """A BGP announcement was not accepted by the testbed."""

    fault_kind = "announcement"


class ConvergenceTimeoutError(TransientError):
    """The control plane failed to converge within the experiment window."""

    fault_kind = "convergence-timeout"


class ProbeBlackoutError(TransientError):
    """Every probe of a measurement session was lost."""

    fault_kind = "probe-blackout"


class SessionResetError(TransientError):
    """The orchestrator's session to the testbed dropped."""

    fault_kind = "session-reset"


#: Fault kind -> (settings field, raised error class).
FAULT_KINDS = {
    "announcement": ("fault_announcement_prob", AnnouncementFailureError),
    "convergence-timeout": ("fault_convergence_timeout_prob", ConvergenceTimeoutError),
    "probe-blackout": ("fault_probe_blackout_prob", ProbeBlackoutError),
    "session-reset": ("fault_session_reset_prob", SessionResetError),
}

#: Metrics counter incremented for every injected fault (plus a
#: per-kind ``fault_<kind>`` counter).
FAULTS_COUNTER = "faults_injected"


class FaultInjector:
    """Injects seeded transient faults into campaign operations.

    With every fault probability at its 0.0 default the injector is
    inert: :meth:`raise_if` returns immediately and no RNG stream is
    consumed, so fault-free campaigns stay bit-identical to builds
    that predate fault injection.
    """

    def __init__(
        self,
        seed,
        settings: CampaignSettings,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        self.seed = seed
        self.metrics = metrics
        self.tracer = tracer
        self._probs = {
            kind: getattr(settings, field) for kind, (field, _) in FAULT_KINDS.items()
        }

    @property
    def any_enabled(self) -> bool:
        return any(p > 0.0 for p in self._probs.values())

    def enabled(self, fault: str) -> bool:
        return self._probs[fault] > 0.0

    def raise_if(self, fault: str, experiment_id: int, attempt: int) -> None:
        """Raise the fault's typed error iff its seeded stream fires.

        ``attempt`` is the retry nonce: attempt 0 is the first try, and
        each retry re-derives the stream so transient faults clear with
        the probability the knob describes.
        """
        prob = self._probs[fault]
        if prob <= 0.0:
            return
        rng = derive_rng(self.seed, "fault", fault, experiment_id, attempt)
        if rng.random() >= prob:
            return
        if self.metrics is not None:
            self.metrics.counter(FAULTS_COUNTER).increment()
            self.metrics.counter(f"fault_{fault}").increment()
        if self.tracer is not None:
            self.tracer.add_event(
                "fault", fault=fault, experiment_id=experiment_id, attempt=attempt
            )
        logger.info(
            "fault injected",
            extra={"fields": {
                "fault": fault,
                "experiment_id": experiment_id,
                "attempt": attempt,
            }},
        )
        error_cls = FAULT_KINDS[fault][1]
        raise error_cls(
            f"injected {fault} fault (experiment {experiment_id}, "
            f"attempt {attempt})"
        )


#: Serve-path fault kinds the chaos harness can inject.  The first
#: three are hostile-client behaviours applied to individual requests;
#: ``corrupt-snapshot`` is a publisher-side fault applied to snapshot
#: publish events.
SERVE_FAULT_KINDS = ("slow-read", "torn-body", "stalled-write", "corrupt-snapshot")

#: The subset of SERVE_FAULT_KINDS that applies to requests.
SERVE_REQUEST_FAULTS = tuple(k for k in SERVE_FAULT_KINDS if k != "corrupt-snapshot")


class ServeFaultInjector:
    """Plans seeded serve-path faults for the chaos harness.

    Unlike :class:`FaultInjector` (which *raises* into campaign code),
    this one only *decides*: the harness asks which fault, if any, to
    apply to request ``index`` or publish ``index``, then acts the
    hostile client or corrupt publisher itself.  Decisions are keyed
    by ``(seed, "serve-fault", scope, index)`` — independent of
    timing, concurrency, and completion order — so a chaos run is
    reproducible from its seed alone.
    """

    def __init__(
        self,
        seed,
        request_fault_prob: float = 0.25,
        publish_corrupt_prob: float = 0.5,
        kinds: Sequence[str] = SERVE_REQUEST_FAULTS,
    ):
        if not 0.0 <= request_fault_prob <= 1.0:
            raise ValueError(
                f"request_fault_prob must be in [0, 1], got {request_fault_prob}"
            )
        if not 0.0 <= publish_corrupt_prob <= 1.0:
            raise ValueError(
                f"publish_corrupt_prob must be in [0, 1], got {publish_corrupt_prob}"
            )
        unknown = set(kinds) - set(SERVE_REQUEST_FAULTS)
        if unknown:
            raise ValueError(
                f"unknown serve fault kinds {sorted(unknown)}; "
                f"choose from {SERVE_REQUEST_FAULTS}"
            )
        self.seed = seed
        self.request_fault_prob = request_fault_prob
        self.publish_corrupt_prob = publish_corrupt_prob
        self.kinds = tuple(kinds)

    def request_fault(self, index: int) -> Optional[str]:
        """Which hostile-client fault (if any) request ``index`` gets."""
        if not self.kinds or self.request_fault_prob <= 0.0:
            return None
        rng = derive_rng(self.seed, "serve-fault", "request", index)
        if rng.random() >= self.request_fault_prob:
            return None
        return self.kinds[rng.randrange(len(self.kinds))]

    def publish_corrupt(self, index: int) -> bool:
        """Whether publish event ``index`` ships corrupt bytes."""
        if self.publish_corrupt_prob <= 0.0:
            return False
        rng = derive_rng(self.seed, "serve-fault", "publish", index)
        return rng.random() < self.publish_corrupt_prob

    def jitter(self, scope: str, index: int, lo: float, hi: float) -> float:
        """A seeded delay in ``[lo, hi]`` for pacing fault behaviour
        (e.g. how slowly a slow-loris trickles)."""
        rng = derive_rng(self.seed, "serve-fault", scope, index)
        return lo + (hi - lo) * rng.random()

    def plan(self, requests: int, publishes: int) -> Tuple[dict, dict]:
        """The full decision tables for a run — what the chaos report
        records so a failure is diagnosable from the artifact."""
        request_plan = {i: self.request_fault(i) for i in range(requests)}
        publish_plan = {i: self.publish_corrupt(i) for i in range(publishes)}
        return request_plan, publish_plan
