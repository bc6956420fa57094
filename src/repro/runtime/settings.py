"""Campaign-level settings: one dataclass instead of scattered kwargs.

Every noise knob (session churn, RTT drift, delay jitter) and every
runtime knob (event budget, faults, retries) lives in a single
immutable :class:`CampaignSettings` value; ``settings=`` is the one way
to pass them to :class:`~repro.core.anyopt.AnyOpt` and
:class:`~repro.measurement.orchestrator.Orchestrator`, so their
signatures do not grow with every model refinement.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class CampaignSettings:
    """Everything that tunes how a measurement campaign runs.

    Attributes:
        session_churn_prob: per-experiment probability that an AS's
            interior-routing state changed since the topology was
            built (the measurement-to-deployment drift).
        rtt_drift_sigma: relative sigma of per-target path-RTT drift.
        rtt_bias_sigma: relative sigma of the per-experiment epoch bias.
        bgp_delay_jitter_ms: mean of the per-run exponential jitter on
            every link's control-plane delay.
        max_convergence_events: event budget per convergence run;
            exhaustion raises
            :class:`~repro.util.errors.ConvergenceBudgetError` with an
            event census.  ``None`` (the default) auto-scales the cap
            with topology size (never below the historical 2M floor).
        convergence_cache: retired; ``False`` is its only legal value.
            Every run converges: the convergence cache and its disk
            store are gone.  The field stays only while the benchmark
            harness (``benchmarks/pipeline/workloads.py``) still passes
            ``convergence_cache=False``, and goes when it drops that
            argument.
        retry_backoff_base_ms: virtual backoff before the first retry.
        retry_backoff_factor: multiplier per further retry.
        retry_backoff_max_ms: cap on a single virtual backoff interval.

    The fault-injection knobs (see :mod:`repro.runtime.faults`) and
    ``retry_max_attempts`` carry their help in their field ``metadata``,
    which also names the campaign subcommands' flag that sets them.
    """

    session_churn_prob: float = 0.02
    rtt_drift_sigma: float = 0.04
    rtt_bias_sigma: float = 0.03
    bgp_delay_jitter_ms: float = 20.0
    max_convergence_events: Optional[int] = None
    convergence_cache: bool = False
    fault_announcement_prob: float = field(default=0.0, metadata={
        "flag": "--fault-announcement", "metavar": "PROB",
        "help": "per-attempt probability of a transient BGP announcement failure",
    })
    fault_convergence_timeout_prob: float = field(default=0.0, metadata={
        "flag": "--fault-convergence-timeout", "metavar": "PROB",
        "help": "per-attempt probability that an experiment's convergence "
        "window times out",
    })
    fault_probe_blackout_prob: float = field(default=0.0, metadata={
        "flag": "--fault-probe-blackout", "metavar": "PROB",
        "help": "per-attempt probability that an experiment's measurement "
        "session loses every probe",
    })
    fault_session_reset_prob: float = field(default=0.0, metadata={
        "flag": "--fault-session-reset", "metavar": "PROB",
        "help": "per-attempt probability that the orchestrator's testbed "
        "session resets mid-experiment",
    })
    retry_max_attempts: int = field(default=3, metadata={
        "flag": "--max-attempts", "metavar": "N",
        "help": "attempts per experiment before it is recorded as failed; "
        "1 disables retrying",
    })
    retry_backoff_base_ms: float = 1000.0
    retry_backoff_factor: float = 2.0
    retry_backoff_max_ms: float = 60_000.0

    def __post_init__(self):
        # A float or bool passes the range checks below, then fails mid
        # campaign as an untyped TypeError or is silently truncated.
        for knob in dataclasses.fields(self):
            value = getattr(self, knob.name)
            if knob.type in (int, Optional[int]) and type(value) is not int:
                if value is not None or knob.type is int:
                    raise ConfigurationError(f"{knob.name} must be an integer, got {value!r}")
        if not 0.0 <= self.session_churn_prob <= 1.0:
            raise ConfigurationError("session_churn_prob must be in [0, 1]")
        # Written as ranges: ``nan < 0`` is false, so a lower bound
        # alone lets NaN (and infinity) through to the noise streams.
        for knob in ("rtt_drift_sigma", "rtt_bias_sigma", "bgp_delay_jitter_ms"):
            if not 0.0 <= getattr(self, knob) < math.inf:
                raise ConfigurationError(f"{knob} must be finite and non-negative")
        if self.max_convergence_events is not None and self.max_convergence_events < 1:
            raise ConfigurationError(
                "max_convergence_events must be >= 1 (or None for auto)"
            )
        if self.convergence_cache is not False:
            raise ConfigurationError(
                "convergence_cache was removed: every run converges; "
                "leave it False or drop the argument"
            )
        for knob in (
            "fault_announcement_prob",
            "fault_convergence_timeout_prob",
            "fault_probe_blackout_prob",
            "fault_session_reset_prob",
        ):
            if not 0.0 <= getattr(self, knob) <= 1.0:
                raise ConfigurationError(f"{knob} must be in [0, 1]")
        if self.retry_max_attempts < 1:
            raise ConfigurationError("retry_max_attempts must be >= 1")
        for knob in ("retry_backoff_base_ms", "retry_backoff_max_ms"):
            if not 0.0 <= getattr(self, knob) < math.inf:
                raise ConfigurationError(f"{knob} must be finite and non-negative")
        if not 1.0 <= self.retry_backoff_factor < math.inf:
            raise ConfigurationError("retry_backoff_factor must be finite and >= 1")

    @property
    def faults_enabled(self) -> bool:
        """True when any fault-injection knob is nonzero."""
        return (
            self.fault_announcement_prob > 0.0
            or self.fault_convergence_timeout_prob > 0.0
            or self.fault_probe_blackout_prob > 0.0
            or self.fault_session_reset_prob > 0.0
        )

    @classmethod
    def noiseless(cls, **overrides) -> "CampaignSettings":
        """Settings with every stochastic drift model disabled.

        Deployments become exactly repeatable: redeploying a
        configuration converges again to the same state.
        """
        base = dict(
            session_churn_prob=0.0,
            rtt_drift_sigma=0.0,
            rtt_bias_sigma=0.0,
            bgp_delay_jitter_ms=0.0,
        )
        base.update(overrides)
        return cls(**base)

    def replace(self, **changes) -> "CampaignSettings":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
