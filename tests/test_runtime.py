"""The campaign runtime: the executor, settings, metrics."""

import pytest

from repro import AnyOpt, CampaignSettings
from repro.core import ExperimentRunner
from repro.core.config import AnycastConfig
from repro.measurement import Orchestrator
from repro.obs import Tracer
from repro.obs.inspect import phase_breakdown
from repro.runtime import MetricsRegistry
from repro.splpo import available_strategies, get_solver, register_solver
from repro.splpo.registry import _REGISTRY
from repro.util.errors import ConfigurationError

from tests.conftest import SEED, watch_results


# --- executor ---------------------------------------------------------------


def test_executors_report_progress(testbed, targets):
    # progress(done, total) fires after each experiment, in task order.
    orch = Orchestrator(testbed, targets, seed=SEED)
    calls = []
    ExperimentRunner(orch).pairwise_sweep(
        testbed.site_ids()[:4],  # 6 pairs
        progress=lambda done, total: calls.append((done, total)),
    )
    assert calls == [(i, 6) for i in range(1, 7)]


# --- settings and the deprecation shim --------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "knob",
    [
        "bgp_delay_jitter_ms",
        "rtt_drift_sigma",
        "rtt_bias_sigma",
        "retry_backoff_base_ms",
        "retry_backoff_factor",
        "retry_backoff_max_ms",
    ],
)
def test_settings_reject_non_finite_noise_and_backoff(knob, bad):
    """``nan < 0`` is false: a lower bound alone would wave NaN through
    to a noise stream (or a backoff clock) and fail far from here."""
    with pytest.raises(ConfigurationError, match=knob):
        CampaignSettings(**{knob: bad})


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        CampaignSettings(session_churn_prob=1.5)
    with pytest.raises(ConfigurationError):
        CampaignSettings(rtt_drift_sigma=-0.1)
    with pytest.raises(ConfigurationError):
        CampaignSettings(max_convergence_events=0)
    with pytest.raises(ConfigurationError):
        CampaignSettings(fault_announcement_prob=1.5)
    with pytest.raises(ConfigurationError):
        CampaignSettings(fault_probe_blackout_prob=-0.1)
    with pytest.raises(ConfigurationError):
        CampaignSettings(retry_max_attempts=0)
    with pytest.raises(ConfigurationError):
        CampaignSettings(retry_backoff_factor=0.5)
    assert not CampaignSettings().faults_enabled
    assert CampaignSettings(fault_session_reset_prob=0.2).faults_enabled


@pytest.mark.parametrize(
    "knob, bad, context",
    [
        # Each used to die mid-campaign with an untyped TypeError, or
        # pass silently.
        ("retry_max_attempts", 2.5, {"fault_probe_blackout_prob": 0.3}),
        ("max_convergence_events", 1.5, {"bgp_delay_jitter_ms": 0.0}),
        ("max_convergence_events", 2.5, {}),
        ("retry_max_attempts", True, {}),
        ("retry_max_attempts", 1.5, {}),
        ("retry_max_attempts", None, {}),
        ("max_convergence_events", 1e6, {}),
    ],
)
def test_settings_reject_non_integer_counts(knob, bad, context):
    with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
        CampaignSettings(**context, **{knob: bad})


def test_optional_counts_accept_none():
    settings = CampaignSettings(max_convergence_events=None)
    assert settings.max_convergence_events is None


def test_noiseless_preset_and_replace():
    settings = CampaignSettings.noiseless()
    assert settings.session_churn_prob == 0.0
    assert settings.rtt_drift_sigma == 0.0
    assert settings.rtt_bias_sigma == 0.0
    assert settings.bgp_delay_jitter_ms == 0.0
    patient = settings.replace(retry_max_attempts=8)
    assert patient.retry_max_attempts == 8
    assert settings.retry_max_attempts == 3  # frozen original untouched
    with pytest.raises(ConfigurationError):
        settings.replace(retry_max_attempts=0)


#: The per-knob constructor keywords ``settings=`` replaced.
REMOVED_KEYWORDS = (
    "session_churn_prob", "rtt_drift_sigma", "rtt_bias_sigma", "bgp_delay_jitter_ms",
)


def test_removed_kwargs_rejected_by_orchestrator(testbed, targets):
    for keyword in REMOVED_KEYWORDS:
        with pytest.raises(TypeError, match=keyword):
            Orchestrator(testbed, targets, seed=SEED, **{keyword: 0.0})
    assert Orchestrator(testbed, targets, seed=SEED).settings == CampaignSettings()


def test_removed_kwargs_rejected_by_anyopt(testbed, targets):
    for keyword in REMOVED_KEYWORDS:
        with pytest.raises(TypeError, match=keyword):
            AnyOpt(testbed, targets=targets, seed=SEED, **{keyword: 0.0})
    assert AnyOpt(testbed, targets=targets, seed=SEED).settings == CampaignSettings()


# --- every run converges ---------------------------------------------------


def _redeploy_twice(orchestrator):
    """Deploy one configuration twice; return both states as dicts."""
    config = AnycastConfig(site_order=tuple(orchestrator.testbed.site_ids()[:3]))
    first, second = (orchestrator.deploy(config) for _ in range(2))
    assert second.converged is not first.converged
    assert second.experiment_id == first.experiment_id + 1
    assert orchestrator.metrics.snapshot()["counters"]["convergence_runs"] == 2
    return [dict(d.converged.states) for d in (first, second)]


def test_noiseless_redeploy_converges_again(clean_orchestrator):
    """No run is reused: without noise a redeployment converges anew, to
    the same state."""
    first, second = _redeploy_twice(clean_orchestrator)
    assert first == second


def test_noisy_redeploy_converges_again(noisy_orchestrator):
    """With noise a redeployment converges anew, to another state."""
    first, second = _redeploy_twice(noisy_orchestrator)
    assert first != second


def test_cache_disabled_by_settings():
    """The convergence cache is gone; its settings field stays, off, for
    callers that still pass ``convergence_cache=False``."""
    assert CampaignSettings(convergence_cache=False) == CampaignSettings()
    assert CampaignSettings.noiseless(convergence_cache=False) == CampaignSettings.noiseless()
    with pytest.raises(ConfigurationError, match="convergence_cache was removed"):
        CampaignSettings(convergence_cache=True)
    with pytest.raises(ConfigurationError, match="convergence_cache was removed"):
        CampaignSettings().replace(convergence_cache=True)


def test_default_discover_holds_no_converged_state(testbed, targets):
    """Every experiment converges once, and the campaign keeps none of
    the results once it has read them."""
    anyopt = AnyOpt(testbed, targets=targets, seed=SEED)
    results = watch_results(anyopt.orchestrator.engine)
    model = anyopt.discover()
    counters = anyopt.metrics.snapshot()["counters"]
    assert len(results) == counters["convergence_runs"] == model.experiments_used
    assert all(ref() is None for ref in results)


# --- metrics ----------------------------------------------------------------


def test_metrics_counters():
    metrics = MetricsRegistry()
    metrics.counter("probes").increment()
    metrics.counter("probes").increment(2)
    snap = metrics.snapshot()
    assert snap["counters"]["probes"] == 3


def test_phase_view_counts_successful_deploys_below_each_phase():
    tracer = Tracer()
    with tracer.span("campaign"):
        with tracer.span("deploy"):
            pass
        with tracer.span("sweep"):
            for key in ("exp:0", "exp:1", "exp:2"):
                with tracer.span("experiment", key=key):
                    with tracer.span("deploy"):
                        pass
            with pytest.raises(ValueError):
                with tracer.span("deploy"):
                    raise ValueError("retries exhausted")
    rows = {
        line.split()[0]: line.split()[1:]
        for line in phase_breakdown(tracer.records()).splitlines()[2:]
    }
    assert list(rows) == ["campaign", "sweep"]
    assert rows["campaign"][1:] == ["4", "ok"]
    assert rows["sweep"][1:] == ["3", "ok"]
    assert float(rows["campaign"][0]) >= float(rows["sweep"][0]) >= 0.0


def test_stats_rendering_lists_counters_and_phases(clean_orchestrator):
    from repro.report import render_metrics

    config = AnycastConfig(
        site_order=tuple(clean_orchestrator.testbed.site_ids()[:2])
    )
    with clean_orchestrator.tracer.span("redeploy"):
        clean_orchestrator.deploy(config)
        clean_orchestrator.deploy(config)
    out = "\n\n".join([
        render_metrics(clean_orchestrator.metrics.snapshot()),
        phase_breakdown(clean_orchestrator.tracer.records()),
    ])
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line.strip()}
    assert rows["convergence_runs"] == ["2"]
    assert rows["phase"] == ["wall", "(s)", "experiments", "status"]
    assert rows["redeploy"][1:] == ["2", "ok"]


def test_campaign_records_metrics(clean_orchestrator):
    clean_orchestrator.deploy(
        AnycastConfig(site_order=tuple(clean_orchestrator.testbed.site_ids()[:2]))
    )
    snap = clean_orchestrator.metrics.snapshot()
    assert snap["counters"]["experiments"] == 1
    assert snap["counters"]["convergence_runs"] == 1
    assert snap["counters"]["convergence_messages"] > 0
    deploys = [r for r in clean_orchestrator.tracer.records() if r["name"] == "deploy"]
    assert [r["status"] for r in deploys] == ["ok"]


def test_discover_attaches_metrics_snapshot(anyopt, anyopt_model):
    snap = anyopt_model.metrics
    assert snap is not None
    assert snap["counters"]["experiments"] == anyopt_model.experiments_used
    phases = [line.split()[0] for line in phase_breakdown(anyopt.tracer.records()).splitlines()]
    assert "discover" in phases


# --- solver registry --------------------------------------------------------


def test_builtin_strategies_registered():
    for name in ("exhaustive", "greedy", "local_search", "annealing"):
        assert name in available_strategies()
        assert callable(get_solver(name))


def test_unknown_strategy_lists_alternatives():
    with pytest.raises(ConfigurationError, match="exhaustive"):
        get_solver("does-not-exist")


def test_register_custom_solver():
    marker = object()

    @register_solver("runtime-test-solver")
    def _solver(instance, *, seed=0, sizes=None, max_evaluations=None, **kwargs):
        return marker

    try:
        assert get_solver("runtime-test-solver")(None) is marker
        assert "runtime-test-solver" in available_strategies()
    finally:
        _REGISTRY.pop("runtime-test-solver", None)


def test_register_solver_rejects_bad_names():
    with pytest.raises(ConfigurationError):
        register_solver("", lambda instance, **kwargs: None)
