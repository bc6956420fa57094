"""The campaign runtime: the executor, settings, caching, metrics."""

import threading

import pytest

from repro import AnyOpt, CampaignSettings
from repro.core import ExperimentRunner
from repro.core.config import AnycastConfig
from repro.io import ConvergenceStore, topology_fingerprint
from repro.measurement import Orchestrator
from repro.runtime import ConvergenceCache, MetricsRegistry
from repro.splpo import available_strategies, get_solver, register_solver
from repro.splpo.registry import _REGISTRY
from repro.util.errors import ConfigurationError

from tests.conftest import SEED


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
        CampaignSettings(convergence_cache_size=0)
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
        ("convergence_cache_size", 2.5, {}),
        ("convergence_cache_size", True, {}),
        ("retry_max_attempts", 1.5, {}),
        ("convergence_cache_size", None, {}),
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
    larger = settings.replace(convergence_cache_size=8)
    assert larger.convergence_cache_size == 8
    assert settings.convergence_cache_size == 256  # frozen original untouched
    with pytest.raises(ConfigurationError):
        settings.replace(convergence_cache_size=0)


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


# --- convergence cache ------------------------------------------------------


def test_noiseless_redeploy_hits_cache(clean_orchestrator):
    config = AnycastConfig(
        site_order=tuple(clean_orchestrator.testbed.site_ids()[:3])
    )
    first = clean_orchestrator.deploy(config)
    second = clean_orchestrator.deploy(config)
    cache = clean_orchestrator.convergence_cache
    assert cache.misses == 1
    assert cache.hits == 1
    # A hit substitutes the identical converged state.
    assert second.converged is first.converged
    # ...but the redeployment still counts as a fresh BGP experiment.
    assert second.experiment_id == first.experiment_id + 1


def test_noisy_redeploy_never_hits_cache(noisy_orchestrator):
    config = AnycastConfig(
        site_order=tuple(noisy_orchestrator.testbed.site_ids()[:3])
    )
    noisy_orchestrator.deploy(config)
    noisy_orchestrator.deploy(config)
    cache = noisy_orchestrator.convergence_cache
    assert cache.hits == 0
    assert cache.misses == 2


def test_cache_disabled_by_settings(testbed, targets):
    orch = Orchestrator(
        testbed,
        targets,
        seed=SEED,
        settings=CampaignSettings.noiseless(convergence_cache=False),
    )
    assert orch.convergence_cache is None
    config = AnycastConfig(site_order=tuple(testbed.site_ids()[:2]))
    first = orch.deploy(config)
    second = orch.deploy(config)
    assert second.converged is not first.converged


def test_default_discover_holds_no_converged_state(testbed, targets):
    """Under the default noise every run carries its experiment's jitter
    nonce and churn overlay, so none can recur in the process: each is
    counted, none is held."""
    anyopt = AnyOpt(testbed, targets=targets, seed=SEED)
    model = anyopt.discover()
    cache = anyopt.orchestrator.convergence_cache
    counters = anyopt.metrics.snapshot()["counters"]
    assert len(cache) == 0
    assert cache.hits == 0
    assert cache.misses == counters["convergence_cache_misses"]
    assert cache.misses == counters["convergence_runs"] == model.experiments_used


def test_cache_lru_eviction():
    cache = ConvergenceCache(max_entries=2)
    cache.store(("a",), "A")
    cache.store(("b",), "B")
    assert cache.lookup(("a",)) == "A"  # refreshes ("a",)
    cache.store(("c",), "C")  # evicts ("b",)
    assert len(cache) == 2
    assert cache.lookup(("b",)) is None
    assert cache.lookup(("a",)) == "A"
    assert cache.lookup(("c",)) == "C"


def test_cache_concurrent_eviction_stays_consistent():
    # Pooled workers hammer a deliberately tiny cache: interleaved
    # lookups and evicting stores must never corrupt the LRU order,
    # lose the size bound, or drop a hit/miss count.
    cache = ConvergenceCache(max_entries=2)
    errors = []
    per_thread = 300

    def hammer(worker):
        try:
            for i in range(per_thread):
                key = ("shared", (worker + i) % 5)
                if cache.lookup(key) is None:
                    cache.store(key, f"state-{worker}-{i}")
        except Exception as exc:  # pragma: no cover - the assertion payload
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert len(cache) <= 2
    assert cache.hits + cache.misses == 4 * per_thread


def test_cache_key_ignores_nonce_without_jitter():
    key_a = ConvergenceCache.key_for((1, 2), {}, 0.0, 17)
    key_b = ConvergenceCache.key_for((1, 2), None, 0.0, 99)
    assert key_a == key_b
    with_jitter_a = ConvergenceCache.key_for((1, 2), {}, 5.0, 17)
    with_jitter_b = ConvergenceCache.key_for((1, 2), {}, 5.0, 99)
    assert with_jitter_a != with_jitter_b


# --- persistent convergence store -------------------------------------------


def test_store_round_trip(tmp_path):
    store = ConvergenceStore(str(tmp_path), "ns")
    key = (("inj", 1), (), (0.0, 0), ())
    assert store.load(key) is None
    store.save(key, {"routes": [1, 2, 3]})
    assert store.load(key) == {"routes": [1, 2, 3]}
    assert len(store) == 1
    store.clear()
    assert store.load(key) is None


def test_store_corruption_degrades_to_miss(tmp_path):
    store = ConvergenceStore(str(tmp_path), "ns")
    store.save(("k",), "state")
    (entry,) = (tmp_path / "ns").glob("*.pkl")
    entry.write_bytes(b"not a pickle")
    assert store.load(("k",)) is None


def test_cache_spills_to_store_and_fresh_cache_reloads(tmp_path):
    store = ConvergenceStore(str(tmp_path), "ns")
    metrics = MetricsRegistry()
    first = ConvergenceCache(max_entries=4, store=store)
    first.store(("k",), "state")
    # A different cache instance (new process, next CLI run) hits the
    # spilled entry; the disk hit has its own counter.
    fresh = ConvergenceCache(max_entries=4, metrics=metrics, store=store)
    assert fresh.lookup(("k",)) == "state"
    assert fresh.hits == 1
    counters = metrics.snapshot()["counters"]
    assert counters["convergence_cache_hits"] == 1
    assert counters["convergence_cache_disk_hits"] == 1
    # Now cached in memory: the second lookup is a plain hit.
    assert fresh.lookup(("k",)) == "state"
    assert metrics.snapshot()["counters"]["convergence_cache_disk_hits"] == 1


def test_unrepeatable_disk_hit_is_not_held(tmp_path):
    store = ConvergenceStore(str(tmp_path), "ns")
    metrics = MetricsRegistry()
    first = ConvergenceCache(max_entries=4, store=store)
    first.store(("k",), "state", hold=False)
    assert len(first) == 0 and len(store) == 1
    fresh = ConvergenceCache(max_entries=4, metrics=metrics, store=store)
    for _ in range(2):
        assert fresh.lookup(("k",), hold=False) == "state"
    assert len(fresh) == 0
    assert fresh.hits == 2
    counters = metrics.snapshot()["counters"]
    assert counters["convergence_cache_disk_hits"] == 2
    # With no store, an unrepeatable run has no key: a miss.
    assert fresh.lookup(None, hold=False) is None and fresh.misses == 1


def test_persistent_cache_replays_noisy_runs_across_orchestrators(testbed, targets, tmp_path):
    """Same seed, default noise: a fresh orchestrator deploys the same
    experiment ids, so the same keys, and the store answers every one
    without an engine run or a state held in memory."""
    settings = CampaignSettings(convergence_cache_path=str(tmp_path))
    assert settings.bgp_delay_jitter_ms > 0.0 and settings.session_churn_prob > 0.0
    sites = testbed.site_ids()
    configs = [AnycastConfig(site_order=tuple(order)) for order in (sites[:2], sites[1::-1])]
    first = Orchestrator(testbed, targets, seed=SEED, settings=settings)
    first_deploys = [first.deploy(config) for config in configs]
    assert len(first.convergence_cache) == 0
    second = Orchestrator(testbed, targets, seed=SEED, settings=settings)
    second_deploys = [second.deploy(config) for config in configs]
    assert [d.experiment_id for d in second_deploys] == [d.experiment_id for d in first_deploys]
    cache = second.convergence_cache
    assert (cache.hits, cache.misses, len(cache)) == (len(configs), 0, 0)
    counters = second.metrics.snapshot()["counters"]
    assert counters["convergence_cache_disk_hits"] == len(configs)
    assert counters.get("convergence_runs", 0) == 0
    for old, new in zip(first_deploys, second_deploys):
        assert [new.measure_rtt(t) for t in targets] == [old.measure_rtt(t) for t in targets]


def test_topology_fingerprint_is_stable_and_discriminating(testbed):
    graph = testbed.internet.graph
    same = topology_fingerprint(graph, "192.0.2.0/24")
    assert same == topology_fingerprint(graph, "192.0.2.0/24")
    assert same != topology_fingerprint(graph, "198.51.100.0/24")


def test_persistent_cache_hits_across_orchestrators(testbed, targets, tmp_path):
    settings = CampaignSettings.noiseless(convergence_cache_path=str(tmp_path))
    config = AnycastConfig(site_order=tuple(testbed.site_ids()[:2]))
    first = Orchestrator(testbed, targets, seed=SEED, settings=settings)
    first_deploy = first.deploy(config)
    # A brand-new orchestrator (fresh in-memory cache) reuses the
    # spilled state without a single engine run.
    second = Orchestrator(testbed, targets, seed=SEED, settings=settings)
    second_deploy = second.deploy(config)
    assert second.convergence_cache.hits == 1
    assert second.convergence_cache.misses == 0
    counters = second.metrics.snapshot()["counters"]
    assert counters["convergence_cache_disk_hits"] == 1
    assert counters.get("convergence_runs", 0) == 0
    # The reloaded state produces the same measurements bit-for-bit.
    assert [second_deploy.measure_rtt(t) for t in targets] == [
        first_deploy.measure_rtt(t) for t in targets
    ]


# --- metrics ----------------------------------------------------------------


def test_metrics_counters_and_timers():
    metrics = MetricsRegistry()
    metrics.counter("probes").increment()
    metrics.counter("probes").increment(2)
    with metrics.timer("convergence").time():
        pass
    snap = metrics.snapshot()
    assert snap["counters"]["probes"] == 3
    assert snap["timers"]["convergence"]["count"] == 1
    assert snap["timers"]["convergence"]["total_seconds"] >= 0.0


def test_metrics_phase_records_counter_deltas():
    metrics = MetricsRegistry()
    metrics.counter("experiments").increment(5)
    with metrics.phase("sweep"):
        metrics.counter("experiments").increment(3)
    phases = metrics.snapshot()["phases"]
    assert [p["name"] for p in phases] == ["sweep"]
    assert phases[0]["counter_deltas"] == {"experiments": 3}
    assert phases[0]["wall_seconds"] >= 0.0


def test_stats_rendering_includes_cache_hit_rate(clean_orchestrator):
    from repro.report import render_metrics

    config = AnycastConfig(
        site_order=tuple(clean_orchestrator.testbed.site_ids()[:2])
    )
    clean_orchestrator.deploy(config)
    clean_orchestrator.deploy(config)  # noiseless redeploy: one hit
    out = render_metrics(clean_orchestrator.metrics.snapshot())
    assert "convergence_cache_hit_rate" in out
    assert "50.0%" in out


def test_campaign_records_metrics(clean_orchestrator):
    clean_orchestrator.deploy(
        AnycastConfig(site_order=tuple(clean_orchestrator.testbed.site_ids()[:2]))
    )
    snap = clean_orchestrator.metrics.snapshot()
    assert snap["counters"]["experiments"] == 1
    assert snap["counters"]["convergence_runs"] == 1
    assert snap["counters"]["convergence_messages"] > 0
    assert snap["timers"]["deploy"]["count"] == 1


def test_discover_attaches_metrics_snapshot(anyopt_model):
    snap = anyopt_model.metrics
    assert snap is not None
    assert snap["counters"]["experiments"] == anyopt_model.experiments_used
    assert any(p["name"] == "discover" for p in snap["phases"])


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
