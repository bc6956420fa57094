"""Fault injection, retry/backoff, graceful degradation, checkpoints.

The campaign must survive injected faults the way a real measurement
platform survives a flaky testbed: retry transients, record what kept
failing, leave UNDECIDED preference cells behind, and still produce a
usable model.  Determinism contract: the fault streams are keyed by
``(seed, fault, experiment_id, attempt)``, so pooled campaigns degrade
bit-identically to serial ones, and a killed-then-resumed checkpoint
run is byte-identical to an uninterrupted one.
"""

import json

import pytest

from repro.core.anyopt import AnyOpt
from repro.core.config import AnycastConfig
from repro.core.experiments import ExperimentRunner
from repro.core.preferences import PairObservation, PreferenceOutcome
from repro.core.twolevel import SiteLevelMode
from repro.io import checkpoint as checkpoint_io
from repro.io import load_checkpoint, model_to_dict, save_checkpoint
from repro.measurement.orchestrator import Orchestrator
from repro.runtime import CampaignExecutor, CampaignSettings
from repro.runtime.faults import FaultInjector
from repro.runtime.retry import FailedExperiment, RetryPolicy, run_with_retry
from repro.util.errors import (
    ConfigurationError,
    MeasurementError,
    ReproError,
    RetriesExhaustedError,
    TransientError,
)

from tests.conftest import SEED

FAULTY = CampaignSettings.noiseless(
    fault_announcement_prob=0.2,
    fault_convergence_timeout_prob=0.1,
    fault_probe_blackout_prob=0.1,
    fault_session_reset_prob=0.05,
    retry_max_attempts=2,
)

ALWAYS_FAILING = CampaignSettings.noiseless(
    fault_announcement_prob=1.0, retry_max_attempts=2
)


# --- retry policy -----------------------------------------------------------


class TestRetry:
    def test_succeeds_after_transients(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise TransientError("transient")
            return "done"

        assert run_with_retry(flaky, RetryPolicy(max_attempts=3)) == "done"
        assert calls == [0, 1, 2]

    def test_exhaustion_raises_typed_error(self):
        def always_fails(attempt):
            raise TransientError("still down")

        with pytest.raises(RetriesExhaustedError) as err:
            run_with_retry(
                always_fails, RetryPolicy(max_attempts=3), description="probe"
            )
        assert err.value.attempts == 3
        assert "probe" in str(err.value)
        assert "still down" in str(err.value)
        assert isinstance(err.value, MeasurementError)

    def test_non_transient_propagates_immediately(self):
        calls = []

        def broken(attempt):
            calls.append(attempt)
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            run_with_retry(broken, RetryPolicy(max_attempts=5))
        assert calls == [0]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_ms=100.0, backoff_factor=2.0, backoff_max_ms=300.0
        )
        assert policy.backoff_ms(0) == 100.0
        assert policy.backoff_ms(1) == 200.0
        assert policy.backoff_ms(2) == 300.0  # capped
        assert policy.backoff_ms(10) == 300.0

    def test_backoff_is_virtual_and_counted(self, testbed, targets):
        orch = Orchestrator(testbed, targets, seed=SEED, settings=FAULTY)

        def flaky(attempt):
            if attempt == 0:
                raise TransientError("once")
            return None

        run_with_retry(flaky, orch.retry_policy, metrics=orch.metrics)
        snap = orch.metrics.snapshot()["counters"]
        assert snap["retries"] == 1
        assert snap["retry_backoff_virtual_ms"] == int(FAULTY.retry_backoff_base_ms)


# --- fault injector ---------------------------------------------------------


class TestFaultInjector:
    def test_streams_are_deterministic(self):
        a = FaultInjector(SEED, FAULTY)
        b = FaultInjector(SEED, FAULTY)

        def pattern(inj):
            fired = []
            for exp_id in range(1, 40):
                for attempt in range(2):
                    try:
                        inj.raise_if("announcement", exp_id, attempt)
                    except TransientError:
                        fired.append((exp_id, attempt))
            return fired

        assert pattern(a) == pattern(b)
        assert pattern(a)  # nonzero probability actually fires

    def test_attempt_nonce_rederives_stream(self):
        inj = FaultInjector(SEED, ALWAYS_FAILING.replace(fault_announcement_prob=0.5))
        outcomes = set()
        for attempt in range(8):
            try:
                inj.raise_if("announcement", 1, attempt)
                outcomes.add("ok")
            except TransientError:
                outcomes.add("fault")
        # A fresh draw per attempt: both outcomes appear across retries.
        assert outcomes == {"ok", "fault"}

    def test_disabled_fault_never_fires(self):
        inj = FaultInjector(SEED, CampaignSettings.noiseless())
        assert not inj.any_enabled
        for exp_id in range(1, 50):
            inj.raise_if("convergence-timeout", exp_id, 0)  # must not raise

    def test_unknown_fault_rejected(self):
        inj = FaultInjector(SEED, FAULTY)
        with pytest.raises(KeyError):
            inj.raise_if("meteor-strike", 1, 0)


# --- degradation in the drivers ---------------------------------------------


class TestDegradation:
    def test_corrupt_descriptor_fails_fast(self, testbed, targets):
        # A non-measurement error (here: a corrupted task descriptor)
        # fails the campaign at that task: the experiments before it
        # are counted and the tail never runs.
        import dataclasses

        orch = Orchestrator(testbed, targets, seed=SEED)
        runner = ExperimentRunner(orch)
        sites = testbed.site_ids()[:5]
        pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
        tasks = runner.pairwise_tasks(pairs)  # 10 tasks
        tasks[1] = dataclasses.replace(tasks[1], kind="explode")
        with pytest.raises(ConfigurationError, match="explode"):
            CampaignExecutor().run_experiments(orch, tasks)
        assert orch.metrics.snapshot()["counters"]["experiments"] == 2

    def test_exhausted_retries_become_undecided_cells(self, testbed, targets):
        orch = Orchestrator(testbed, targets, seed=SEED, settings=ALWAYS_FAILING)
        sites = testbed.site_ids()[:3]
        matrix = ExperimentRunner(orch).pairwise_sweep(sites)
        # Every deployment fails, so every pair degrades to UNDECIDED.
        assert len(orch.failures) == 3
        for failure in orch.failures:
            assert failure.kind == "pairwise"
            assert failure.attempts == 2
            # Exhaustion accounting: the record names the final fault
            # kind, so the audit can say *why* a cell is UNDECIDED.
            assert failure.fault == "announcement"
        client = targets[0].target_id
        obs = matrix.observation(client, sites[0], sites[1])
        assert obs.outcome() is PreferenceOutcome.UNDECIDED
        assert obs.winner_given(sites[0]) is None
        counters = orch.metrics.snapshot()["counters"]
        assert counters["experiments_failed"] == 3
        assert counters["undecided_cells"] == 3 * len(targets)
        assert counters["faults_injected"] >= 6

    def test_measurement_error_does_not_escape_sweep(self, testbed, targets):
        orch = Orchestrator(testbed, targets, seed=SEED, settings=ALWAYS_FAILING)
        ExperimentRunner(orch).pairwise_sweep(testbed.site_ids()[:3])  # no raise

    def test_discover_completes_and_predicts_under_faults(self, testbed, targets):
        # Mild faults: enough injections to exercise the retry path,
        # rare enough that most experiments succeed and prediction
        # still finds clients with total orders.
        settings = CampaignSettings.noiseless(
            fault_announcement_prob=0.05,
            fault_probe_blackout_prob=0.02,
            retry_max_attempts=3,
        )
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
        model = anyopt.discover()
        counters = model.metrics["counters"]
        assert counters["faults_injected"] > 0
        assert counters["retries"] > 0
        assert len(model.failures) == counters.get("experiments_failed", 0)
        # Prediction still runs over the degraded model.
        order = tuple(testbed.site_ids())
        results = [
            model.total_order(t.target_id, order) for t in targets
        ]
        assert any(r.has_total_order for r in results)

    def test_undecided_observation_shape(self):
        obs = PairObservation.undecided_pair(1, 2)
        assert obs.outcome() is PreferenceOutcome.UNDECIDED
        with pytest.raises(ReproError):
            PairObservation(1, 2, 1, None, undecided=True)

    def test_failed_experiment_round_trip(self):
        failure = FailedExperiment(
            kind="pairwise",
            subject="pair (2, 5)",
            experiment_ids=(7, 8),
            error="deployment of experiment 7 failed after 2 attempt(s)",
            attempts=2,
            fault="announcement",
        )
        assert FailedExperiment.from_dict(failure.to_dict()) == failure

    def test_failed_experiment_legacy_dict_has_no_fault(self):
        raw = {
            "kind": "pairwise",
            "subject": "pair (2, 5)",
            "experiment_ids": [7, 8],
            "error": "gone",
            "attempts": 2,
        }
        assert FailedExperiment.from_dict(raw).fault is None

    def test_retries_exhausted_error_carries_fault_kind(self):
        from repro.runtime.faults import AnnouncementFailureError

        def always_fails(attempt):
            raise AnnouncementFailureError("announcement lost")

        with pytest.raises(RetriesExhaustedError) as err:
            run_with_retry(always_fails, RetryPolicy(max_attempts=2))
        assert err.value.fault_kind == "announcement"
        # A plain transient has no fault taxonomy entry.
        with pytest.raises(RetriesExhaustedError) as err:
            run_with_retry(
                lambda attempt: (_ for _ in ()).throw(TransientError("x")),
                RetryPolicy(max_attempts=2),
            )
        assert err.value.fault_kind is None


# --- empty measurements -----------------------------------------------------


class TestEmptyMeasurement:
    def test_mean_rtt_none_when_all_unreachable(self, clean_orchestrator, monkeypatch):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(1,)))
        monkeypatch.setattr(dep, "measure_rtts", lambda targets=None: [None])
        assert dep.measure_mean_rtt() is None
        counters = clean_orchestrator.metrics.snapshot()["counters"]
        assert counters["measurements_empty"] == 1

    def test_mean_rtt_none_on_empty_target_set(self, clean_orchestrator):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(1,)))
        assert dep.measure_mean_rtt(targets=[]) is None

    def test_stability_raises_cleanly_on_empty_epoch(
        self, clean_orchestrator, monkeypatch
    ):
        from repro.core.stability import run_stability_study
        from repro.measurement.orchestrator import Deployment

        monkeypatch.setattr(
            Deployment, "measure_mean_rtt", lambda self, targets=None: None
        )
        with pytest.raises(MeasurementError, match="stability epoch 0"):
            run_stability_study(
                clean_orchestrator, AnycastConfig(site_order=(1,)), epochs=1
            )


# --- experiment-id hygiene --------------------------------------------------


class TestExperimentIds:
    def test_reused_id_rejected(self, clean_orchestrator):
        ids = clean_orchestrator.reserve_experiment_ids(1)
        clean_orchestrator.deploy(
            AnycastConfig(site_order=(1,)), experiment_id=ids[0]
        )
        with pytest.raises(ConfigurationError, match="already deployed"):
            clean_orchestrator.deploy(
                AnycastConfig(site_order=(2,)), experiment_id=ids[0]
            )

    def test_never_reserved_id_rejected(self, clean_orchestrator):
        with pytest.raises(ConfigurationError, match="never reserved"):
            clean_orchestrator.deploy(
                AnycastConfig(site_order=(1,)), experiment_id=99
            )

    def test_out_of_range_id_rejected(self, clean_orchestrator):
        clean_orchestrator.reserve_experiment_ids(2)
        with pytest.raises(ConfigurationError, match="never reserved"):
            clean_orchestrator.deploy(
                AnycastConfig(site_order=(1,)), experiment_id=0
            )


# --- checkpoint / resume ----------------------------------------------------


@pytest.fixture(scope="module")
def checkpoint_env(testbed, targets, tmp_path_factory):
    """One uninterrupted faulty run plus a killed-then-resumed one."""
    settings = CampaignSettings.noiseless(
        fault_announcement_prob=0.1, retry_max_attempts=2
    )
    path = tmp_path_factory.mktemp("ckpt") / "campaign.json"

    uninterrupted = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
    full_model = uninterrupted.discover()

    real_save = checkpoint_io.save_checkpoint
    saves = {"count": 0}

    def killing_save(progress, target_path):
        real_save(progress, target_path)
        saves["count"] += 1
        if saves["count"] >= 3:
            raise KeyboardInterrupt

    killed = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
    checkpoint_io.save_checkpoint = killing_save
    try:
        with pytest.raises(KeyboardInterrupt):
            killed.discover(checkpoint_path=path)
    finally:
        checkpoint_io.save_checkpoint = real_save

    resumed = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
    resumed_model = resumed.discover(checkpoint_path=path, resume_from=path)
    return settings, path, full_model, resumed_model


#: Settings fields that older checkpoints carry and this version does
#: not declare: the convergence knobs, then the executor knobs.
REMOVED_SETTINGS = {
    "engine_mode": "delta",
    "aggregate_stubs": True,
    "parallelism": 1,
    "executor": "thread",
    "process_chunk_size": None,
    "convergence_cache_size": 256,
    "convergence_cache_path": None,
}


def checkpoint_documents(extra_settings):
    """A discovery and a repair checkpoint document, each with
    ``extra_settings`` merged into its recorded campaign settings."""
    discovery = checkpoint_io.progress_to_dict(
        checkpoint_io.DiscoveryProgress(
            seed=SEED,
            settings=CampaignSettings(),
            site_level_mode=SiteLevelMode.PAIRWISE,
        )
    )
    repair = checkpoint_io.repair_progress_to_dict(
        checkpoint_io.RepairProgress(
            seed=SEED,
            settings=CampaignSettings(),
            announce_order=(1, 2),
            max_rounds=3,
            budget=None,
            escalate_attempts=1,
            model_fingerprint="f" * 16,
        )
    )
    discovery["settings"].update(extra_settings)
    repair["settings"].update(extra_settings)
    return discovery, repair


class TestCheckpointSettingsBoundary:
    """A settings key this version does not declare — a stray one, or
    the fields checkpoints carried before the convergence, executor and
    convergence-cache knobs were removed — fails typed, for both checkpoint kinds."""

    @pytest.mark.parametrize(
        "extra", [{"stray_knob": 1}, REMOVED_SETTINGS], ids=["stray", "removed"]
    )
    def test_unknown_settings_key_raises_repro_error(self, tmp_path, extra):
        discovery, repair = checkpoint_documents(extra)
        loads = [
            (discovery, lambda path: load_checkpoint(
                path, SEED, CampaignSettings(), SiteLevelMode.PAIRWISE
            )),
            (repair, lambda path: checkpoint_io.load_repair_checkpoint(
                path, SEED, CampaignSettings(), (1, 2), 3, None, 1, "f" * 16
            )),
        ]
        for document, load in loads:
            path = tmp_path / f"{document['format']}.json"
            path.write_text(json.dumps(document))
            with pytest.raises(ReproError, match="unknown campaign settings") as exc:
                load(path)
            for key in extra:
                assert repr(key) in str(exc.value)

    @pytest.mark.parametrize("extra", [{"max_convergence_events": 2.0}, {"retry_max_attempts": True}])
    def test_non_integer_count_fails_typed(self, extra):
        """JSON has no int/float distinction a writer must respect, so a
        count read back as ``2.0`` (or ``true``) is refused on load."""
        discovery, repair = checkpoint_documents(extra)
        (knob,) = extra
        with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
            checkpoint_io.progress_from_dict(discovery)
        with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
            checkpoint_io.repair_progress_from_dict(repair)

    def test_untouched_documents_still_load(self, tmp_path):
        discovery, repair = checkpoint_documents({})
        assert checkpoint_io.progress_from_dict(discovery).settings == CampaignSettings()
        assert (
            checkpoint_io.repair_progress_from_dict(repair).settings
            == CampaignSettings()
        )


class TestCheckpointResume:
    def test_resumed_model_byte_identical(self, checkpoint_env):
        _, _, full_model, resumed_model = checkpoint_env
        assert json.dumps(model_to_dict(full_model)) == json.dumps(
            model_to_dict(resumed_model)
        )

    def test_resumed_failures_match_uninterrupted(self, checkpoint_env):
        _, _, full_model, resumed_model = checkpoint_env
        assert resumed_model.failures == full_model.failures

    def test_checkpoint_validates_seed_and_settings(
        self, checkpoint_env, testbed, targets
    ):
        settings, path, _, _ = checkpoint_env
        with pytest.raises(ConfigurationError, match="seed"):
            load_checkpoint(path, SEED + 1, settings, SiteLevelMode.PAIRWISE)
        with pytest.raises(ConfigurationError, match="settings"):
            load_checkpoint(
                path, SEED, settings.replace(retry_max_attempts=9),
                SiteLevelMode.PAIRWISE,
            )
        with pytest.raises(ConfigurationError, match="mode"):
            load_checkpoint(path, SEED, settings, SiteLevelMode.RTT_HEURISTIC)

    def test_save_is_atomic(self, checkpoint_env, tmp_path):
        settings, path, _, _ = checkpoint_env
        from repro.core.twolevel import SiteLevelMode

        progress = checkpoint_io.DiscoveryProgress(
            seed=SEED, settings=settings, site_level_mode=SiteLevelMode.PAIRWISE
        )
        target = tmp_path / "atomic.json"
        save_checkpoint(progress, target)
        assert target.exists()
        assert not (tmp_path / "atomic.json.tmp").exists()
        loaded = load_checkpoint(target, SEED, settings, SiteLevelMode.PAIRWISE)
        assert loaded.experiment_count == 0
        assert loaded.rtt_matrix is None
