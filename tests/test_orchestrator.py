"""Tests for the orchestrator and deployments."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AnycastConfig
from repro.measurement.orchestrator import Orchestrator
from repro.runtime import CampaignSettings
from repro.util.errors import ConfigurationError
from repro.util.rng import stable_hash

from tests.reference_noise import reference_uniform


def reference_igp_overlay(orchestrator, experiment_id):
    """The churn overlay's oracle: the plain loop over every AS in ASN
    order, two words of the ``"igp-churn"`` stream per AS (churn
    decision, tie decision) and one five-part hash per session."""
    key = stable_hash("igp-churn", orchestrator.seed, experiment_id)
    graph = orchestrator.testbed.internet.graph
    tie_fraction = orchestrator.testbed.internet.params.igp_tie_fraction
    overlay = {}
    for index, asn in enumerate(sorted(graph.asns())):
        if reference_uniform(key, 2 * index) >= orchestrator.settings.session_churn_prob:
            continue
        tie_prone = reference_uniform(key, 2 * index + 1) < tie_fraction
        for neighbor in graph.neighbors(asn):
            if tie_prone:
                overlay[(asn, neighbor)] = 0
            else:
                overlay[(asn, neighbor)] = 1 + stable_hash(
                    orchestrator.seed, "igp-churn", experiment_id, asn, neighbor
                ) % 1_000_000
    return overlay


class TestDeploy:
    def test_experiment_counter_increments(self, clean_orchestrator):
        assert clean_orchestrator.experiment_count == 0
        clean_orchestrator.deploy(AnycastConfig(site_order=(1,)))
        clean_orchestrator.deploy(AnycastConfig(site_order=(2,)))
        assert clean_orchestrator.experiment_count == 2

    def test_announcement_spacing_applied(self, clean_orchestrator, testbed):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(1, 6)))
        times = {
            inj.site_id: inj.announce_time_ms for inj in dep.converged.injections
        }
        spacing = testbed.params.announcement_spacing_ms
        assert times[6] - times[1] == spacing

    def test_spacing_override(self, clean_orchestrator):
        dep = clean_orchestrator.deploy(
            AnycastConfig(site_order=(1, 6), spacing_ms=0.0)
        )
        times = [inj.announce_time_ms for inj in dep.converged.injections]
        assert times == [0.0, 0.0]

    def test_peers_announced_after_sites(self, clean_orchestrator, testbed):
        peer_id = testbed.peer_ids()[0]
        dep = clean_orchestrator.deploy(
            AnycastConfig(site_order=(1, 6), peer_ids=(peer_id,))
        )
        site_times = [
            i.announce_time_ms for i in dep.converged.injections if i.pop_id is not None
        ]
        peer_times = [
            i.announce_time_ms for i in dep.converged.injections if i.pop_id is None
        ]
        assert peer_times and min(peer_times) >= max(site_times)

    def test_invalid_params_rejected(self, testbed, targets):
        with pytest.raises(ConfigurationError):
            Orchestrator(
                testbed, targets,
                settings=CampaignSettings(session_churn_prob=1.5),
            )
        with pytest.raises(ConfigurationError):
            Orchestrator(
                testbed, targets,
                settings=CampaignSettings(rtt_drift_sigma=-1.0),
            )


class TestDeploymentMeasurements:
    def test_true_rtt_includes_last_mile(self, clean_orchestrator, targets):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(1,)))
        t = targets[0]
        outcome = dep.forwarding(t)
        assert dep.true_rtt(t) == pytest.approx(
            outcome.rtt_ms + t.last_mile_rtt_ms
        )

    def test_forwarding_cached(self, clean_orchestrator, targets):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(1,)))
        assert dep.forwarding(targets[0]) is dep.forwarding(targets[0])

    def test_measure_rtt_close_to_truth(self, clean_orchestrator, targets):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(1,)))
        checked = 0
        for t in targets:
            if t.loss_rate:
                continue
            measured = dep.measure_rtt(t)
            assert measured == pytest.approx(dep.true_rtt(t), abs=6.0)
            checked += 1
            if checked > 40:
                break
        assert checked > 0

    def test_measure_mean_rtt_positive(self, clean_orchestrator):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(1, 4, 6)))
        assert dep.measure_mean_rtt() > 0

    def test_singleton_catchment_is_that_site(self, clean_orchestrator):
        dep = clean_orchestrator.deploy(AnycastConfig(site_order=(9,)))
        cmap = dep.measure_catchments()
        assert {s for s in cmap.mapping.values() if s is not None} == {9}


class TestDriftModels:
    def test_clean_orchestrator_has_no_drift(self, clean_orchestrator):
        assert clean_orchestrator.rtt_drift_factor(1, 2) == 1.0
        assert clean_orchestrator._igp_overlay(1) == {}

    def test_noisy_orchestrator_drifts(self, noisy_orchestrator):
        factors = {
            noisy_orchestrator.rtt_drift_factor(e, 1) for e in range(1, 10)
        }
        assert len(factors) > 1
        assert all(f >= 0.7 for f in factors)

    def test_churn_overlay_nonempty_sometimes(self, noisy_orchestrator):
        sizes = [len(noisy_orchestrator._igp_overlay(e)) for e in range(1, 20)]
        assert any(s > 0 for s in sizes)

    @settings(max_examples=40, deadline=None)
    @given(
        churn_prob=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
        tie_fraction=st.sampled_from([0.0, 0.18, 1.0]),
        seed=st.integers(0, 3),
        experiment_id=st.integers(1, 500),
    )
    def test_churn_overlay_matches_per_as_loop(
        self, testbed, targets, churn_prob, tie_fraction, seed, experiment_id
    ):
        # The tie fraction is read off the Internet's parameters: vary it
        # on shallow copies, the session's testbed stays as built.
        bed = copy.copy(testbed)
        bed.internet = copy.copy(testbed.internet)
        bed.internet.params = dataclasses.replace(
            testbed.internet.params, igp_tie_fraction=tie_fraction
        )
        orchestrator = Orchestrator(
            bed, targets, seed=seed,
            settings=CampaignSettings(session_churn_prob=churn_prob),
        )
        overlay = orchestrator._igp_overlay(experiment_id)
        assert overlay == reference_igp_overlay(orchestrator, experiment_id)
        if churn_prob == 1.0:
            assert set(overlay) == set(testbed.internet.graph.tables().session_import)
        if tie_fraction != 0.18:
            assert all((cost == 0) == (tie_fraction == 1.0) for cost in overlay.values())

    def test_drift_deterministic_per_experiment(self, noisy_orchestrator):
        assert noisy_orchestrator.rtt_drift_factor(3, 7) == (
            noisy_orchestrator.rtt_drift_factor(3, 7)
        )

    def test_clean_deployments_repeatable_off_multipath(
        self, clean_orchestrator, testbed, targets
    ):
        """Repeating a clean deployment maps every flow identically,
        except flows crossing a multipath AS (their ECMP hash is
        re-drawn per experiment, by design)."""
        graph = testbed.internet.graph
        multipath = {a for a in graph.asns() if graph.as_of(a).multipath}
        a = clean_orchestrator.deploy(AnycastConfig(site_order=(1, 6)))
        b = clean_orchestrator.deploy(AnycastConfig(site_order=(1, 6)))
        for t in list(targets)[:80]:
            oa, ob = a.forwarding(t), b.forwarding(t)
            if oa is None or ob is None:
                continue
            if multipath & (set(oa.as_path) | set(ob.as_path)):
                continue
            assert oa.site_id == ob.site_id


class TestRttMatrixCampaign:
    def test_matrix_covers_sites_and_targets(self, clean_orchestrator, testbed, targets):
        matrix = clean_orchestrator.measure_rtt_matrix(site_ids=[1, 6])
        assert matrix.sites() == [1, 6]
        for t in list(targets)[:20]:
            assert (1, t.target_id) in matrix.values

    def test_one_experiment_per_site(self, clean_orchestrator):
        before = clean_orchestrator.experiment_count
        clean_orchestrator.measure_rtt_matrix(site_ids=[1, 6, 9])
        assert clean_orchestrator.experiment_count - before == 3
