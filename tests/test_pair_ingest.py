"""A pairwise experiment lands in the preference matrix as columns.

``PreferenceMatrix.record_pair`` takes a whole pair from two catchment
columns.  Its oracle is the loop it replaced — one
``record(client, PairObservation(...))`` per client, the provider level
translating each client's site through a dict — held equal to it by
``PreferenceMatrix.__eq__`` and by ``matrix_to_list`` rows:

(a) on drawn columns: unmapped cells, strict, order-dependent and
    inconsistent pairs, overwrites, failed (UNDECIDED) pairs, a
    site -> provider translation;
(b) through ``discover_two_level`` on a world with sparse target ids,
    lossy targets and failing experiments, against the same experiments
    replayed one pair at a time;
(c) a mutation — the two columns swapped — fails (a).
"""

import dataclasses

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments import ExperimentRunner
from repro.core.preferences import PairObservation, PreferenceMatrix, PreferenceOutcome
from repro.core.twolevel import _relabel, discover_two_level
from repro.io.serialization import matrix_to_list
from repro.measurement import Orchestrator
from repro.runtime import CampaignSettings
from repro.util.errors import MeasurementError, ReproError

from tests.conftest import SEED
from tests.test_noise import sparse

SETTINGS = dict(max_examples=60, deadline=None)
UNMAPPED = -1


def per_client(matrix, site_a, site_b, clients, first=None, second=None):
    """The loop ``record_pair`` replaced."""
    for j, client in enumerate(clients):
        if first is None:
            obs = PairObservation.undecided_pair(site_a, site_b)
        else:
            w1, w2 = int(first[j]), int(second[j])
            obs = PairObservation(
                site_a, site_b, None if w1 == UNMAPPED else w1, None if w2 == UNMAPPED else w2
            )
        matrix.record(client, obs)


def same_matrix(batch, oracle) -> bool:
    return batch == oracle and matrix_to_list(batch) == matrix_to_list(oracle)


# -- (a) drawn columns ---------------------------------------------------------


@st.composite
def experiments(draw):
    """Client ids (sparse, any order) and a list of pair records over
    them: ``(site_a, site_b, first, second)``, columns None for a
    failed pair; pairs repeat, so later records overwrite."""
    clients = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=30))
    sites = st.integers(1, 6)
    records = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(sites)
        b = draw(sites.filter(lambda s: s != a))
        if draw(st.integers(0, 4)) == 0:
            records.append((a, b, None, None))
            continue
        cell = st.sampled_from([a, b, UNMAPPED])
        first, second = (
            numpy.array(draw(st.lists(cell, min_size=len(clients), max_size=len(clients))),
                        dtype=numpy.int64)
            for _ in range(2)
        )
        records.append((a, b, first, second))
    return clients, records


def ingest_matches_loop(clients, records) -> bool:
    batch, oracle = PreferenceMatrix(), PreferenceMatrix()
    for a, b, first, second in records:
        stamp = batch.stamp
        batch.record_pair(a, b, clients, first, second)
        assert batch.stamp != stamp
        per_client(oracle, a, b, clients, first, second)
    return same_matrix(batch, oracle)


class TestDrawnColumns:
    @given(experiments())
    @settings(**SETTINGS)
    def test_record_pair_is_the_per_client_loop(self, drawn):
        assert ingest_matches_loop(*drawn)

    def test_every_outcome_on_one_pair(self):
        """Strict both ways, order-dependent, inconsistent, unknown."""
        clients = [40, 3, 17, 8, 99, 12]
        first = numpy.array([1, 2, 1, 2, UNMAPPED, 1])
        second = numpy.array([1, 2, 2, 1, 2, UNMAPPED])
        matrix = PreferenceMatrix()
        matrix.record_pair(1, 2, clients, first, second)
        assert [matrix.observation(c, 1, 2).outcome().value for c in clients] == [
            "strict_a", "strict_b", "order_dependent", "inconsistent", "unknown", "unknown",
        ]
        assert ingest_matches_loop(clients, [(1, 2, first, second)])

    def test_a_failed_pair_is_undecided_for_every_client(self):
        matrix = PreferenceMatrix()
        matrix.record_pair(4, 9, [5, 6, 7])
        assert {matrix.observation(c, 9, 4).outcome() for c in (5, 6, 7)} == {
            PreferenceOutcome.UNDECIDED
        }

    def test_a_foreign_winner_is_rejected(self):
        with pytest.raises(ReproError, match="neither"):
            PreferenceMatrix().record_pair(1, 2, [5, 6], numpy.array([1, 3]), numpy.array([1, 2]))

    def test_columns_must_align_with_the_clients(self):
        with pytest.raises(ReproError, match="align"):
            PreferenceMatrix().record_pair(1, 2, [5, 6], numpy.array([1]), numpy.array([1]))

    @given(st.data())
    @settings(**SETTINGS)
    def test_site_to_provider_translation(self, data):
        """The provider level records provider ASNs: a client's site
        becomes its provider when it is one of the two representatives,
        unmapped otherwise (the dict ``get`` of the old loop)."""
        reps = {10: 64500, 20: 64510, 30: 64520}  # site -> provider
        clients = data.draw(st.lists(st.integers(0, 5000), unique=True, max_size=30))
        cell = st.sampled_from([10, 20, 7, UNMAPPED])  # site 7 represents nobody
        first, second = (
            numpy.array(data.draw(st.lists(cell, min_size=len(clients), max_size=len(clients))),
                        dtype=numpy.int64)
            for _ in range(2)
        )
        batch, oracle = PreferenceMatrix(), PreferenceMatrix()
        batch.record_pair(64500, 64510, clients, _relabel(first, reps), _relabel(second, reps))
        for client, s1, s2 in zip(clients, first.tolist(), second.tolist()):
            oracle.record(client, PairObservation(64500, 64510, reps.get(s1), reps.get(s2)))
        assert same_matrix(batch, oracle)


# -- (b) through discovery -----------------------------------------------------


def replayed_discovery(testbed, targets, campaign):
    """``discover_two_level``'s experiments one pair at a time, in its
    id order, each ingested by the per-client loop it used to run."""
    orchestrator = Orchestrator(testbed, targets, seed=SEED, settings=campaign)
    runner = ExperimentRunner(orchestrator)
    providers = testbed.provider_asns()
    reps = {p: testbed.representative_site(p) for p in providers}
    to_provider = {s: p for p, s in reps.items()}

    def run(a, b):
        ids = tuple(orchestrator.reserve_experiment_ids(2))
        try:
            return runner.run_pairwise(a, b, ids)
        except MeasurementError:
            return None

    provider_matrix = PreferenceMatrix()
    for i, pa in enumerate(providers):
        for pb in providers[i + 1:]:
            result = run(reps[pa], reps[pb])
            for target in targets:
                client = target.target_id
                provider_matrix.record(client, PairObservation.undecided_pair(pa, pb) if (
                    result is None
                ) else PairObservation(
                    pa, pb,
                    to_provider.get(result.map_a_first.site_of(client)),
                    to_provider.get(result.map_b_first.site_of(client)),
                ))
    site_matrices = {}
    for provider in providers:
        sites = testbed.sites_of_provider(provider)
        matrix = site_matrices[provider] = PreferenceMatrix()
        for i, a in enumerate(sites):
            for b in sites[i + 1:]:
                result = run(a, b)
                for target in targets:
                    matrix.record(target.target_id, PairObservation.undecided_pair(a, b) if (
                        result is None
                    ) else result.observation(target.target_id))
    return provider_matrix, site_matrices


@pytest.fixture(scope="module")
def sparse_lossy_targets(targets):
    """Sparse ids; every fifth target loses most probes, so some stay
    unmapped after all four catchment attempts."""
    return type(targets)([
        dataclasses.replace(t, loss_rate=0.75) if i % 5 == 0 else t
        for i, t in enumerate(sparse(targets))
    ])


class TestThroughDiscovery:
    def test_discovery_ingests_what_the_loop_did(self, testbed, sparse_lossy_targets):
        targets = sparse_lossy_targets
        campaign = CampaignSettings(fault_announcement_prob=0.1, retry_max_attempts=2)
        orchestrator = Orchestrator(testbed, targets, seed=SEED, settings=campaign)
        model = discover_two_level(ExperimentRunner(orchestrator))
        provider_matrix, site_matrices = replayed_discovery(testbed, targets, campaign)

        assert same_matrix(model.provider_matrix, provider_matrix)
        assert model.site_matrices.keys() == site_matrices.keys()
        for provider, matrix in site_matrices.items():
            assert same_matrix(model.site_matrices[provider], matrix)
        # The world holds what the property is about.
        ids = targets.columns.ids
        assert {1, 3} < {b - a for a, b in zip(ids, ids[1:])}
        outcomes = {
            obs.outcome()
            for matrix in [model.provider_matrix, *model.site_matrices.values()]
            for client in matrix.clients()
            for pair in matrix.pairs()
            if (obs := matrix.observation(client, *pair)) is not None
        }
        assert {
            PreferenceOutcome.ORDER_DEPENDENT, PreferenceOutcome.UNKNOWN,
            PreferenceOutcome.UNDECIDED,
        } < outcomes
        assert outcomes & {PreferenceOutcome.STRICT_A, PreferenceOutcome.STRICT_B}
        assert 0 < len(orchestrator.failures) < orchestrator.experiment_count // 2


# -- (c) mutation ----------------------------------------------------------------


class TestMutations:
    def test_swapped_columns(self, monkeypatch):
        """The run with ``site_b`` announced first read as the one with
        ``site_a`` first turns order-dependent cells inconsistent."""
        clients = [40, 3, 17, 8]
        first = numpy.array([1, 2, 1, 2])
        second = numpy.array([1, 2, 2, 1])
        assert ingest_matches_loop(clients, [(1, 2, first, second)])
        record_pair = PreferenceMatrix.record_pair

        def swapped(self, site_a, site_b, clients, first=None, second=None):
            return record_pair(self, site_a, site_b, clients, second, first)

        monkeypatch.setattr(PreferenceMatrix, "record_pair", swapped)
        assert not ingest_matches_loop(clients, [(1, 2, first, second)])
