"""Shared fixtures.

Expensive artifacts (testbed, target set, discovered AnyOpt model) are
session-scoped and deterministic, so the whole suite reuses one
simulated Internet.  Tests that need noise-free behaviour use the
``clean_orchestrator`` (churn, drift, and jitter all zero).

Experiment ids key every noise stream, and the session-scoped ``anyopt``
hands them out in the order tests happen to ask — so what a test reads
from ``anyopt`` / ``anyopt_model`` beyond the discovered model depends
on which tests ran before it (ROADMAP, "Shape assertions that do not
hang on one seed").  New tests build their own ``Orchestrator`` /
``AnyOpt`` (``clean_orchestrator`` and ``noisy_orchestrator`` are
per-test) and never draw ids from the session ones.
"""

import pytest

from repro import AnyOpt, CampaignSettings, select_targets
from repro.core import ExperimentRunner
from repro.measurement import Orchestrator
from repro.topology import TestbedParams, TopologyParams, build_paper_testbed, generate_internet

SEED = 7


def hashed_clients(dataplane, asns):
    """The client ASes among ``asns`` whose flows a multipath split
    hashes — at the client or further up — after resolving them all:
    a hashed walk is remembered per ``(AS, flow key)``, a shared one
    per AS."""
    dataplane.resolve_flows(asns, asns)
    return {key[0] for key in dataplane._memo if type(key) is tuple}


def small_topology_params() -> TopologyParams:
    return TopologyParams(n_stub=150, n_tier2=24)


@pytest.fixture(scope="session")
def internet():
    return generate_internet(small_topology_params(), seed=SEED)


@pytest.fixture(scope="session")
def testbed():
    params = TestbedParams(topology=small_topology_params())
    return build_paper_testbed(params, seed=SEED)


@pytest.fixture(scope="session")
def targets(testbed):
    return select_targets(
        testbed.internet, targets_per_as_min=1, targets_per_as_max=2, seed=SEED
    )


@pytest.fixture()
def clean_orchestrator(testbed, targets):
    """Noise-free orchestrator: deterministic, repeatable deployments."""
    return Orchestrator(
        testbed, targets, seed=SEED, settings=CampaignSettings.noiseless()
    )


@pytest.fixture()
def noisy_orchestrator(testbed, targets):
    """Orchestrator with the default drift/churn/jitter models."""
    return Orchestrator(testbed, targets, seed=SEED)


@pytest.fixture()
def clean_runner(clean_orchestrator):
    return ExperimentRunner(clean_orchestrator)


@pytest.fixture(scope="session")
def anyopt(testbed, targets):
    return AnyOpt(testbed, targets=targets, seed=SEED)


@pytest.fixture(scope="session")
def anyopt_model(anyopt):
    return anyopt.discover()
