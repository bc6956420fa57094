"""Empirical validation of the paper's Theorems A.1/A.2.

Under the shortest-path model — Gao-Rexford-compliant policies, no
deviant local preferences, no multipath splitting, and a source-
oblivious tie-break — pairwise site comparisons (i) form a transitive
tournament and (ii) predict the winner for every enabled subset.  We
check both claims against the full BGP simulator on a testbed whose
pathological behaviours are switched off.
"""

import pytest

from repro import select_targets
from repro.core import ExperimentRunner
from repro.core.config import AnycastConfig
from repro.core.twolevel import FlatPreferenceModel
from repro.measurement.orchestrator import Orchestrator
from repro.runtime import CampaignSettings
from repro.topology import TestbedParams, TopologyParams, build_paper_testbed
from repro.util.rng import derive_rng
from tests.reference_order import build_total_order

SITES = (1, 3, 4, 5, 6, 14)  # one site per provider


@pytest.fixture(scope="module")
def clean_world():
    # The theorem's sufficient conditions (S4.1 + Appendix A):
    # announcements enter only via tier-1 providers, every non-tier-1
    # AS receives them from the same relationship class (so no
    # tier-2/tier-2 peering — a route may otherwise arrive as a peer
    # route for one site and a provider route for another, the Figure 3
    # asymmetry), no multipath, no deviants, and a *source-oblivious*
    # tie-break — i.e. no arrival-order tie-breaking, which the paper
    # handles empirically rather than within the theorems.
    params = TestbedParams(
        topology=TopologyParams(
            n_stub=100,
            n_tier2=20,
            tier2_peering_prob=0.0,
            multipath_fraction=0.0,
            policy_deviant_fraction=0.0,
            arrival_order_fraction=0.0,
        )
    )
    testbed = build_paper_testbed(params, seed=13)
    targets = select_targets(
        testbed.internet, targets_per_as_min=1, targets_per_as_max=1,
        lossy_fraction=0.0, seed=13,
    )
    orch = Orchestrator(
        testbed, targets, seed=13, settings=CampaignSettings.noiseless()
    )
    runner = ExperimentRunner(orch)
    matrix = runner.pairwise_sweep(SITES, ordered=True)
    return testbed, targets, orch, FlatPreferenceModel(matrix)


class TestTheoremA:
    def test_every_client_has_total_order(self, clean_world):
        """Claim (i): pairwise comparisons are cycle-free for every
        client once pathological behaviours are absent."""
        _, targets, _, model = clean_world
        announce = SITES
        failures = [
            (t.target_id, model.total_order(t.target_id, announce).reason)
            for t in targets
            if not model.total_order(t.target_id, announce).has_total_order
        ]
        assert not failures, f"clients without total order: {failures[:5]}"

    @pytest.mark.parametrize("subset_seed", [0, 1, 2, 3, 4])
    def test_total_order_predicts_every_subset(self, clean_world, subset_seed):
        """Claim (ii): for any enabled subset announced in the global
        order, each client's winner is its most preferred enabled
        site."""
        testbed, targets, orch, model = clean_world
        rng = derive_rng(13, "subsets", subset_seed)
        k = rng.randint(2, len(SITES))
        subset = tuple(s for s in SITES if s in set(rng.sample(SITES, k)))
        deployment = orch.deploy(AnycastConfig(site_order=subset))
        for t in targets:
            outcome = deployment.forwarding(t)
            assert outcome is not None
            predicted = model.total_order(t.target_id, SITES).most_preferred(subset)
            assert predicted == outcome.site_id, (
                f"target {t.target_id}: predicted {predicted}, "
                f"measured {outcome.site_id} under {subset}"
            )

    def test_pairwise_winner_matches_head_to_head(self, clean_world):
        """The order's top-2 restriction agrees with a fresh
        head-to-head deployment."""
        testbed, targets, orch, model = clean_world
        pair = (SITES[0], SITES[3])
        deployment = orch.deploy(AnycastConfig(site_order=pair))
        for t in list(targets)[:60]:
            outcome = deployment.forwarding(t)
            predicted = model.total_order(t.target_id, SITES).most_preferred(pair)
            assert predicted == outcome.site_id


class TestArrivalOrderEmpirically:
    def test_order_matched_prediction_mostly_holds(self):
        """S4.2's empirical claim: once the announcement order of the
        pairwise experiments matches the deployment's, predictions
        hold for the vast majority of clients even though the
        arrival-order tie-break is not source-oblivious (a residual
        few stay cyclic — the paper excludes them too)."""
        params = TestbedParams(
            topology=TopologyParams(
                n_stub=100,
                n_tier2=20,
                tier2_peering_prob=0.0,
                multipath_fraction=0.0,
                policy_deviant_fraction=0.0,
                arrival_order_fraction=1.0,
            )
        )
        testbed = build_paper_testbed(params, seed=13)
        targets = select_targets(
            testbed.internet, targets_per_as_min=1, targets_per_as_max=1,
            lossy_fraction=0.0, seed=13,
        )
        orch = Orchestrator(
            testbed, targets, seed=13, settings=CampaignSettings.noiseless()
        )
        runner = ExperimentRunner(orch)
        model = FlatPreferenceModel(runner.pairwise_sweep(SITES, ordered=True))
        subset = tuple(SITES[:4])
        deployment = orch.deploy(AnycastConfig(site_order=subset))
        correct = total = 0
        for t in targets:
            outcome = deployment.forwarding(t)
            predicted = model.total_order(t.target_id, SITES).most_preferred(subset)
            if outcome is None or predicted is None:
                continue
            total += 1
            correct += predicted == outcome.site_id
        assert total > 0.85 * len(targets)
        assert correct / total > 0.95


class TestFigure3CounterExample:
    def test_deviant_policies_can_create_cycles(self):
        """With deviant local preferences enabled (the paper's Figure 3
        scenario), some clients exhibit cyclic pairwise preferences."""
        params = TestbedParams(
            topology=TopologyParams(
                n_stub=150,
                n_tier2=24,
                multipath_fraction=0.0,
                policy_deviant_fraction=0.25,
            )
        )
        testbed = build_paper_testbed(params, seed=29)
        targets = select_targets(
            testbed.internet, targets_per_as_min=1, targets_per_as_max=1,
            lossy_fraction=0.0, seed=29,
        )
        orch = Orchestrator(
            testbed, targets, seed=29, settings=CampaignSettings.noiseless()
        )
        runner = ExperimentRunner(orch)
        model = FlatPreferenceModel(runner.pairwise_sweep(SITES, ordered=True))
        cyclic = sum(
            1
            for t in targets
            if build_total_order(model.matrix, t.target_id, SITES, SITES).reason
            == "cyclic preferences"
        )
        assert cyclic > 0
