"""Tests for the prediction-integrity audit and self-healing repair.

The injection helper corrupts a known set of cells (a provider 3-cycle,
an INCONSISTENT cell, an UNDECIDED site cell, an RTT hole) in a freshly
discovered model, so detection, quarantine, and repair can be asserted
against ground truth.  Determinism is checked the same way the campaign
tests do it: byte-compare serialized models, transcripts, and reports
across repeated and resumed runs.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AnyOpt, CampaignSettings
from repro.audit import (
    CYCLE,
    INCONSISTENT,
    RTT_HOLE,
    UNDECIDED,
    AuditReport,
    AuditViolation,
    ClientAudit,
    Finding,
    audit_model,
    plan_repairs,
)
from repro.audit import auditor
from repro.core.preferences import PairObservation, PreferenceOutcome
from repro.core.twolevel import FlatPreferenceModel
from repro.io import checkpoint as checkpoint_io
from repro.io.serialization import model_from_dict, model_to_dict
from repro.util.errors import ConfigurationError
from tests.reference_order import provider_appearance_order, total_order
from tests.test_search_plane import SETTINGS, random_matrix

SEED = 7  # matches the session fixtures in conftest.py

NOISELESS = CampaignSettings.noiseless()

#: Fault rates high enough that some repairs fail and retry, low enough
#: that discovery still completes (see tests/test_faults.py).
FAULTY = CampaignSettings.noiseless(
    fault_announcement_prob=0.15,
    fault_convergence_timeout_prob=0.05,
    retry_max_attempts=2,
)


def model_bytes(model) -> str:
    return json.dumps(model_to_dict(model), sort_keys=True)


def clone_model(model, testbed):
    return model_from_dict(model_to_dict(model), testbed)


def count_predictable(model, targets, order) -> int:
    return sum(
        1 for t in targets if total_order(model, t.target_id, order).has_total_order
    )


def inject_defects(model, testbed, targets):
    """Corrupt four deterministic clients: a provider-level 3-cycle, an
    INCONSISTENT provider cell, an UNDECIDED site cell, and an RTT hole.

    Clients are drawn from non-multipath ASes (their re-measurements are
    stable) that are predictable pre-injection, falling back to all
    non-multipath clients for heavily degraded models.
    """
    order = tuple(testbed.site_ids())
    providers = provider_appearance_order(testbed, order)
    pa, pb, pc = providers[:3]
    graph = testbed.internet.graph
    stable = [
        t.target_id
        for t in sorted(targets, key=lambda t: t.target_id)
        if not graph.as_of(t.asn).multipath
    ]
    pool = [c for c in stable if total_order(model, c, order).has_total_order] or stable
    cycle_client, incons_client, undecided_client, hole_client = pool[:4]
    pm = model.twolevel.provider_matrix
    # a beats b, b beats c, c beats a: a directed 3-cycle.
    pm.record(cycle_client, PairObservation(pa, pb, pa, pa))
    pm.record(cycle_client, PairObservation(pb, pc, pb, pb))
    pm.record(cycle_client, PairObservation(pa, pc, pc, pc))
    # Whichever was announced later won both runs: INCONSISTENT.
    pm.record(incons_client, PairObservation(pa, pb, pb, pa))
    multi = next(p for p in providers if len(testbed.sites_of_provider(p)) >= 2)
    site_a, site_b = testbed.sites_of_provider(multi)[:2]
    model.twolevel.site_matrices[multi].record(
        undecided_client, PairObservation.undecided_pair(site_a, site_b)
    )
    model.rtt_matrix.set(order[0], hole_client, None)
    return {
        "cycle": cycle_client,
        "inconsistent": (incons_client, pa, pb),
        "undecided": (undecided_client, multi, site_a, site_b),
        "hole": (hole_client, order[0]),
    }


@pytest.fixture(scope="module")
def campaign(testbed, targets):
    anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=NOISELESS)
    return anyopt, anyopt.discover()


@pytest.fixture(scope="module")
def injected(campaign, testbed, targets):
    """A clone of the clean model with the four known defects, plus its
    audit.  Read-only for every test that uses it."""
    _, model = campaign
    poisoned = clone_model(model, testbed)
    ids = inject_defects(poisoned, testbed, targets)
    report = audit_model(poisoned, targets)
    return poisoned, ids, report


class TestDetection:
    def test_cycle_detected_with_valid_witness(self, injected, testbed):
        poisoned, ids, report = injected
        client = ids["cycle"]
        cycles = [
            f
            for f in report.clients[client].findings
            if f.kind == CYCLE and f.scope == "provider"
        ]
        assert cycles
        # The witness triple really is intransitive: three distinct
        # pairwise winners among its three games.
        order = tuple(testbed.site_ids())
        providers = list(provider_appearance_order(testbed, order))
        position = {p: i for i, p in enumerate(providers)}
        witness = cycles[0].sites
        matrix = poisoned.twolevel.provider_matrix
        winners = set()
        for i, a in enumerate(witness):
            for b in witness[i + 1 :]:
                first = a if position[a] < position[b] else b
                winners.add(matrix.winner(client, a, b, first))
        assert winners == set(witness)
        assert report.clients[client].quarantined

    def test_inconsistent_cell_detected(self, injected):
        _, ids, report = injected
        client, pa, pb = ids["inconsistent"]
        findings = report.clients[client].findings
        assert any(
            f.kind == INCONSISTENT
            and f.scope == "provider"
            and set(f.sites) == {pa, pb}
            for f in findings
        )
        assert report.clients[client].quarantined

    def test_undecided_cell_detected(self, injected):
        _, ids, report = injected
        client, provider, site_a, site_b = ids["undecided"]
        findings = report.clients[client].findings
        assert any(
            f.kind == UNDECIDED
            and f.scope == f"site:{provider}"
            and set(f.sites) == {site_a, site_b}
            for f in findings
        )
        assert report.clients[client].quarantined

    def test_rtt_hole_does_not_quarantine_in_pairwise_mode(self, injected):
        _, ids, report = injected
        client, site = ids["hole"]
        findings = report.clients[client].findings
        assert any(
            f.kind == RTT_HOLE and f.scope == "rtt" and f.sites == (site,)
            for f in findings
        )
        assert not report.clients[client].quarantined

    def test_quarantine_matches_total_order(self, injected, targets, testbed):
        poisoned, _, report = injected
        order = tuple(testbed.site_ids())
        for client_id, audit in report.clients.items():
            predictable = total_order(poisoned, client_id, order).has_total_order
            assert audit.quarantined == (not predictable)
        # Clients without findings are predictable, so the headline
        # counts add up.
        assert report.predictable_clients == report.clients_total - len(
            report.quarantined_clients()
        )

    def test_injection_lowered_predictable_count(self, campaign, injected, targets):
        _, clean_model = campaign
        poisoned, _, report = injected
        clean_report = audit_model(clean_model, targets)
        # Cycle, INCONSISTENT, and UNDECIDED each quarantine their
        # client; the RTT hole does not.
        assert report.predictable_clients == clean_report.predictable_clients - 3

    def test_report_serialization_is_deterministic(self, injected, targets):
        poisoned, _, report = injected
        again = audit_model(poisoned, targets)
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            again.to_dict(), sort_keys=True
        )
        assert report.to_dict()["format"] == "anyopt-audit-report"


class TestAuditReadsTheKernel:
    @given(st.integers(0, 2**32), st.integers(2, 6), st.integers(1, 10))
    @settings(**SETTINGS)
    def test_usable_mask_is_no_finding(self, seed, n_items, n_clients):
        """Over matrices with every outcome, unmeasured cells and an
        unseen client (999): a tournament's kernel mask holds exactly
        when the cell walk finds nothing in it."""
        rng = random.Random(seed)
        items = rng.sample(range(1, 9), n_items)  # also the announcement order
        clients = list(range(n_clients))
        matrix = random_matrix(rng, clients, sorted(items))
        ranking = FlatPreferenceModel(matrix).ranking(clients + [999], items)
        usable = ranking.provider_usable[ranking.rows]
        for row, client in enumerate(clients + [999]):
            findings = auditor._audit_tournament(
                matrix, client, items, "provider", lambda a, b: "", {}
            )
            assert usable[row] == (not findings), findings

    def test_walks_only_the_voided_tournaments(self, injected, targets, testbed, monkeypatch):
        """The cell walk runs once per (client, tournament) the kernel
        marks unusable, and for no other pair."""
        poisoned, _, report = injected
        walked = []
        walk = auditor._audit_tournament

        def counted(matrix, client_id, items, scope, *rest):
            walked.append((client_id, scope))
            return walk(matrix, client_id, items, scope, *rest)

        monkeypatch.setattr(auditor, "_audit_tournament", counted)
        order = tuple(testbed.site_ids())
        assert audit_model(poisoned, targets).to_dict() == report.to_dict()
        clients = sorted(t.target_id for t in targets)
        ranking = poisoned.ranking(clients, order)
        voided = [
            (clients[row], "provider")
            for row in np.flatnonzero(~ranking.provider_usable[ranking.rows]).tolist()
        ]
        for members, _, _, usable in ranking.groups:
            if usable is not None:
                scope = f"site:{testbed.provider_of(int(ranking.sites[members[0]]))}"
                voided += [(clients[row], scope)
                           for row in np.flatnonzero(~usable[ranking.rows]).tolist()]
        assert walked and sorted(walked) == sorted(voided)
        assert len(walked) < len(clients)


class TestAuditMetrics:
    def test_audit_ships_counters_and_span(self, injected, testbed, targets):
        poisoned, _, expected = injected
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=NOISELESS)
        report = anyopt.audit(poisoned)
        counters = anyopt.metrics.snapshot()["counters"]
        assert counters["audit_runs"] == 1
        assert counters["audit_findings"] == expected.total_findings()
        assert counters["audit_clients_quarantined"] == len(
            expected.quarantined_clients()
        )
        assert counters["audit_cycles"] == expected.counts_by_kind()[CYCLE]
        assert counters["audit_rtt_holes"] == expected.counts_by_kind()[RTT_HOLE]
        assert any(r["name"] == "audit" for r in anyopt.tracer.records())
        assert report.total_findings() == expected.total_findings()


class TestUndecidedDetail:
    def test_undecided_findings_name_the_final_fault(self, testbed, targets):
        settings = CampaignSettings.noiseless(
            fault_announcement_prob=1.0, retry_max_attempts=2
        )
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=settings)
        model = anyopt.discover()
        report = anyopt.audit(model)
        undecided = [f for f in report.findings() if f.kind == UNDECIDED]
        assert undecided
        for finding in undecided:
            assert "fault=announcement" in finding.detail
            assert "attempts=2" in finding.detail


class TestCrossCheck:
    def test_clean_model_passes(self, campaign, testbed, targets):
        _, model = campaign
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=NOISELESS)
        report = anyopt.audit(model, ground_truth_k=2, min_accuracy=0.5)
        assert report.cross_check is not None
        assert report.cross_check.checked > 0
        assert report.cross_check.accuracy >= 0.5
        counters = anyopt.metrics.snapshot()["counters"]
        assert counters["audit_crosscheck_configs"] == 2

    def test_poisoned_predictions_raise_violation(self, campaign, testbed, targets):
        _, model = campaign
        inverted = clone_model(model, testbed)
        # Reverse every strict provider preference: the model still has
        # total orders, but they now predict the wrong catchments.
        pm = inverted.twolevel.provider_matrix
        strict = (PreferenceOutcome.STRICT_A, PreferenceOutcome.STRICT_B)
        for client in list(pm.clients()):
            for pair in list(pm.pairs()):
                a, b = sorted(pair)
                obs = pm.observation(client, a, b)
                if obs is None or obs.outcome() not in strict:
                    continue
                flip = {a: b, b: a}
                pm.record(
                    client,
                    PairObservation(
                        a, b, flip[obs.winner_a_first], flip[obs.winner_b_first]
                    ),
                )
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=NOISELESS)
        with pytest.raises(AuditViolation) as excinfo:
            anyopt.audit(inverted, ground_truth_k=2, min_accuracy=0.9)
        violation = excinfo.value
        assert violation.accuracy < 0.9
        assert violation.report is not None
        assert violation.report.cross_check is not None
        assert violation.report.cross_check.accuracy == violation.accuracy
        assert "below floor" in str(violation)
        # The first mismatch carries a bgp.explain narration.
        assert violation.explanation


class TestPlanRepairs:
    def make_report(self, findings):
        clients = {}
        for finding in findings:
            clients.setdefault(
                finding.client_id, ClientAudit(client_id=finding.client_id)
            ).findings.append(finding)
        return AuditReport(
            announce_order=(1, 2),
            clients_total=len(clients),
            predictable_clients=0,
            clients=clients,
        )

    def test_plan_order_and_dedup(self):
        report = self.make_report(
            [
                Finding(CYCLE, 8, "provider", (30, 10, 20)),
                Finding(INCONSISTENT, 9, "provider", (10, 20)),
                Finding(UNDECIDED, 8, "site:10", (4, 2)),
                Finding(RTT_HOLE, 9, "rtt", (5,)),
            ]
        )
        actions = plan_repairs(report)
        assert [a.kind for a in actions] == [
            "rtt-row",
            "provider-pair",
            "provider-pair",
            "provider-pair",
            "site-pair",
        ]
        # The shared (10, 20) cell merges the cycle's and the
        # INCONSISTENT finding's clients into one action.
        shared = next(a for a in actions if a.key == (10, 20))
        assert shared.clients == (8, 9)
        assert actions[0].cost == 1 and shared.cost == 2
        assert next(a for a in actions if a.kind == "site-pair").key == (2, 4)


@pytest.fixture(scope="module")
def repair_run(testbed, targets):
    """Discover + inject + audit + repair on one AnyOpt."""
    order = tuple(testbed.site_ids())
    anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=NOISELESS)
    model = anyopt.discover()
    pre = count_predictable(model, targets, order)
    full_campaign = model.experiments_used
    inject_defects(model, testbed, targets)
    report = anyopt.audit(model)
    repair = anyopt.repair(model, report=report, max_rounds=2)
    return {
        "pre": pre,
        "post": count_predictable(model, targets, order),
        "full": full_campaign,
        "repair": repair,
        "counters": anyopt.metrics.snapshot()["counters"],
    }


class TestRepairAcceptance:
    def test_restores_predictable_clients(self, repair_run):
        assert repair_run["post"] >= repair_run["pre"]

    def test_repair_is_cheaper_than_a_full_campaign(self, repair_run):
        assert 0 < repair_run["repair"].experiments_used < repair_run["full"]

    def test_transcript_entries_are_structured(self, repair_run):
        transcript = repair_run["repair"].transcript
        assert transcript
        for entry in transcript:
            assert set(entry) == {
                "round",
                "max_attempts",
                "kind",
                "scope",
                "key",
                "clients",
                "experiment_ids",
                "outcome",
                "fault",
                "attempts",
            }
            assert entry["kind"] in {"rtt-row", "provider-pair", "site-pair"}
            assert entry["outcome"] in {"measured", "failed"}

    def test_repair_ships_metrics(self, repair_run):
        counters = repair_run["counters"]
        repair = repair_run["repair"]
        assert counters["audit_repair_rounds"] == repair.rounds
        assert counters["audit_repair_actions"] == repair.actions
        assert counters["audit_repair_experiments"] == repair.experiments_used

    def test_escalating_attempt_budgets(self, repair_run):
        transcript = repair_run["repair"].transcript
        by_round = {}
        for entry in transcript:
            by_round[entry["round"]] = entry["max_attempts"]
        base = NOISELESS.retry_max_attempts
        for round_idx, max_attempts in by_round.items():
            assert max_attempts == base + round_idx


class TestRepairBudget:
    def test_budget_trims_and_flags(self, injected, testbed, targets):
        model, _, report = injected
        work = clone_model(model, testbed)
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=NOISELESS)
        repair = anyopt.repair(work, budget=1)
        assert repair.budget == 1
        assert repair.budget_exhausted
        # Only the cost-1 RTT row fits; every pairwise action is trimmed.
        assert repair.experiments_used == 1
        assert all(e["kind"] == "rtt-row" for e in repair.transcript)


class TestFaultyDeterminism:
    #: Two campaigns with the same seed under fault injection.
    @pytest.fixture(scope="class")
    def faulty_runs(self, testbed, targets):
        runs = []
        for _ in range(2):
            anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=FAULTY)
            model = anyopt.discover()
            inject_defects(model, testbed, targets)
            report = anyopt.audit(model)
            repair = anyopt.repair(model, report=report, max_rounds=2)
            runs.append({
                "model": model_bytes(model),
                "transcript": json.dumps(repair.transcript),
                "final": json.dumps(repair.final_report.to_dict(), sort_keys=True),
                "repair": repair,
            })
        return runs

    def test_identical_under_fault_injection(self, faulty_runs):
        first, second = faulty_runs
        assert second["model"] == first["model"]
        assert second["transcript"] == first["transcript"]
        assert second["final"] == first["final"]

    def test_failed_repairs_carry_fault_accounting(self, faulty_runs):
        failed = [
            e
            for e in faulty_runs[0]["repair"].transcript
            if e["outcome"] == "failed"
        ]
        assert failed  # the fault rates are tuned so at least one fails
        for entry in failed:
            assert entry["fault"] is not None
            assert entry["attempts"] >= 1


@pytest.fixture(scope="module")
def resume_runs(testbed, targets, tmp_path_factory):
    """An uninterrupted checkpointed repair, a repair killed after its
    first checkpoint save, and the resumed completion of the latter."""
    base = tmp_path_factory.mktemp("repair-ckpt")

    def fresh_campaign():
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=NOISELESS)
        model = anyopt.discover()
        inject_defects(model, testbed, targets)
        return anyopt, model

    anyopt, model = fresh_campaign()
    baseline_ckpt = base / "baseline.json"
    baseline = anyopt.repair(
        model,
        report=audit_model(model, targets),
        max_rounds=2,
        checkpoint_path=baseline_ckpt,
    )
    baseline_model = model_bytes(model)

    # Kill the repair right after its first round checkpoints (the
    # monkeypatch fixture is function-scoped, so patch by hand).
    killed_ckpt = base / "killed.json"
    anyopt2, model2 = fresh_campaign()
    real_save = checkpoint_io.save_repair_checkpoint

    def killing_save(progress, path):
        real_save(progress, path)
        raise KeyboardInterrupt

    checkpoint_io.save_repair_checkpoint = killing_save
    try:
        with pytest.raises(KeyboardInterrupt):
            anyopt2.repair(model2, max_rounds=2, checkpoint_path=killed_ckpt)
    finally:
        checkpoint_io.save_repair_checkpoint = real_save

    # Resume in a "new process": fresh orchestrator, pre-repair model.
    anyopt3, model3 = fresh_campaign()
    resumed = anyopt3.repair(
        model3, max_rounds=2, checkpoint_path=killed_ckpt, resume_from=killed_ckpt
    )
    return {
        "baseline": baseline,
        "baseline_model": baseline_model,
        "baseline_ckpt": baseline_ckpt,
        "resumed": resumed,
        "resumed_model": model_bytes(model3),
    }


class TestCheckpointResume:
    def test_resumed_repair_is_byte_identical(self, resume_runs):
        baseline, resumed = resume_runs["baseline"], resume_runs["resumed"]
        assert resume_runs["resumed_model"] == resume_runs["baseline_model"]
        assert json.dumps(resumed.transcript) == json.dumps(baseline.transcript)
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            baseline.to_dict(), sort_keys=True
        )
        # The pre-repair audit belongs to the killed run.
        assert resumed.initial_report is None
        assert baseline.initial_report is not None

    def test_checkpoint_validation(self, resume_runs):
        path = resume_runs["baseline_ckpt"]
        progress = checkpoint_io.repair_progress_from_dict(
            json.loads(path.read_text())
        )
        good = dict(
            seed=progress.seed,
            settings=progress.settings,
            announce_order=progress.announce_order,
            max_rounds=progress.max_rounds,
            budget=progress.budget,
            escalate_attempts=progress.escalate_attempts,
            model_fingerprint=progress.model_fingerprint,
        )
        checkpoint_io.load_repair_checkpoint(path, **good)
        with pytest.raises(ConfigurationError, match="seed"):
            checkpoint_io.load_repair_checkpoint(
                path, **{**good, "seed": progress.seed + 1}
            )
        with pytest.raises(ConfigurationError, match="different campaign settings"):
            checkpoint_io.load_repair_checkpoint(
                path,
                **{**good, "settings": progress.settings.replace(retry_max_attempts=9)},
            )
        with pytest.raises(ConfigurationError, match="repair knobs"):
            checkpoint_io.load_repair_checkpoint(
                path, **{**good, "max_rounds": progress.max_rounds + 1}
            )
        with pytest.raises(ConfigurationError, match="fingerprint"):
            checkpoint_io.load_repair_checkpoint(
                path, **{**good, "model_fingerprint": "0" * 64}
            )


class TestOptimizeExclusion:
    def test_quarantined_clients_are_excluded_from_splpo(
        self, injected, testbed, targets
    ):
        poisoned, _, report = injected
        anyopt = AnyOpt(testbed, targets=targets, seed=SEED, settings=NOISELESS)
        anyopt.optimize(poisoned, sizes=[2], audit_report=report)
        counters = anyopt.metrics.snapshot()["counters"]
        assert counters["splpo_clients_excluded"] == len(
            report.quarantined_clients()
        )


class TestCli:
    @pytest.fixture(scope="class")
    def cli_paths(self, testbed, tmp_path_factory):
        from repro.cli import main
        from repro.io import save_testbed

        base = tmp_path_factory.mktemp("audit-cli")
        testbed_path = base / "testbed.json"
        save_testbed(testbed, testbed_path)
        model_path = base / "model.json"
        assert (
            main(
                [
                    "discover",
                    "--testbed",
                    str(testbed_path),
                    "--seed",
                    str(SEED),
                    "--out",
                    str(model_path),
                ]
            )
            == 0
        )
        return base, testbed_path, model_path

    def test_audit_subcommand_writes_report(self, cli_paths, capsys):
        from repro.cli import main

        base, testbed_path, model_path = cli_paths
        report_path = base / "audit-report.json"
        rc = main(
            [
                "audit",
                "--testbed",
                str(testbed_path),
                "--model",
                str(model_path),
                "--seed",
                str(SEED),
                "--report",
                str(report_path),
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit:" in out
        assert "quarantined" in out
        doc = json.loads(report_path.read_text())
        assert doc["format"] == "anyopt-audit-report"
        assert doc["clients_total"] > 0

    def test_audit_repair_flag_heals_and_saves(self, cli_paths, capsys):
        from repro.cli import main

        base, testbed_path, model_path = cli_paths
        repaired_path = base / "repaired.json"
        report_path = base / "repair-report.json"
        rc = main(
            [
                "audit",
                "--testbed",
                str(testbed_path),
                "--model",
                str(model_path),
                "--seed",
                str(SEED),
                "--repair",
                "--max-rounds",
                "1",
                "--out",
                str(repaired_path),
                "--report",
                str(report_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "repair:" in out
        assert repaired_path.exists()
        doc = json.loads(report_path.read_text())
        assert "repair" in doc
        assert doc["repair"]["experiments_used"] > 0

    def test_discover_audit_flag(self, cli_paths, capsys):
        from repro.cli import main

        base, testbed_path, _ = cli_paths
        rc = main(
            [
                "discover",
                "--testbed",
                str(testbed_path),
                "--seed",
                str(SEED),
                "--out",
                str(base / "model-audited.json"),
                "--audit",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit:" in out
