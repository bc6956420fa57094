"""The self-healing repair loop: targeted re-measurement of findings.

Instead of re-running a full O(|I|^2 + Σ|S_i|^2) campaign when the
audit finds corrupted cells, the repair loop re-runs *only* the
pairwise experiments (and singleton RTT rows) implicated in findings,
in escalating rounds:

- round ``r`` runs with a per-cell attempt budget of
  ``settings.retry_max_attempts + r * escalate_attempts``, so cells
  that kept timing out get progressively more patient retries;
- after each round the model is re-audited and only still-broken
  cells are re-run, until the audit comes back clean, ``max_rounds``
  is reached, or the overall experiment ``budget`` runs out;
- the transcript — one entry per re-run action, in deterministic plan
  order — is a pure function of (model, seed, settings, knobs), so the
  same seed yields the same repair byte for byte on every executor.

Checkpoint integration: after each round the current matrices, id
counter, and transcript are saved (atomically) via
:mod:`repro.io.checkpoint`; a killed repair resumed from that file
replays the completed rounds' state and continues with identical
experiment ids, producing a byte-identical final model and transcript.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.audit.auditor import audit_model
from repro.audit.findings import CYCLE, RTT_HOLE, AuditReport
from repro.core.experiments import ExperimentTask
from repro.core.preferences import PairObservation
from repro.measurement.orchestrator import Orchestrator
from repro.runtime.executor import SerialExecutor
from repro.runtime.retry import FailedExperiment


@dataclass(frozen=True)
class RepairAction:
    """One re-measurement the repair plan schedules.

    ``kind`` is ``"rtt-row"``, ``"provider-pair"``, or ``"site-pair"``;
    ``key`` is the site id, the (provider, provider) ASN pair, or the
    (site, site) pair; ``clients`` are the implicated clients whose
    cells the re-measurement overwrites (other clients' cells are left
    untouched — repair is narrow by design).
    """

    kind: str
    scope: str
    key: Tuple[int, ...]
    clients: Tuple[int, ...]

    @property
    def cost(self) -> int:
        """BGP experiments this action consumes."""
        return 1 if self.kind == "rtt-row" else 2


@dataclass
class RepairReport:
    """What a repair run did and where it left the model."""

    rounds: int
    experiments_used: int
    budget: Optional[int]
    budget_exhausted: bool
    transcript: List[Dict]
    final_report: AuditReport
    #: The audit the repair started from; None when resumed (the
    #: pre-repair audit belongs to the interrupted run).
    initial_report: Optional[AuditReport] = field(default=None, compare=False)

    @property
    def actions(self) -> int:
        return len(self.transcript)

    @property
    def converged(self) -> bool:
        """True when the final audit has no repairable findings left."""
        return not self.final_report.quarantined_clients()

    def to_dict(self) -> Dict:
        return {
            "rounds": self.rounds,
            "actions": self.actions,
            "experiments_used": self.experiments_used,
            "budget": self.budget,
            "budget_exhausted": self.budget_exhausted,
            "transcript": self.transcript,
            "final_report": self.final_report.to_dict(),
        }


def model_fingerprint(model) -> str:
    """A stable fingerprint of a model's serialized form, used to pin
    repair checkpoints to the exact pre-repair model they came from."""
    # Imported here: repro.io.serialization imports repro.core.anyopt,
    # keeping this lazy avoids ordering surprises at package import.
    from repro.io.serialization import model_to_dict

    doc = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _cell_pairs(finding) -> List[Tuple[int, int]]:
    """The matrix cells a finding implicates: the cell itself, or the
    three cells of a cycle witness triple."""
    sites = sorted(finding.sites)
    if finding.kind == CYCLE:
        return [
            (sites[0], sites[1]),
            (sites[0], sites[2]),
            (sites[1], sites[2]),
        ]
    return [tuple(sites)]


def plan_repairs(report: AuditReport) -> List[RepairAction]:
    """Group findings into the deduplicated, deterministically ordered
    re-measurement plan: RTT rows first (cheapest, site order), then
    provider-level pairs, then site-level pairs — mirroring the
    discovery campaign's phase order."""
    rtt_rows: Dict[int, Set[int]] = {}
    provider_pairs: Dict[Tuple[int, int], Set[int]] = {}
    site_pairs: Dict[Tuple[int, int, int], Set[int]] = {}
    for finding in report.findings():
        if finding.kind == RTT_HOLE:
            rtt_rows.setdefault(finding.sites[0], set()).add(finding.client_id)
        elif finding.scope == "provider":
            for pair in _cell_pairs(finding):
                provider_pairs.setdefault(pair, set()).add(finding.client_id)
        elif finding.scope.startswith("site:"):
            provider = int(finding.scope.split(":", 1)[1])
            for pair in _cell_pairs(finding):
                site_pairs.setdefault((provider,) + pair, set()).add(finding.client_id)
    actions: List[RepairAction] = []
    for site in sorted(rtt_rows):
        actions.append(
            RepairAction("rtt-row", "rtt", (site,), tuple(sorted(rtt_rows[site])))
        )
    for pair in sorted(provider_pairs):
        actions.append(
            RepairAction(
                "provider-pair", "provider", pair, tuple(sorted(provider_pairs[pair]))
            )
        )
    for provider, a, b in sorted(site_pairs):
        actions.append(
            RepairAction(
                "site-pair",
                f"site:{provider}",
                (a, b),
                tuple(sorted(site_pairs[(provider, a, b)])),
            )
        )
    return actions


def _site_provider(action: RepairAction) -> int:
    return int(action.scope.split(":", 1)[1])


def _apply_result(model, action: RepairAction, result, reps, target_ids) -> None:
    """Overwrite the implicated clients' cells with the re-measured
    observation (narrow repair: other clients keep their cells); an
    ``rtt-row`` result lists one RTT per target, in ``target_ids`` order."""
    twolevel = model.twolevel
    if action.kind == "rtt-row":
        (site,) = action.key
        row = dict(zip(target_ids, result))
        for client in action.clients:
            model.rtt_matrix.set(site, client, row.get(client))
        return
    if action.kind == "provider-pair":
        pa, pb = action.key
        site_to_provider = {reps[pa]: pa, reps[pb]: pb}
        for client in action.clients:
            obs = result.observation(client)
            twolevel.provider_matrix.record(
                client,
                PairObservation(
                    site_a=pa,
                    site_b=pb,
                    winner_a_first=site_to_provider.get(obs.winner_a_first),
                    winner_b_first=site_to_provider.get(obs.winner_b_first),
                ),
            )
        return
    provider = _site_provider(action)
    for client in action.clients:
        twolevel.site_matrices[provider].record(client, result.observation(client))


def _apply_failure(model, action: RepairAction) -> None:
    """A re-measurement that itself exhausted retries leaves explicit
    UNDECIDED cells (or untouched RTT holes) for the next round."""
    if action.kind == "rtt-row":
        return  # the hole simply remains
    a, b = action.key
    matrix = (
        model.twolevel.provider_matrix
        if action.kind == "provider-pair"
        else model.twolevel.site_matrices[_site_provider(action)]
    )
    for client in action.clients:
        matrix.record(client, PairObservation.undecided_pair(a, b))


def _copy_matrix(src, dst) -> None:
    for client in src.clients():
        for pair in src.pairs():
            a, b = sorted(pair)
            obs = src.observation(client, a, b)
            if obs is not None:
                dst.record(client, obs)


def _replay_progress(progress, model) -> None:
    """Overwrite the model's matrices with a checkpoint's state.

    Repair only ever overwrites cells (never deletes), so replaying
    the checkpointed matrices over the pre-repair model reproduces the
    mid-repair state exactly."""
    if progress.provider_matrix is not None:
        _copy_matrix(progress.provider_matrix, model.twolevel.provider_matrix)
    for provider, matrix in sorted(progress.site_matrices.items()):
        _copy_matrix(matrix, model.twolevel.site_matrices[provider])
    if progress.rtt_matrix is not None:
        for (site, target), value in sorted(progress.rtt_matrix.values.items()):
            model.rtt_matrix.set(site, target, value)


def repair_model(
    orchestrator: Orchestrator,
    model,
    targets,
    report: Optional[AuditReport] = None,
    announce_order: Optional[Sequence[int]] = None,
    max_rounds: int = 3,
    budget: Optional[int] = None,
    escalate_attempts: int = 1,
    executor=None,
    checkpoint_path=None,
    resume_from=None,
) -> RepairReport:
    """Run the self-healing loop against ``model`` (mutated in place).

    ``report`` seeds round 0 (skipping a redundant audit); later
    rounds re-audit the partly repaired model.  ``budget`` caps the
    total BGP experiments repair may spend; actions that no longer fit
    are trimmed in plan order and the report flags the exhaustion.
    ``checkpoint_path`` / ``resume_from`` give repair the same
    kill-and-resume contract as discovery.

    Each round rebuilds its orchestrator (the escalated retry budget
    lives in its settings), but the process executor's pool is keyed
    on the campaign *spec*, not the orchestrator object: round 0 runs
    its chunked re-measurements on the warm workers discovery forked
    (its settings are value-equal to the campaign's), and only the
    escalated rounds — whose workers must honor a larger retry budget
    — pay for a re-fork.
    """
    # Imported lazily, matching AnyOpt.discover: repro.io imports
    # repro.core, and this module is reached from repro.core.anyopt.
    from repro.io import checkpoint as checkpoint_io

    testbed = model.testbed
    settings = orchestrator.settings
    metrics = orchestrator.metrics
    tracer = orchestrator.tracer
    executor = executor if executor is not None else SerialExecutor()
    if announce_order is None:
        announce_order = tuple(testbed.site_ids())
    else:
        announce_order = tuple(announce_order)
    reps = {p: testbed.representative_site(p) for p in testbed.provider_asns()}
    fingerprint = model_fingerprint(model)

    transcript: List[Dict] = []
    repair_failures: List[FailedExperiment] = []
    experiments_used = 0
    budget_exhausted = False
    start_round = 0
    initial_report = report

    if resume_from is not None:
        progress = checkpoint_io.load_repair_checkpoint(
            resume_from,
            orchestrator.seed,
            settings,
            announce_order,
            max_rounds,
            budget,
            escalate_attempts,
            fingerprint,
        )
        _replay_progress(progress, model)
        orchestrator.restore_experiment_state(progress.experiment_count)
        orchestrator.failures.extend(progress.failures)
        transcript = list(progress.transcript)
        repair_failures = list(progress.failures)
        experiments_used = progress.experiments_used
        budget_exhausted = progress.budget_exhausted
        start_round = progress.rounds_completed
        initial_report = None  # the pre-repair audit belongs to the killed run

    def save(rounds_completed: int) -> None:
        if checkpoint_path is None:
            return
        checkpoint_io.save_repair_checkpoint(
            checkpoint_io.RepairProgress(
                seed=orchestrator.seed,
                settings=settings,
                announce_order=announce_order,
                max_rounds=max_rounds,
                budget=budget,
                escalate_attempts=escalate_attempts,
                model_fingerprint=fingerprint,
                experiment_count=orchestrator.experiment_count,
                experiments_used=experiments_used,
                rounds_completed=rounds_completed,
                budget_exhausted=budget_exhausted,
                transcript=transcript,
                rtt_matrix=model.rtt_matrix,
                provider_matrix=model.twolevel.provider_matrix,
                site_matrices=dict(model.twolevel.site_matrices),
                failures=repair_failures,
            ),
            checkpoint_path,
        )

    current = initial_report
    round_idx = start_round
    rounds_run = start_round
    while round_idx < max_rounds:
        if current is None:
            current = audit_model(
                model,
                targets,
                announce_order=announce_order,
                failures=orchestrator.failures,
            )
        actions = plan_repairs(current)
        current = None
        if not actions:
            break
        if budget is not None:
            remaining = budget - experiments_used
            kept = []
            for action in actions:
                if action.cost <= remaining:
                    kept.append(action)
                    remaining -= action.cost
            if len(kept) < len(actions):
                budget_exhausted = True
            if not kept:
                break
            actions = kept

        # Escalating patience: each round grants every re-run cell a
        # larger retry budget than the round before.
        max_attempts = settings.retry_max_attempts + round_idx * escalate_attempts
        round_orch = Orchestrator(
            testbed,
            orchestrator.targets,
            seed=orchestrator.seed,
            settings=settings.replace(retry_max_attempts=max_attempts),
            metrics=metrics,
            tracer=tracer,
        )
        round_orch.restore_experiment_state(orchestrator.experiment_count)
        before = round_orch.experiment_count

        with metrics.phase("repair"), tracer.span(
            "repair-round",
            round=round_idx,
            actions=len(actions),
            max_attempts=max_attempts,
        ) as span:
            tasks: List[ExperimentTask] = []
            for action in actions:
                if action.kind == "rtt-row":
                    (site,) = action.key
                    ids = tuple(round_orch.reserve_experiment_ids(1))
                    tasks.append(
                        ExperimentTask(
                            kind="rtt-row",
                            experiment_ids=ids,
                            subject=f"site {site}",
                            site_id=site,
                            parent_span_id=span.span_id,
                        )
                    )
                else:
                    a, b = action.key
                    site_a, site_b = (
                        (reps[a], reps[b])
                        if action.kind == "provider-pair"
                        else (a, b)
                    )
                    ids = tuple(round_orch.reserve_experiment_ids(2))
                    tasks.append(
                        ExperimentTask(
                            kind="pairwise",
                            experiment_ids=ids,
                            subject=f"pair ({site_a}, {site_b})",
                            site_a=site_a,
                            site_b=site_b,
                            parent_span_id=span.span_id,
                        )
                    )
            results = executor.run_experiments(round_orch, tasks)

        for action, task, result in zip(actions, tasks, results):
            entry = {
                "round": round_idx,
                "max_attempts": max_attempts,
                "kind": action.kind,
                "scope": action.scope,
                "key": list(action.key),
                "clients": list(action.clients),
                "experiment_ids": list(task.experiment_ids),
                "outcome": "measured",
                "fault": None,
                "attempts": None,
            }
            if isinstance(result, FailedExperiment):
                round_orch.record_failure(result)
                entry["outcome"] = "failed"
                entry["fault"] = result.fault
                entry["attempts"] = result.attempts
                _apply_failure(model, action)
                metrics.counter("audit_repair_failed").increment()
            else:
                _apply_result(model, action, result, reps, round_orch.targets.columns.ids)
            transcript.append(entry)

        spent = round_orch.experiment_count - before
        experiments_used += spent
        metrics.counter("audit_repair_rounds").increment()
        metrics.counter("audit_repair_actions").increment(len(actions))
        metrics.counter("audit_repair_experiments").increment(spent)
        metrics.histogram("audit_repair_actions_per_round").observe(
            float(len(actions))
        )
        repair_failures.extend(round_orch.failures)
        orchestrator.failures.extend(round_orch.failures)
        # Hand the consumed id space back so later experiments (or the
        # next round) draw fresh ids exactly as a serial run would.
        orchestrator.restore_experiment_state(round_orch.experiment_count)
        round_idx += 1
        rounds_run = round_idx
        save(round_idx)

    final_report = audit_model(
        model,
        targets,
        announce_order=announce_order,
        failures=orchestrator.failures,
    )
    return RepairReport(
        rounds=rounds_run,
        experiments_used=experiments_used,
        budget=budget,
        budget_exhausted=budget_exhausted,
        transcript=transcript,
        final_report=final_report,
        initial_report=initial_report,
    )
