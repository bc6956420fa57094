"""Campaign checkpointing: resumable discovery state.

A discovery campaign is thousands of virtual BGP experiments; an
orchestrator crash (or an operator Ctrl-C) halfway through should not
force a rerun of the completed phases.  :class:`DiscoveryProgress`
holds the partial campaign state — the RTT matrix, the provider-level
preference matrix, and the per-provider site matrices, each present
only once its phase completed — plus the experiment-id counter, so a
resumed campaign replays completed phases from the checkpoint and
consumes *identical* experiment ids (and therefore identical noise
streams) for the remainder.  A resumed run's model is byte-identical
to an uninterrupted one.

The on-disk format is a versioned JSON document
(``"anyopt-checkpoint"``); :func:`save_checkpoint` writes it with
:func:`~repro.io.atomic.atomic_write`, so a crash mid-save leaves the
previous checkpoint intact.  :func:`load_checkpoint` refuses
checkpoints taken under a different seed, settings, or site-level
mode, since replaying those would silently break determinism.
"""

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.preferences import PreferenceMatrix
from repro.core.twolevel import SiteLevelMode
from repro.io.atomic import atomic_write
from repro.io.serialization import FORMAT_VERSION, _check, state_from_dict, state_to_dict
from repro.measurement.rtt import RttMatrix
from repro.runtime.retry import FailedExperiment
from repro.runtime.settings import CampaignSettings
from repro.util.errors import ConfigurationError, ReproError

CHECKPOINT_FORMAT = "anyopt-checkpoint"


@dataclass
class DiscoveryProgress:
    """Partial state of a discovery campaign, one phase at a time.

    ``rtt_matrix`` / ``provider_matrix`` are None until their phase
    completes; ``site_matrices`` holds only the providers whose site
    sweeps finished.  ``experiment_count`` is the orchestrator's
    consumed-id counter at the last completed phase.
    """

    seed: int
    settings: CampaignSettings
    site_level_mode: SiteLevelMode
    experiment_count: int = 0
    rtt_matrix: Optional[RttMatrix] = None
    provider_matrix: Optional[PreferenceMatrix] = None
    site_matrices: Dict[int, PreferenceMatrix] = field(default_factory=dict)
    failures: List[FailedExperiment] = field(default_factory=list)


def _settings_from_dict(raw: Dict, document: str) -> CampaignSettings:
    """The campaign settings a checkpoint recorded.

    A key :class:`CampaignSettings` does not declare — a stray one, or a
    field another version of this library had — is a typed error rather
    than the constructor's ``TypeError``: such a campaign cannot be
    replayed under this version's settings.
    """
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(CampaignSettings)})
    if unknown:
        raise ReproError(
            f"{document} carries unknown campaign settings "
            f"{', '.join(map(repr, unknown))}; it was written by a different "
            "version of this library and cannot be resumed"
        )
    return CampaignSettings(**raw)


def _load(path, from_dict, seed: int, settings: CampaignSettings, document: str, job: str):
    """Read a checkpoint with ``from_dict`` and check that it was taken
    under the resuming ``job``'s seed and settings."""
    progress = from_dict(json.loads(Path(path).read_text()))
    if progress.seed != seed:
        raise ConfigurationError(
            f"{document} was taken with seed {progress.seed}, "
            f"cannot resume a {job} with seed {seed}"
        )
    if progress.settings != settings:
        raise ConfigurationError(
            f"{document} was taken under different campaign settings; "
            "resume with the settings it was created with"
        )
    return progress


def progress_to_dict(progress: DiscoveryProgress) -> Dict:
    """Serialize partial campaign state to a versioned dict."""
    return {
        "format": CHECKPOINT_FORMAT,
        "version": FORMAT_VERSION,
        "seed": progress.seed,
        "settings": dataclasses.asdict(progress.settings),
        "site_level_mode": progress.site_level_mode.value,
        "experiment_count": progress.experiment_count,
        **state_to_dict(
            progress.rtt_matrix, progress.provider_matrix, progress.site_matrices,
            progress.failures,
        ),
    }


def progress_from_dict(raw: Dict) -> DiscoveryProgress:
    """Rebuild partial campaign state saved by :func:`progress_to_dict`."""
    _check(raw, CHECKPOINT_FORMAT)
    return DiscoveryProgress(
        seed=raw["seed"],
        settings=_settings_from_dict(raw["settings"], CHECKPOINT_FORMAT),
        site_level_mode=SiteLevelMode(raw["site_level_mode"]),
        experiment_count=raw["experiment_count"],
        **state_from_dict(raw),
    )


def save_checkpoint(progress: DiscoveryProgress, path) -> None:
    """Atomically write a checkpoint: a crash mid-save never corrupts
    an existing checkpoint file."""
    atomic_write(path, json.dumps(progress_to_dict(progress)))


def load_checkpoint(
    path,
    seed: int,
    settings: CampaignSettings,
    site_level_mode: SiteLevelMode,
) -> DiscoveryProgress:
    """Load a checkpoint and verify it matches the resuming campaign.

    A checkpoint taken under a different seed, settings, or site-level
    mode cannot be replayed deterministically, so a mismatch raises
    :class:`~repro.util.errors.ConfigurationError` instead of silently
    producing a model that matches neither run.
    """
    progress = _load(path, progress_from_dict, seed, settings, "checkpoint", "campaign")
    if progress.site_level_mode is not site_level_mode:
        raise ConfigurationError(
            f"checkpoint used site-level mode {progress.site_level_mode.value!r}, "
            f"cannot resume in mode {site_level_mode.value!r}"
        )
    return progress


# -- repair checkpoints -------------------------------------------------------

REPAIR_CHECKPOINT_FORMAT = "anyopt-repair-checkpoint"


@dataclass
class RepairProgress:
    """Resumable state of a self-healing repair loop.

    Saved after every completed repair round.  ``model_fingerprint``
    pins the *pre-repair* model the loop started from: resuming
    against any other model would re-measure different cells and
    silently diverge.  The matrices hold the model's *current* (partly
    repaired) state; replaying them into a fresh copy of the
    fingerprinted model restores the exact mid-repair state, because
    repair only overwrites cells — it never deletes them.
    """

    seed: int
    settings: CampaignSettings
    announce_order: tuple
    max_rounds: int
    budget: Optional[int]
    escalate_attempts: int
    model_fingerprint: str
    experiment_count: int = 0
    experiments_used: int = 0
    rounds_completed: int = 0
    budget_exhausted: bool = False
    transcript: List[Dict] = field(default_factory=list)
    rtt_matrix: Optional[RttMatrix] = None
    provider_matrix: Optional[PreferenceMatrix] = None
    site_matrices: Dict[int, PreferenceMatrix] = field(default_factory=dict)
    failures: List[FailedExperiment] = field(default_factory=list)


def repair_progress_to_dict(progress: RepairProgress) -> Dict:
    """Serialize a repair checkpoint to a JSON-compatible dict."""
    return {
        "format": REPAIR_CHECKPOINT_FORMAT,
        "version": FORMAT_VERSION,
        "seed": progress.seed,
        "settings": dataclasses.asdict(progress.settings),
        "announce_order": list(progress.announce_order),
        "max_rounds": progress.max_rounds,
        "budget": progress.budget,
        "escalate_attempts": progress.escalate_attempts,
        "model_fingerprint": progress.model_fingerprint,
        "experiment_count": progress.experiment_count,
        "experiments_used": progress.experiments_used,
        "rounds_completed": progress.rounds_completed,
        "budget_exhausted": progress.budget_exhausted,
        "transcript": progress.transcript,
        **state_to_dict(
            progress.rtt_matrix, progress.provider_matrix, progress.site_matrices,
            progress.failures,
        ),
    }


def repair_progress_from_dict(raw: Dict) -> RepairProgress:
    """Rebuild a repair checkpoint saved by
    :func:`repair_progress_to_dict`, validating format and version."""
    _check(raw, REPAIR_CHECKPOINT_FORMAT)
    return RepairProgress(
        seed=raw["seed"],
        settings=_settings_from_dict(raw["settings"], REPAIR_CHECKPOINT_FORMAT),
        announce_order=tuple(raw["announce_order"]),
        max_rounds=raw["max_rounds"],
        budget=raw["budget"],
        escalate_attempts=raw["escalate_attempts"],
        model_fingerprint=raw["model_fingerprint"],
        experiment_count=raw["experiment_count"],
        experiments_used=raw["experiments_used"],
        rounds_completed=raw["rounds_completed"],
        budget_exhausted=raw["budget_exhausted"],
        transcript=raw["transcript"],
        **state_from_dict(raw),
    )


def save_repair_checkpoint(progress: RepairProgress, path) -> None:
    """Atomically write a repair checkpoint."""
    atomic_write(path, json.dumps(repair_progress_to_dict(progress)))


def load_repair_checkpoint(
    path,
    seed: int,
    settings: CampaignSettings,
    announce_order,
    max_rounds: int,
    budget: Optional[int],
    escalate_attempts: int,
    model_fingerprint: str,
) -> RepairProgress:
    """Load a repair checkpoint and verify it matches the resuming loop.

    Every parameter that shapes the repair transcript — seed, settings,
    announcement order, round/budget/escalation knobs, and the
    fingerprint of the pre-repair model — must match, or the resumed
    transcript would diverge from the uninterrupted one.
    """
    progress = _load(
        path, repair_progress_from_dict, seed, settings, "repair checkpoint", "repair"
    )
    if progress.announce_order != tuple(announce_order):
        raise ConfigurationError(
            "repair checkpoint used a different announcement order"
        )
    if (
        progress.max_rounds != max_rounds
        or progress.budget != budget
        or progress.escalate_attempts != escalate_attempts
    ):
        raise ConfigurationError(
            "repair checkpoint was taken with different repair knobs "
            "(max_rounds/budget/escalate_attempts); resume with the "
            "knobs it was created with"
        )
    if progress.model_fingerprint != model_fingerprint:
        raise ConfigurationError(
            "repair checkpoint does not belong to this model (the "
            "pre-repair model fingerprint differs); resume against the "
            "model the repair started from"
        )
    return progress
