"""Prediction-integrity auditing and self-healing re-measurement.

See :mod:`repro.audit.auditor` (the integrity sweep),
:mod:`repro.audit.crosscheck` (sampled ground-truth verification), and
:mod:`repro.audit.repair` (the targeted re-measurement loop).
"""

from repro.audit.auditor import KIND_COUNTERS, audit_model
from repro.audit.crosscheck import cross_check
from repro.audit.findings import (
    CYCLE,
    INCONSISTENT,
    QUARANTINE_KINDS,
    RTT_HOLE,
    UNDECIDED,
    UNMAPPED,
    UNMEASURED,
    AuditReport,
    AuditViolation,
    CatchmentMismatch,
    ClientAudit,
    CrossCheckReport,
    Finding,
)
from repro.audit.repair import (
    RepairAction,
    RepairReport,
    model_fingerprint,
    plan_repairs,
    repair_model,
)

__all__ = [
    "AuditReport",
    "AuditViolation",
    "CatchmentMismatch",
    "ClientAudit",
    "CrossCheckReport",
    "Finding",
    "RepairAction",
    "RepairReport",
    "CYCLE",
    "INCONSISTENT",
    "UNDECIDED",
    "UNMAPPED",
    "UNMEASURED",
    "RTT_HOLE",
    "QUARANTINE_KINDS",
    "KIND_COUNTERS",
    "audit_model",
    "cross_check",
    "model_fingerprint",
    "plan_repairs",
    "repair_model",
]
