"""AnyOpt reproduction: predicting and optimizing IP anycast performance.

A faithful, laptop-scale reproduction of Zhang et al., "AnyOpt:
Predicting and Optimizing IP Anycast Performance" (SIGCOMM 2021), with
the paper's real-world BGP testbed replaced by a deterministic
event-driven BGP simulator over synthetic Internet topologies.

Quickstart::

    from repro import AnyOpt, build_paper_testbed

    testbed = build_paper_testbed(seed=7)
    anyopt = AnyOpt(testbed, seed=7)
    model = anyopt.discover()
    report = anyopt.optimize(model, sizes=[12])
    print(report.best_config, report.predicted_mean_rtt)

Packages:

- :mod:`repro.topology` — synthetic Internet + the Table 1 testbed;
- :mod:`repro.bgp` — the BGP propagation simulator;
- :mod:`repro.measurement` — Verfploeter-style catchment/RTT probes;
- :mod:`repro.core` — AnyOpt itself (experiments, preferences,
  prediction, optimization, peers);
- :mod:`repro.runtime` — campaign execution: the experiment executor,
  convergence caching, noise settings, and metrics;
- :mod:`repro.splpo` — the SPLPO optimization model and solvers;
- :mod:`repro.audit` — prediction-integrity auditing and self-healing
  re-measurement;
- :mod:`repro.baselines` — the configurations AnyOpt is compared to.
"""

from repro.core import (
    AnycastConfig,
    AnyOpt,
    AnyOptModel,
    CatchmentPredictor,
    ExperimentRunner,
    Prediction,
    PredictionBatch,
    PreferenceMatrix,
)
from repro.measurement import Orchestrator, TargetSet, select_targets
from repro.runtime import CampaignSettings, MetricsRegistry
from repro.topology import (
    Testbed,
    TestbedParams,
    TopologyParams,
    build_paper_testbed,
    generate_internet,
)

# Imported after repro.core: the audit package reads the core model
# types (and repro.io, which itself imports repro.core).
from repro.audit import (
    AuditReport,
    AuditViolation,
    RepairReport,
    audit_model,
    repair_model,
)

__version__ = "1.0.0"

__all__ = [
    "AnyOpt",
    "AnyOptModel",
    "AnycastConfig",
    "AuditReport",
    "AuditViolation",
    "CampaignSettings",
    "CatchmentPredictor",
    "ExperimentRunner",
    "MetricsRegistry",
    "Orchestrator",
    "Prediction",
    "PredictionBatch",
    "PreferenceMatrix",
    "RepairReport",
    "TargetSet",
    "Testbed",
    "TestbedParams",
    "TopologyParams",
    "__version__",
    "audit_model",
    "build_paper_testbed",
    "generate_internet",
    "repair_model",
    "select_targets",
]
