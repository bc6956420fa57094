"""AnyOpt core: experiments, preference discovery, prediction, and
optimization.

This package is the paper's primary contribution:

- :mod:`repro.core.config` — anycast configurations (which sites and
  peers announce, and in what order);
- :mod:`repro.core.experiments` — singleton/pairwise BGP experiment
  drivers, including the order-reversed pairs of S4.2;
- :mod:`repro.core.preferences` — pairwise preference matrices, cycle
  detection, and total-order construction;
- :mod:`repro.core.twolevel` — provider-level + site-level two-level
  discovery and the RTT approximation heuristic (S4.3);
- :mod:`repro.core.prediction` — catchment and RTT prediction for an
  arbitrary configuration (S5.2);
- :mod:`repro.core.optimizer` — offline configuration search (S5.3);
- :mod:`repro.core.peers` — the one-pass beneficial-peer heuristic
  (S4.4);
- :mod:`repro.core.planner` — the measurement-budget analysis of S4.5;
- :mod:`repro.core.anyopt` — the facade that strings the full pipeline
  together.
"""

from repro.core.anyopt import AnyOpt, AnyOptModel
from repro.core.clouds import AnycastCloud, CloudPlan, plan_clouds
from repro.core.config import AnycastConfig
from repro.core.diffs import CatchmentDiff, ClientMove, diff_deployments
from repro.core.hybrid import (
    HybridStats,
    collect_tables,
    infer_preferences,
    select_vantage_points,
    undecided_pairs,
)
from repro.core.stability import (
    StabilityReport,
    StabilitySnapshot,
    run_stability_study,
)
from repro.core.experiments import (
    ExperimentRunner,
    PairwiseResult,
    SingletonResult,
)
from repro.core.optimizer import OptimizationReport, search_configurations
from repro.core.peers import OnePassReport, one_pass_peer_selection
from repro.core.planner import MeasurementPlan, plan_measurements
from repro.core.prediction import (
    CatchmentPredictor,
    Prediction,
    PredictionBatch,
    PredictionReport,
)
from repro.core.preferences import (
    PreferenceMatrix,
    PreferenceOutcome,
    TotalOrderResult,
)
from repro.core.twolevel import TwoLevelModel, discover_two_level

__all__ = [
    "AnyOpt",
    "AnyOptModel",
    "AnycastCloud",
    "AnycastConfig",
    "CatchmentDiff",
    "CatchmentPredictor",
    "ClientMove",
    "CloudPlan",
    "ExperimentRunner",
    "HybridStats",
    "MeasurementPlan",
    "OnePassReport",
    "OptimizationReport",
    "PairwiseResult",
    "Prediction",
    "PredictionBatch",
    "PredictionReport",
    "PreferenceMatrix",
    "PreferenceOutcome",
    "SingletonResult",
    "StabilityReport",
    "StabilitySnapshot",
    "TotalOrderResult",
    "TwoLevelModel",
    "collect_tables",
    "diff_deployments",
    "discover_two_level",
    "infer_preferences",
    "one_pass_peer_selection",
    "plan_clouds",
    "plan_measurements",
    "run_stability_study",
    "search_configurations",
    "select_vantage_points",
    "undecided_pairs",
]
