"""Serialization of topologies, testbeds, and measurement artifacts.

JSON round-tripping for the expensive artifacts so a measurement
campaign can be split across processes (and so the CLI can chain
``discover`` -> ``optimize`` -> ``evaluate`` runs):

- :func:`save_testbed` / :func:`load_testbed` — the full synthetic
  Internet plus sites and peering links;
- :func:`save_model` / :func:`load_model` — a discovered
  :class:`~repro.core.anyopt.AnyOptModel` (RTT matrix + preference
  matrices);
- :func:`save_checkpoint` / :func:`load_checkpoint` — partial
  discovery state (:class:`~repro.io.checkpoint.DiscoveryProgress`)
  for resuming an interrupted campaign;
- :class:`~repro.io.cachestore.ConvergenceStore` — the persistent
  on-disk spill of the convergence cache, shared by processes and
  repeated CLI invocations;
- :func:`~repro.io.atomic.atomic_write` — how all of them reach disk.
"""

from repro.io.atomic import atomic_write
from repro.io.cachestore import ConvergenceStore, topology_fingerprint
from repro.io.checkpoint import (
    DiscoveryProgress,
    RepairProgress,
    load_checkpoint,
    load_repair_checkpoint,
    progress_from_dict,
    progress_to_dict,
    repair_progress_from_dict,
    repair_progress_to_dict,
    save_checkpoint,
    save_repair_checkpoint,
)
from repro.io.serialization import (
    load_model,
    load_testbed,
    save_model,
    save_testbed,
    testbed_to_dict,
    testbed_from_dict,
    model_to_dict,
    model_from_dict,
)

__all__ = [
    "ConvergenceStore",
    "DiscoveryProgress",
    "RepairProgress",
    "atomic_write",
    "load_checkpoint",
    "load_model",
    "load_repair_checkpoint",
    "load_testbed",
    "model_from_dict",
    "model_to_dict",
    "progress_from_dict",
    "progress_to_dict",
    "repair_progress_from_dict",
    "repair_progress_to_dict",
    "save_checkpoint",
    "save_model",
    "save_repair_checkpoint",
    "save_testbed",
    "testbed_from_dict",
    "testbed_to_dict",
    "topology_fingerprint",
]
