"""The campaign executor: runs a campaign's BGP experiments in order.

The experiment drivers express a campaign as an ordered list of
:class:`~repro.core.experiments.ExperimentTask` descriptors whose
experiment ids were *reserved up front* in serial order (see
:meth:`~repro.measurement.orchestrator.Orchestrator.reserve_experiment_ids`).
Every seeded noise stream is keyed by experiment id, so a checkpointed
campaign resumes onto the same ids and the same draws.

Experiments run one at a time in the calling thread.  No simulated
experiment waits on anything, so a worker pool could only help by
beating the GIL; neither a thread pool nor a fork pool came within
1.2x of this loop, and both were removed.
"""

from typing import Callable, List, Optional, Sequence

#: Signature of the optional progress callback: ``progress(done, total)``.
ProgressFn = Callable[[int, int], None]


class CampaignExecutor:
    """Runs experiment descriptors serially, in task order."""

    def run_experiments(
        self,
        orchestrator,
        tasks: Sequence,
        progress: Optional[ProgressFn] = None,
    ) -> List:
        """Execute :class:`~repro.core.experiments.ExperimentTask`
        descriptors against ``orchestrator``; results keep task order
        and ``progress(done, total)`` fires after each one."""
        # Imported lazily: repro.core imports this module, so a
        # module-level import would be a cycle.
        from repro.core.experiments import execute_experiment_task

        results = []
        total = len(tasks)
        for done, task in enumerate(tasks, start=1):
            results.append(execute_experiment_task(orchestrator, task))
            if progress is not None:
                progress(done, total)
        return results
