"""Probe-level ICMP simulation: loss and jitter.

Each echo request either disappears (per-target loss rate) or returns
with the path's true RTT plus queueing delay: a small always-present
component plus an occasional congestion spike — exactly the outliers
the paper's median-of-seven filtering exists to remove.
"""

import math
from typing import Sequence

import numpy as np

from repro.measurement.targets import PingTarget
from repro.util.rng import exponentials, noise_key, standard_normals, uniform_rows


class IcmpProber:
    """Simulates echo requests against known true path RTTs.

    A probe's noise is five words of the experiment's ``"icmp"`` stream
    (:func:`repro.util.rng.uniforms`) at row ``sequence`` from word
    ``5 * target_id`` — loss decision, the Box–Muller pair of the base
    jitter, spike decision, spike size — hence a pure function of
    ``(seed, experiment_id, target_id, sequence)``: one probe alone
    reads what a whole pass reads.  :meth:`delays` is the one
    implementation; :meth:`probe` and :meth:`answered` are views of it.
    """

    #: Typical magnitude of per-probe queueing jitter (ms).
    BASE_JITTER_MS = 0.6
    #: Probability that a probe hits a congestion spike.
    SPIKE_PROB = 0.04
    #: Mean size of a congestion spike (ms, exponential).
    SPIKE_MEAN_MS = 25.0
    #: Uniforms per probe.
    WORDS = 5

    def __init__(self, seed=0):
        self.seed = seed

    def _words(self, target_ids, experiment_id: int, sequence: int) -> np.ndarray:
        key = noise_key(self.seed, "icmp", experiment_id)
        return uniform_rows(key, target_ids, self.WORDS, row=sequence)

    def lost(self, target_ids, loss_rates, experiment_id: int, sequence: int) -> np.ndarray:
        """Which targets' probe number ``sequence`` gets no reply — all
        that catchment mapping observes of a probe."""
        return self._words(target_ids, experiment_id, sequence)[:, 0] < loss_rates

    def delays(self, target_ids, loss_rates, experiment_id: int, sequences: Sequence[int]):
        """Queueing delay (ms) of every probe as ``[targets,
        sequences]``, ``+inf`` where the probe is lost."""
        words = [self._words(target_ids, experiment_id, s) for s in sequences]
        u = np.stack(words, axis=1) if words else np.empty((len(target_ids), 0, self.WORDS))
        delay = self.BASE_JITTER_MS * np.abs(standard_normals(u[..., 1:3]))
        spike = u[..., 3] < self.SPIKE_PROB
        delay[spike] += self.SPIKE_MEAN_MS * exponentials(u[..., 4][spike])
        delay[u[..., 0] < np.asarray(loss_rates)[:, None]] = math.inf
        return delay

    def probe(self, target: PingTarget, true_rtt_ms: float, experiment_id: int, sequence: int):
        """One echo request's RTT sample (ms), None when it is lost."""
        delay = self.delays([target.target_id], [target.loss_rate], experiment_id, [sequence])
        return None if delay.item() == math.inf else true_rtt_ms + delay.item()

    def answered(self, target: PingTarget, experiment_id: int, sequence: int) -> bool:
        """Whether :meth:`probe` would get a reply."""
        return not self.lost([target.target_id], [target.loss_rate], experiment_id, sequence).item()
