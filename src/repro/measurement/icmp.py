"""Probe-level ICMP simulation: loss and jitter.

Each echo request either disappears (per-target loss rate) or returns
with the path's true RTT plus queueing jitter.  Jitter is modeled as a
small always-present component plus an occasional congestion spike —
exactly the outliers the paper's median-of-seven filtering exists to
remove.
"""

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.measurement.targets import PingTarget
from repro.util.rng import derive_rng, hash_prefix, stable_hash


@dataclass(frozen=True)
class ProbeResult:
    """One echo request's outcome."""

    target_id: int
    sequence: int
    rtt_ms: Optional[float]

    @property
    def lost(self) -> bool:
        return self.rtt_ms is None


class IcmpProber:
    """Simulates echo requests against known true path RTTs.

    Determinism: probes are seeded by ``(seed, experiment_id,
    target_id, sequence)`` so repeating an experiment reproduces the
    same loss pattern and jitter, while distinct experiments see
    independent noise.
    """

    #: Typical magnitude of per-probe queueing jitter (ms).
    BASE_JITTER_MS = 0.6
    #: Probability that a probe hits a congestion spike.
    SPIKE_PROB = 0.04
    #: Mean size of a congestion spike (ms, exponential).
    SPIKE_MEAN_MS = 25.0

    def __init__(self, seed=0):
        self.seed = seed

    def probe(
        self,
        target: PingTarget,
        true_rtt_ms: float,
        experiment_id: int,
        sequence: int,
    ) -> ProbeResult:
        """Send one echo request; returns a lost probe or a sample."""
        rng = derive_rng(self.seed, "icmp", experiment_id, target.target_id, sequence)
        return self._draw(rng, target, true_rtt_ms, sequence)

    def probe_train(
        self,
        target: PingTarget,
        true_rtt_ms: float,
        experiment_id: int,
        count: int = 7,
    ) -> List[ProbeResult]:
        """The paper's seven-probe train for one target: ``probe()`` per
        sequence number, hashing the streams' shared label prefix once
        and reseeding one ``Random``.  Both stay local to the call —
        executor threads share one prober."""
        prefix = hash_prefix(self.seed, "icmp", experiment_id, target.target_id)
        rng = random.Random(0)
        train = []
        for seq in range(count):
            rng.seed(stable_hash(seq, prefix=prefix))
            train.append(self._draw(rng, target, true_rtt_ms, seq))
        return train

    def answered(self, target: PingTarget, experiment_id: int, sequence: int) -> bool:
        """Whether :meth:`probe` would get a reply — all that catchment
        mapping observes of a probe.  That is the loss decision, the
        stream's first draw; a lossless target needs no stream at all."""
        if target.loss_rate == 0.0:
            return True
        rng = derive_rng(self.seed, "icmp", experiment_id, target.target_id, sequence)
        return rng.random() >= target.loss_rate

    def _draw(
        self, rng: random.Random, target: PingTarget, true_rtt_ms: float, sequence: int
    ) -> ProbeResult:
        """One probe's draws from its freshly seeded stream, in stream
        order: loss decision, base jitter, spike decision, spike size."""
        if rng.random() < target.loss_rate:
            return ProbeResult(target.target_id, sequence, None)
        jitter = abs(rng.gauss(0.0, self.BASE_JITTER_MS))
        if rng.random() < self.SPIKE_PROB:
            jitter += rng.expovariate(1.0 / self.SPIKE_MEAN_MS)
        return ProbeResult(target.target_id, sequence, true_rtt_ms + jitter)
