"""Site-to-target RTT estimation.

The paper's protocol (S3, "Measuring RTTs"): announce the prefix from a
single site, probe each target seven times from the orchestrator
through that site's tunnel, take the median of the valid replies, and
subtract the separately estimated tunnel RTT.  At least three valid
replies are required for a sample.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.measurement.icmp import IcmpProber
from repro.measurement.targets import PingTarget
from repro.measurement.tunnels import TunnelManager
from repro.util.errors import MeasurementError
from repro.util.stats import mean, median

#: Probes per target per RTT measurement (the paper uses seven).
PROBES_PER_TARGET = 7
#: Minimum valid replies for a usable median (the paper uses three).
MIN_VALID_REPLIES = 3


def estimate_rtt(
    prober: IcmpProber,
    tunnels: TunnelManager,
    target: PingTarget,
    site_id: int,
    true_path_rtt_ms: float,
    experiment_id: int,
    probes: int = PROBES_PER_TARGET,
    min_valid: int = MIN_VALID_REPLIES,
) -> Optional[float]:
    """Estimate the RTT between ``site_id`` and ``target``.

    Returns None when fewer than ``min_valid`` replies survive loss.
    The estimate can differ from the true path RTT through probe
    jitter and tunnel-estimate error — the noise floor visible in the
    paper's Figure 5b/5c.
    """
    tunnel = tunnels.tunnel(site_id)
    train = prober.probe_train(
        target, true_path_rtt_ms + tunnel.true_rtt_ms, experiment_id, probes
    )
    samples = [result.rtt_ms for result in train if result.rtt_ms is not None]
    if len(samples) < min_valid:
        return None
    return max(0.0, median(samples) - tunnel.estimated_rtt_ms)


@dataclass
class RttMatrix:
    """Estimated RTTs from every site to every target.

    Built from one singleton BGP experiment per site; the paper needs
    ``O(|S|)`` such experiments (S3.4).  Write through :meth:`set`:
    it is what invalidates the :meth:`array` memo.
    """

    values: Dict[Tuple[int, int], Optional[float]] = field(default_factory=dict)
    #: ``(key, array)`` of the last :meth:`array` call.
    _array: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def set(self, site_id: int, target_id: int, rtt_ms: Optional[float]) -> None:
        self.values[(site_id, target_id)] = rtt_ms
        self._array = None

    def array(self, sites: Sequence[int], clients: Sequence[int]) -> np.ndarray:
        """The samples as a read-only float64 ``[len(sites),
        len(clients)]`` array, NaN where a sample is absent or None —
        the one dict-to-array conversion.

        The last answer is memoised and dropped by :meth:`set`; callers
        pass a configuration's *sorted* site set, so every announcement
        order of the same sites shares the entry.
        """
        key = (tuple(sites), tuple(clients))
        if self._array is not None and self._array[0] == key:
            return self._array[1]
        get = self.values.get
        rows = [[get((site, client)) for client in key[1]] for site in key[0]]
        rtts = np.array(rows, dtype=np.float64).reshape(len(key[0]), len(key[1]))
        rtts.flags.writeable = False
        self._array = (key, rtts)
        return rtts

    def rtt(self, site_id: int, target_id: int) -> Optional[float]:
        try:
            return self.values[(site_id, target_id)]
        except KeyError:
            raise MeasurementError(
                f"no RTT measurement for site {site_id}, target {target_id}"
            ) from None

    def has(self, site_id: int, target_id: int) -> bool:
        return self.values.get((site_id, target_id)) is not None

    def sites(self) -> List[int]:
        return sorted({s for s, _ in self.values})

    def mean_unicast_rtt(self, site_id: int) -> float:
        """Mean RTT from one site to all measurable targets — the
        ranking criterion of the paper's greedy baseline (S5.3)."""
        rtts = [v for (s, _), v in self.values.items() if s == site_id and v is not None]
        if not rtts:
            raise MeasurementError(f"site {site_id} has no valid RTT samples")
        return mean(rtts)

    def best_site_for(self, target_id: int) -> Optional[int]:
        """The site with the lowest measured RTT to ``target_id``."""
        best: Optional[Tuple[float, int]] = None
        for (s, t), v in self.values.items():
            if t == target_id and v is not None and (best is None or v < best[0]):
                best = (v, s)
        return best[1] if best else None
