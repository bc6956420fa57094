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
from repro.util.errors import MeasurementError
from repro.util.stats import mean

#: Probes per target per RTT measurement (the paper uses seven).
PROBES_PER_TARGET = 7
#: Minimum valid replies for a usable median (the paper uses three).
MIN_VALID_REPLIES = 3


def estimate_rtts(
    prober: IcmpProber, target_ids, loss_rates, experiment_id: int,
    base_rtt_ms: np.ndarray, tunnel_estimate_ms,
    probes: int = PROBES_PER_TARGET, min_valid: int = MIN_VALID_REPLIES,
) -> np.ndarray:
    """The RTT estimate of every target in one pass: the median delay
    of the probes that survive loss, on top of ``base_rtt_ms`` (true
    path + true tunnel RTT), minus the estimated tunnel RTT, floored at
    zero; NaN with fewer than ``min_valid`` replies or a NaN base (no
    route).  It differs from the true path RTT through probe jitter and
    tunnel-estimate error — the noise floor of the paper's Figure 5b/5c.
    """
    if probes < max(min_valid, 1):  # no train this short yields a sample
        return np.full(len(target_ids), np.nan)
    ordered = np.sort(prober.delays(target_ids, loss_rates, experiment_id, range(probes)), axis=1)
    valid = np.isfinite(ordered).sum(axis=1)  # lost probes sort last
    rows = np.arange(len(ordered))
    last = np.maximum(valid, 1) - 1
    median = (ordered[rows, last // 2] + ordered[rows, (last + 1) // 2]) / 2.0
    median[valid < max(min_valid, 1)] = np.nan
    return np.maximum(0.0, base_rtt_ms + median - tunnel_estimate_ms)


@dataclass
class RttMatrix:
    """Estimated RTTs from every site to every target.

    Built from one singleton BGP experiment per site; the paper needs
    ``O(|S|)`` such experiments (S3.4).  Write through :meth:`set` /
    :meth:`set_row`: they are what invalidates the :meth:`array` memo.
    """

    values: Dict[Tuple[int, int], Optional[float]] = field(default_factory=dict)
    #: ``(key, array)`` of the last :meth:`array` call.
    _array: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def set(self, site_id: int, target_id: int, rtt_ms: Optional[float]) -> None:
        self.values[(site_id, target_id)] = rtt_ms
        self._array = None

    def set_row(self, site_id: int, target_ids, rtts_ms) -> None:
        """Write one site's samples (one memo invalidation per row)."""
        self.values.update(zip(((site_id, t) for t in target_ids), rtts_ms))
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
