"""Reload-on-publish: watch the snapshot path and hot-swap on change.

``anyopt serve --watch`` runs a :class:`SnapshotWatcher` next to the
server: it polls the snapshot path's ``stat`` (size + mtime_ns +
inode — an atomic ``os.replace`` publish changes all three at once),
debounces until the stat is stable, confirms via the snapshot header
digest that the published model actually differs from the serving one,
and then swaps through :meth:`ModelServer.reload_async` — which runs
``load_snapshot`` off-loop in a thread, so a multi-GB mmap load never
stalls in-flight requests.

Failure model: a corrupt publish must not take the server down *or*
hot-loop the reload path.  A failed load opens a circuit breaker that
quarantines exactly that published stat: the watcher retries the same
bytes only after an exponential backoff (``backoff_base_s * 2**(n-1)``
capped at ``max_backoff_s``), while a *newly* published stat is always
attempted after the normal debounce — so a bad publish followed by a
good one recovers at publish speed, and the breaker closes (failure
count resets) on the first successful load.

Everything observable lands in counters: ``serve_watch_polls``,
``serve_watch_reloads``, ``serve_watch_failures``,
``serve_watch_unchanged``; :meth:`describe` exposes the breaker state
through ``/modelz``.
"""

import asyncio
import math
import os
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.obs.live import Clock
from repro.obs.log import get_logger
from repro.serve.snapshot import SnapshotError, read_header
from repro.util.errors import ConfigurationError

logger = get_logger("serve.watch")

#: (size, mtime_ns, inode) — the identity of one published file.
_Stat = Tuple[int, int, int]


@dataclass(frozen=True)
class WatchConfig:
    """Validated knobs for the reload-on-publish watcher; each field's
    ``metadata`` names the ``anyopt serve`` flag that sets it."""

    poll_interval_s: float = field(default=2.0, metadata={
        "flag": "--watch-interval", "metavar": "SECONDS",
        "help": "seconds between snapshot stat polls",
    })
    debounce_s: float = field(default=0.5, metadata={
        "flag": "--watch-debounce", "metavar": "SECONDS",
        "help": "how long a changed snapshot stat must hold still before the "
        "watcher loads it; an in-progress non-atomic copy keeps moving, an "
        "atomic publish is stable at once",
    })
    backoff_base_s: float = field(default=2.0, metadata={
        "flag": "--watch-backoff", "metavar": "SECONDS",
        "help": "first retry delay after a failed load of a given publish; "
        "doubles per consecutive failure",
    })
    max_backoff_s: float = field(default=300.0, metadata={
        "flag": "--watch-max-backoff", "metavar": "SECONDS",
        "help": "the watcher circuit breaker's backoff ceiling for a "
        "repeatedly bad publish",
    })

    def __post_init__(self):
        # Ranges NaN fails: asyncio.sleep(nan) returns at once, so a NaN
        # poll interval would spin stat() on the server's loop.
        if not 0 < self.poll_interval_s < math.inf:
            raise ConfigurationError("watch poll_interval_s must be finite and > 0")
        if not 0 <= self.debounce_s < math.inf:
            raise ConfigurationError("watch debounce_s must be finite and >= 0")
        if not 0 < self.backoff_base_s <= self.max_backoff_s < math.inf:
            raise ConfigurationError(
                "watch backoff needs 0 < backoff_base_s <= max_backoff_s, finite"
            )


class SnapshotWatcher:
    """Polls one server's snapshot path and reloads on publish."""

    def __init__(
        self,
        server,
        config: Optional[WatchConfig] = None,
        clock: Optional[Clock] = None,
    ):
        self.server = server
        self.config = config if config is not None else WatchConfig()
        self._clock: Clock = clock if clock is not None else time.monotonic
        self.metrics = server.metrics
        # Stat of the publish currently serving (or last skipped as
        # byte-identical); None until the first poll.
        self._serving_stat: Optional[_Stat] = None
        # (stat, first_seen) of a changed publish still debouncing.
        self._pending: Optional[Tuple[_Stat, float]] = None
        # Circuit breaker: the stat that failed to load, consecutive
        # failure count, and the earliest retry time for that stat.
        self._failed_stat: Optional[_Stat] = None
        self.failures = 0
        self._retry_at = 0.0

    def _stat(self) -> Optional[_Stat]:
        try:
            st = os.stat(self.server.snapshot_path)
        except OSError:
            return None
        return (st.st_size, st.st_mtime_ns, st.st_ino)

    def prime(self) -> None:
        """Adopt the currently-published stat as the serving one, so
        the next poll only reacts to *new* publishes.  :meth:`run`
        does this once at startup; tests driving :meth:`poll_once`
        directly should call it first."""
        self._serving_stat = self._stat()

    def describe(self) -> dict:
        """Watcher state for ``/modelz`` and the chaos report."""
        return {
            "poll_interval_s": self.config.poll_interval_s,
            "debounce_s": self.config.debounce_s,
            "breaker_open": self._failed_stat is not None,
            "consecutive_failures": self.failures,
        }

    async def run(self) -> None:
        """Poll until cancelled.  Nothing a poll raises may kill the
        watcher: the serving engine must outlive any publish mishap."""
        self.prime()
        while True:
            await asyncio.sleep(self.config.poll_interval_s)
            try:
                await self.poll_once()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # pragma: no cover - defensive
                logger.warning(
                    "snapshot watcher poll failed",
                    extra={"fields": {"error": str(exc)}},
                )

    async def poll_once(self) -> bool:
        """One poll step; returns True iff a reload happened."""
        self.metrics.counter("serve_watch_polls").increment()
        stat = self._stat()
        if stat is None or stat == self._serving_stat:
            self._pending = None
            return False
        now = self._clock()
        if stat == self._failed_stat and now < self._retry_at:
            # Quarantined bad publish: wait out the backoff.
            return False
        if self._pending is None or self._pending[0] != stat:
            self._pending = (stat, now)
        if now - self._pending[1] < self.config.debounce_s:
            return False
        return await self._attempt(stat, now)

    async def _attempt(self, stat: _Stat, now: float) -> bool:
        self._pending = None
        try:
            header = read_header(self.server.snapshot_path)
            published = header["payload_sha256"][:16]
            serving = self.server.engine.version if self.server.engine else ""
            if published == serving:
                # Republish of identical bytes: adopt the stat, skip
                # the (checksummed, full-read) load.
                self._serving_stat = stat
                self.metrics.counter("serve_watch_unchanged").increment()
                return False
            old, new = await self.server.reload_async()
        except (SnapshotError, OSError, KeyError) as exc:
            self.failures += 1
            self._failed_stat = stat
            backoff = min(
                self.config.backoff_base_s * (2 ** (self.failures - 1)),
                self.config.max_backoff_s,
            )
            self._retry_at = now + backoff
            self.metrics.counter("serve_watch_failures").increment()
            logger.warning(
                "published snapshot failed to load; old model keeps serving",
                extra={"fields": {
                    "path": self.server.snapshot_path,
                    "error": str(exc),
                    "consecutive_failures": self.failures,
                    "retry_backoff_s": backoff,
                }},
            )
            return False
        # Re-stat after the load: if yet another publish landed while
        # loading, the next poll must see it as a change.
        self._serving_stat = self._stat() or stat
        self._failed_stat = None
        self.failures = 0
        self._retry_at = 0.0
        self.metrics.counter("serve_watch_reloads").increment()
        logger.info(
            "snapshot reloaded on publish",
            extra={"fields": {"old_version": old, "model_version": new}},
        )
        return True
