"""Campaign heartbeats: periodic progress snapshots for long runs.

A discovery campaign on an internet-scale topology runs for hours and
— before this module — was silent until it finished.  A
:class:`HeartbeatWriter` rides along any campaign driver: every
``interval_s`` seconds (and at phase boundaries, via :meth:`beat`) it
reads the campaign's :class:`~repro.runtime.metrics.MetricsRegistry`
and appends one JSON object to a heartbeat file — experiments done,
convergence events per second, failure count, and an ETA extrapolated
from the experiment rate.  ``anyopt watch FILE`` tails and renders the
stream from another terminal.

Determinism contract: the heartbeat is a pure *observer*.  It reads
counters that already exist, writes to its own file, and never feeds
anything back into the campaign — so campaign results and exported
trace/metric artifacts stay byte-identical with heartbeats on or off.
The heartbeat file itself is wall-clock-derived by construction and
is excluded from the bit-identity invariant, like span timing fields.
"""

import json
import math
import threading
import time
from typing import Dict, Iterator, List, Optional

from repro.obs.live import Clock
from repro.obs.log import get_logger
from repro.util.errors import ConfigurationError, ReproError

logger = get_logger("heartbeat")

#: Counters copied from the metrics registry into each heartbeat.
TRACKED_COUNTERS = (
    "experiments",
    "experiments_failed",
    "convergence_events",
)


class HeartbeatWriter:
    """Appends periodic campaign-progress records to a JSONL file.

    Use as a context manager around a campaign phase::

        with HeartbeatWriter(path, anyopt.metrics, interval_s=5.0,
                             campaign="discover",
                             total_experiments=71):
            model = anyopt.discover()

    A daemon flusher thread emits one record per interval; entering
    writes an immediate first record and exiting writes a ``final``
    one, so even a campaign shorter than one interval leaves a
    readable file.  ``total_experiments`` is an optional count of the
    experiments the campaign will run (``anyopt discover`` passes its
    exact count: 71 on the paper world) that turns the experiment rate
    into an ETA.

    All writes happen under one lock in append mode with a flush per
    record, so a concurrently tailing reader only ever sees whole
    lines.
    """

    def __init__(
        self,
        path: str,
        metrics,
        interval_s: float = 5.0,
        campaign: str = "campaign",
        total_experiments: Optional[int] = None,
        clock: Optional[Clock] = None,
    ):
        # A range NaN fails: Event.wait(nan) returns at once, so a NaN
        # interval would write records in a tight loop.
        if not 0 < interval_s < math.inf:
            raise ConfigurationError("heartbeat interval_s must be finite and positive")
        self.path = str(path)
        self.metrics = metrics
        self.interval_s = float(interval_s)
        self.campaign = campaign
        self.total_experiments = total_experiments
        self._clock: Clock = clock if clock is not None else time.monotonic
        self._started_at = self._clock()
        self._phase: Optional[str] = None
        self._seq = 0
        self._baseline: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "HeartbeatWriter":
        # Experiments run before this writer attached (a resumed
        # campaign, an earlier phase) are not *this* campaign's work;
        # baseline them out so rates and ETAs describe what the
        # writer actually watched.
        self._baseline = self._counters()
        with open(self.path, "a", encoding="utf-8"):
            pass  # fail fast on an unwritable path, before the campaign
        self.beat()
        self._thread = threading.Thread(
            target=self._run, name="heartbeat", daemon=True
        )
        self._thread.start()
        logger.info(
            "heartbeat started",
            extra={"fields": {"path": self.path, "interval_s": self.interval_s}},
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(error=None if exc is None else str(exc))

    def close(self, error: Optional[str] = None) -> None:
        """Stop the flusher and write the terminal record (idempotent)."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s + 1.0)
        self.beat(final=True, error=error)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.beat()

    # -- recording -----------------------------------------------------------

    def set_phase(self, phase: Optional[str]) -> None:
        """Name the campaign phase subsequent records report."""
        with self._lock:
            self._phase = phase

    def _counters(self) -> Dict[str, int]:
        snapshot = self.metrics.snapshot()
        counters = snapshot.get("counters", {})
        return {name: counters.get(name, 0) for name in TRACKED_COUNTERS}

    def beat(self, final: bool = False, error: Optional[str] = None) -> Dict:
        """Write one progress record now; returns the record."""
        now = self._clock()
        counters = self._counters()
        with self._lock:
            elapsed = max(0.0, now - self._started_at)
            done = counters["experiments"] - self._baseline["experiments"]
            events = (
                counters["convergence_events"]
                - self._baseline["convergence_events"]
            )
            experiments_per_s = done / elapsed if elapsed > 0 else 0.0
            record: Dict = {
                "seq": self._seq,
                "campaign": self.campaign,
                "t_unix": time.time(),
                "elapsed_s": round(elapsed, 3),
                "phase": self._phase,
                "experiments_done": done,
                "experiments_failed": (
                    counters["experiments_failed"]
                    - self._baseline["experiments_failed"]
                ),
                "convergence_events": events,
                "events_per_s": round(events / elapsed, 1) if elapsed > 0 else 0.0,
                "experiments_per_s": round(experiments_per_s, 3),
                "final": final,
            }
            if self.total_experiments is not None:
                record["experiments_total"] = self.total_experiments
                remaining = max(0, self.total_experiments - done)
                record["eta_s"] = (
                    round(remaining / experiments_per_s, 1)
                    if experiments_per_s > 0
                    else None
                )
            if error is not None:
                record["error"] = error
            self._seq += 1
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
        return record


# -- reading -----------------------------------------------------------------


def load_heartbeats(path) -> List[Dict]:
    """Read a heartbeat JSONL file back into records.

    A trailing partial line (a writer killed mid-write) is ignored;
    a malformed *complete* line raises, because silently skipping one
    would misreport campaign progress.
    """
    records: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # A complete final line leaves a trailing "" after the split; a
    # torn final line does not.
    complete, tail = lines[:-1], lines[-1]
    for lineno, line in enumerate(complete, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"corrupt heartbeat line {lineno} in {path}: {exc}")
        if not isinstance(record, dict) or "seq" not in record:
            raise ReproError(
                f"heartbeat line {lineno} in {path} is not a heartbeat record"
            )
        records.append(record)
    if tail.strip():
        logger.warning(
            "ignoring torn trailing heartbeat line",
            extra={"fields": {"path": str(path)}},
        )
    return records


def follow_heartbeats(
    path,
    poll_s: float = 1.0,
    stop_after_final: bool = True,
    max_polls: Optional[int] = None,
) -> Iterator[Dict]:
    """Yield heartbeat records as they are appended (``tail -f``).

    Yields every record already in the file, then polls for new ones
    every ``poll_s`` seconds.  Stops after a record with
    ``final: true`` (the writer's terminal record) when
    ``stop_after_final``, or after ``max_polls`` empty polls (None =
    poll forever) — the bound the CLI uses so ``anyopt watch`` can be
    pointed at a dead file without hanging tests.
    """
    seen = 0
    empty_polls = 0
    while True:
        records = load_heartbeats(path)
        for record in records[seen:]:
            yield record
            if stop_after_final and record.get("final"):
                return
        if len(records) > seen:
            empty_polls = 0
            seen = len(records)
        else:
            empty_polls += 1
            if max_polls is not None and empty_polls >= max_polls:
                return
        time.sleep(poll_s)
