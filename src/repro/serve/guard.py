"""Request deadlines, admission control, and load shedding for serving.

:class:`GuardConfig` is the validated knob set for the serving
resilience layer (its flagged fields declare ``anyopt serve``'s flags);
:class:`ServeGuard` is the runtime that enforces it for a
:class:`~repro.serve.http.ModelServer`:

- *deadlines* — header-read, body-read, handler, and ``drain()`` write
  timeouts, so a slow-loris client cannot pin a connection and a
  never-reading client cannot block graceful drain.  The stream reads
  (idle, header, body) keep their deadline in a per-connection slot
  under one server-owned loop timer (:meth:`ServeGuard.read`); a
  coroutine handler and a paused drain get their own timer
  (:meth:`ServeGuard.timed`);
- *admission* — a connection cap (shed with ``503`` + ``Retry-After``
  and close) and an in-flight request cap (shed with ``429`` +
  ``Retry-After``, connection kept alive so a polite client can back
  off without a reconnect);
- *idle reaping* — a keep-alive connection that sends nothing for
  ``idle_timeout_s`` is closed, bounding the idle-socket population.

Every enforcement action lands in a metrics counter
(``serve_timeout_<kind>``, ``serve_idle_reaped``,
``serve_shed_requests``, ``serve_shed_connections``) so the chaos
harness and the ``shed-rate`` SLO can account for shed work exactly.

Any timeout knob may be ``None`` (= unlimited); ``unguarded()`` builds
the all-``None`` config the benchmark uses as its baseline when
measuring guard overhead.
"""

import asyncio
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from repro.runtime.metrics import MetricsRegistry
from repro.util.errors import ConfigurationError

#: asyncio's default write high-water mark; the timed-drain fast path
#: compares the transport's buffered bytes against the configured high
#: water (or this) and skips the ``wait_for`` wrapper while the
#: protocol cannot be flow-control paused.
DEFAULT_WRITE_HIGH_WATER = 64 * 1024


class GuardTimeout(Exception):
    """A guard deadline fired.  ``kind`` names which one (``idle``,
    ``header``, ``body``, ``handler``, ``write``)."""

    def __init__(self, kind: str, timeout_s: float):
        super().__init__(f"{kind} deadline exceeded ({timeout_s:g}s)")
        self.kind = kind
        self.timeout_s = timeout_s


@dataclass(frozen=True)
class GuardConfig:
    """Validated knobs for the serving resilience layer.

    Timeouts are seconds; ``None`` disables that deadline.  Defaults
    are sized for a public-facing model server: generous enough that a
    slow-but-honest client finishes, tight enough that a hostile one
    cannot hold resources for long.  A field with a ``flag`` in its
    ``metadata`` is set by that ``anyopt serve`` flag, and its help
    documents it.
    """

    header_timeout_s: Optional[float] = field(default=10.0, metadata={
        "flag": "--header-timeout", "metavar": "SECONDS",
        "help": "deadline for the rest of a request head (request line and "
        "headers) once its first byte has arrived — the slow-loris bound; "
        "until then the read is bounded by --idle-timeout",
    })
    body_timeout_s: Optional[float] = field(default=30.0, metadata={
        "flag": "--body-timeout", "metavar": "SECONDS",
        "help": "deadline for reading a request body",
    })
    handler_timeout_s: Optional[float] = field(default=30.0, metadata={
        "flag": "--request-timeout", "metavar": "SECONDS",
        "help": "deadline for a handler that awaits (/reloadz, or a route "
        "behind a chaos hook); synchronous answers such as /predict never "
        "suspend, so no deadline could interrupt them. Expiry sheds a "
        "structured 503",
    })
    write_timeout_s: Optional[float] = field(default=30.0, metadata={
        "flag": "--write-timeout", "metavar": "SECONDS",
        "help": "deadline for flushing a response past a flow-control pause "
        "(a slow-reading client); expiry aborts the connection",
    })
    idle_timeout_s: Optional[float] = field(default=120.0, metadata={
        "flag": "--idle-timeout", "metavar": "SECONDS",
        "help": "reap a keep-alive connection that starts no new request "
        "within this window",
    })
    max_connections: int = field(default=1024, metadata={
        "flag": "--max-connections", "metavar": "N",
        "help": "connection admission cap; excess connections are shed with "
        "a structured 503 + Retry-After",
    })
    max_inflight: int = field(default=64, metadata={
        "flag": "--max-inflight", "metavar": "N",
        "help": "in-flight request cap; excess requests are shed with a "
        "structured 429 + Retry-After",
    })
    max_header_count: int = field(default=100, metadata={
        "flag": "--max-headers", "metavar": "N",
        "help": "per-request header-line cap; excess answers 431",
    })
    retry_after_s: float = field(default=1.0, metadata={
        "flag": "--shed-retry-after", "metavar": "SECONDS",
        "help": "Retry-After advertised on shed responses",
    })
    #: Transport write high-water mark; ``None`` keeps asyncio's
    #: default.  Tests shrink it to trip the write deadline quickly.
    write_high_water: Optional[int] = None
    #: ``SO_SNDBUF`` applied to accepted sockets; ``None`` keeps the
    #: kernel default.  Small values make never-reading clients hit
    #: the write deadline with small responses.
    so_sndbuf: Optional[int] = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.type in (int, Optional[int]):
                if not isinstance(value, int) or value < 1:
                    raise ConfigurationError(
                        f"guard {f.name} must be a positive integer, got {value!r}"
                    )
            # A range NaN fails; infinity would overflow Retry-After's ceil.
            elif not (isinstance(value, (int, float)) and 0 < value < math.inf):
                raise ConfigurationError(
                    f"guard {f.name} must be a positive, finite number of "
                    f"seconds, got {value!r}"
                )

    @classmethod
    def unguarded(cls) -> "GuardConfig":
        """No deadlines, effectively-unbounded admission: the baseline
        configuration ``bench_serve`` measures guard overhead against."""
        return cls(
            header_timeout_s=None,
            body_timeout_s=None,
            handler_timeout_s=None,
            write_timeout_s=None,
            idle_timeout_s=None,
            max_connections=sys.maxsize,
            max_inflight=sys.maxsize,
            max_header_count=sys.maxsize,
        )


#: ``asyncio.timeout`` where available (3.11+), else None.
_ASYNCIO_TIMEOUT = getattr(asyncio, "timeout", None)

#: GuardTimeout kind -> counter name.  The idle reaper gets its own
#: name because an idle reap is routine housekeeping, not a fault.
_TIMEOUT_COUNTERS = {
    "idle": "serve_idle_reaped",
    "header": "serve_timeout_header",
    "body": "serve_timeout_body",
    "handler": "serve_timeout_handler",
    "write": "serve_timeout_write",
}


class ServeGuard:
    """Enforces a :class:`GuardConfig` for one server: read deadlines
    under one loop timer, timed awaits, and admission decisions, each
    accounted in ``metrics``."""

    def __init__(self, config: GuardConfig, metrics: MetricsRegistry):
        self.config = config
        self.metrics = metrics
        #: reader -> (deadline, kind, timeout_s) of the read parked on it.
        self._reads: Dict[asyncio.StreamReader, Tuple[float, str, float]] = {}
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_at = math.inf

    def expire(self, kind: str, timeout_s: float) -> GuardTimeout:
        """Count a fired ``kind`` deadline; returns its exception."""
        self.metrics.counter(_TIMEOUT_COUNTERS[kind]).increment()
        return GuardTimeout(kind, timeout_s)

    async def read(
        self, reader: asyncio.StreamReader, read, timeout_s: Optional[float],
        kind: str,
    ):
        """Await ``read``, a read of ``reader``, under the deadline; on
        expiry the read fails with :class:`GuardTimeout` (counted by
        :meth:`expire`).

        The deadline sits in the reader's slot, and one loop timer
        stands at the earliest slot.  The timer moves only for an
        earlier deadline, so a keep-alive connection whose every idle
        wait ends later than the last arms nothing per request.  A
        firing fails each parked read past its deadline and re-arms at
        the next deadline; its cost is one pass over the connections
        parked in a read.
        """
        if timeout_s is None:
            return await read
        loop = asyncio.get_running_loop()
        when = loop.time() + timeout_s
        self._reads[reader] = (when, kind, timeout_s)
        if when < self._timer_at:
            self._arm(loop, when)
        try:
            return await read
        finally:
            self._reads.pop(reader, None)

    def _arm(self, loop: asyncio.AbstractEventLoop, when: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = loop.call_at(when, self._expire_reads, loop)
        self._timer_at = when

    def _expire_reads(self, loop: asyncio.AbstractEventLoop) -> None:
        # The loop may run a timer up to its clock resolution early:
        # whatever the timer stood for is due.
        due = max(loop.time(), self._timer_at)
        self._timer, self._timer_at = None, math.inf
        nearest = math.inf
        for reader, (when, kind, timeout_s) in list(self._reads.items()):
            # ``_waiter`` is the StreamReader's pending data future; the
            # read fails through it, not ``reader.set_exception``, which
            # would poison the stream and make the 408's ``drain()``
            # raise.  A due read without a pending one resumes on the
            # next loop pass (its data came, or its task was cancelled);
            # it keeps its slot and the timer comes back then, so a read
            # that resumes only to park again (a body arriving in
            # pieces) still expires.
            waiter = reader._waiter
            if when <= due and waiter is not None and not waiter.done():
                del self._reads[reader]
                waiter.set_exception(self.expire(kind, timeout_s))
            else:
                nearest = min(nearest, when)
        if nearest < math.inf:
            self._arm(loop, nearest)

    async def timed(self, awaitable, timeout_s: Optional[float], kind: str):
        """Await ``awaitable`` under the deadline; on expiry count the
        kind's counter and raise :class:`GuardTimeout` (the awaitable
        is cancelled).

        It guards what is not a stream read: a coroutine handler
        (``/reloadz``, or any route behind a ``chaos_hook``) and a
        response drain past a flow-control pause.  Each call arms its
        own timer: on 3.11+ ``asyncio.timeout`` (no wrapper task),
        before that ``wait_for``.
        """
        if timeout_s is None:
            return await awaitable
        try:
            if _ASYNCIO_TIMEOUT is not None:
                async with _ASYNCIO_TIMEOUT(timeout_s):
                    return await awaitable
            return await asyncio.wait_for(awaitable, timeout_s)
        except (asyncio.TimeoutError, TimeoutError):
            raise self.expire(kind, timeout_s) from None

    def admit_connection(self, current_connections: int) -> bool:
        """Admission check for a newly accepted connection."""
        if current_connections < self.config.max_connections:
            return True
        self.metrics.counter("serve_shed_connections").increment()
        return False

    def admit_request(self, inflight: int) -> bool:
        """Admission check for a parsed request about to be handled."""
        if inflight < self.config.max_inflight:
            return True
        self.metrics.counter("serve_shed_requests").increment()
        return False

    def shed_doc(self, status: int, code: str, message: str) -> dict:
        """The structured body for a shed response."""
        return {"error": {
            "status": status,
            "code": code,
            "message": message,
            "retry_after_s": self.config.retry_after_s,
        }}
