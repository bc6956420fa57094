"""Request deadlines, admission control, and load shedding for serving.

:class:`GuardConfig` is the validated knob set for the serving
resilience layer (every field has a CLI flag on ``anyopt serve``);
:class:`ServeGuard` is the runtime that enforces it for a
:class:`~repro.serve.http.ModelServer`:

- *deadlines* — header-read, body-read, handler, and ``drain()`` write
  timeouts, so a slow-loris client cannot pin a connection and a
  never-reading client cannot block graceful drain;
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
import sys
from dataclasses import dataclass, fields
from typing import Optional

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
    cannot hold resources for long.
    """

    #: Deadline for the rest of a request head (request line and
    #: headers) once its first byte has arrived; until then the read
    #: is bounded by ``idle_timeout_s``.
    header_timeout_s: Optional[float] = 10.0
    #: Deadline for reading the request body.
    body_timeout_s: Optional[float] = 30.0
    #: Deadline for the route handler (the ``--request-timeout`` flag).
    handler_timeout_s: Optional[float] = 30.0
    #: Deadline for flushing a response past a flow-control pause.
    write_timeout_s: Optional[float] = 30.0
    #: Keep-alive idle reaper: close a connection that starts no new
    #: request within this window.
    idle_timeout_s: Optional[float] = 120.0
    #: Connection admission cap (excess connections shed with 503).
    max_connections: int = 1024
    #: In-flight request admission cap (excess requests shed with 429).
    max_inflight: int = 64
    #: Per-request header-count cap (excess answered with 431).
    max_header_count: int = 100
    #: ``Retry-After`` seconds advertised on shed responses.
    retry_after_s: float = 1.0
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
            if f.name in ("max_connections", "max_inflight", "max_header_count",
                          "write_high_water", "so_sndbuf"):
                if not isinstance(value, int) or value < 1:
                    raise ConfigurationError(
                        f"guard {f.name} must be a positive integer, got {value!r}"
                    )
            elif not (isinstance(value, (int, float)) and value > 0):
                raise ConfigurationError(
                    f"guard {f.name} must be a positive number of seconds, "
                    f"got {value!r}"
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
    """Enforces a :class:`GuardConfig` for one server: timed awaits
    plus admission decisions, each accounted in ``metrics``."""

    def __init__(self, config: GuardConfig, metrics: MetricsRegistry):
        self.config = config
        self.metrics = metrics

    async def timed(self, awaitable, timeout_s: Optional[float], kind: str):
        """Await ``awaitable`` under the deadline; on expiry count the
        kind's counter and raise :class:`GuardTimeout` (the awaitable
        is cancelled).

        On 3.11+ this is ``asyncio.timeout`` — one timer handle, no
        wrapper task — which keeps the guard's per-request cost inside
        the benchmark budget; older runtimes fall back to ``wait_for``.
        """
        if timeout_s is None:
            return await awaitable
        try:
            if _ASYNCIO_TIMEOUT is not None:
                async with _ASYNCIO_TIMEOUT(timeout_s):
                    return await awaitable
            return await asyncio.wait_for(awaitable, timeout_s)
        except (asyncio.TimeoutError, TimeoutError):
            self.metrics.counter(_TIMEOUT_COUNTERS[kind]).increment()
            raise GuardTimeout(kind, timeout_s) from None

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
