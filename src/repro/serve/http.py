"""Asyncio HTTP/JSON front end over a model snapshot.

``anyopt serve`` runs a :class:`ModelServer`: a single-process asyncio
server (stdlib only — no third-party HTTP framework) whose request
handlers answer from a :class:`~repro.serve.lookup.LookupEngine`.

Endpoints:

- ``POST /predict`` — ``{"sites": [...], "clients": [...]?}`` →
  the batch plus the serving model version, as the bytes of
  :meth:`PredictionBatch.to_json` (joined from pre-encoded rows).
  Malformed requests and empty/undecidable batches come back as
  *structured 4xx JSON errors*, never a 500: a service cannot ship a
  raised ``ReproError`` as its answer.
- ``GET /healthz`` — *readiness*: 200 with snapshot version + age when
  a snapshot is loaded and the server is not draining, else 503 with a
  structured body.
- ``GET /livez`` — *liveness*: 200 whenever the event loop answers,
  even while draining (a live-but-not-ready server must not be
  restarted by its supervisor mid-drain).
- ``GET /metricsz`` — Prometheus text exposition: batch counters plus
  the rolling-window gauges and SLO states.
- ``GET /slozz`` — SLO / burn-rate state as JSON.
- ``GET /modelz`` — the snapshot's :meth:`Snapshot.describe` document
  (plus the reload-on-publish watcher state when ``--watch`` is on).
- ``POST /reloadz`` — hot reload: re-load the snapshot path (atomic
  publish by :func:`~repro.serve.snapshot.write_snapshot` guarantees a
  complete file) and swap the engine.

Resilience (see :mod:`repro.serve.guard` / :mod:`repro.serve.watch`):
every request runs under per-phase deadlines (idle keep-alive reap,
header read, body read, a handler that awaits, response drain; the
reads share one server timer, a handler that never awaits needs no
timer), connections and
in-flight requests are admission-capped with structured ``503`` /
``429 Retry-After`` shedding, the request head is taken in one read and
parsed by the pure :func:`parse_request_head` (an overlong request line
or header section answers ``400``/``431`` instead of killing the
connection task), and ``--watch`` runs a reload-on-publish watcher whose
``load_snapshot`` happens off-loop in a worker thread.  A dedicated
``shed-rate`` SLO (stream ``"sheds"``) tracks the shed fraction
separately from request availability.

Request latency is recorded in the bounded
:class:`~repro.obs.live.WindowReservoir`, *not* the batch
``Histogram`` — an always-on server must hold O(1) telemetry, and the
exact batch percentiles are a campaign tool (see
:mod:`repro.runtime.metrics` for the hazard note).

Consistency under reload: handlers capture the engine reference once
per request, and the swap is a single attribute assignment on the
event-loop thread — an in-flight request finishes against the model
version it started with, and the old mmap stays valid until its last
reader drops it.  Nothing is dropped or torn.

Shutdown is graceful but bounded: the listener closes first, in-flight
requests drain within a grace period, then any still-stuck handler
tasks are cancelled and their transports aborted — the process can
always exit.
"""

import asyncio
import contextlib
import json
import math
import socket
import time
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.config import AnycastConfig
from repro.obs.export import render_prometheus
from repro.obs.live import Clock, LiveMetrics
from repro.obs.slo import SloEngine, SloSpec, worst_state
from repro.obs.trace import Tracer
from repro.runtime.metrics import MetricsRegistry
from repro.serve.guard import GuardConfig, GuardTimeout, ServeGuard
from repro.serve.lookup import LookupEngine
from repro.serve.snapshot import SnapshotError, load_snapshot
from repro.serve.watch import SnapshotWatcher, WatchConfig
from repro.util.errors import ReproError

#: Largest accepted request body; /predict bodies are tiny id lists.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Largest accepted request head (request line + headers): the stream
#: limit of every connection, so an overrun is reported by the read.
MAX_HEAD_BYTES = 64 * 1024

_HEAD_END = b"\r\n\r\n"

#: Finished request spans the server's own tracer keeps (a ring: an
#: always-on process cannot retain one record per request).
REQUEST_TRACE_RECORDS = 1024

#: Default "fast enough" bound for the request-latency SLO.
DEFAULT_LATENCY_THRESHOLD_MS = 250.0

#: Default maximum acceptable snapshot age before freshness pages.
DEFAULT_MAX_SNAPSHOT_AGE_S = 86400.0

#: Default objective for the shed-rate SLO: at most 1% of offered
#: requests may be load-shed before the server is paged.
DEFAULT_SHED_RATE_OBJECTIVE = 0.99


def default_slo_specs(
    latency_threshold_ms: float = DEFAULT_LATENCY_THRESHOLD_MS,
    max_snapshot_age_s: float = DEFAULT_MAX_SNAPSHOT_AGE_S,
) -> Tuple[SloSpec, ...]:
    """The server's stock SLOs: 99.9% availability, 99% of requests
    under the latency threshold, a snapshot-freshness age bound
    (warn at 75% of the budget, page past it), and a shed-rate bound
    fed from the admission-control stream (good = not shed)."""
    return (
        SloSpec("availability", "availability", 0.999),
        SloSpec(
            "p99-latency", "latency", 0.99,
            latency_threshold_ms=latency_threshold_ms,
        ),
        SloSpec(
            "snapshot-freshness", "freshness", max_snapshot_age_s,
            warn_burn=0.75, page_burn=1.0,
        ),
        SloSpec(
            "shed-rate", "availability", DEFAULT_SHED_RATE_OBJECTIVE,
            stream="sheds",
        ),
    )

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class RequestError(Exception):
    """A structured client error: rendered as JSON, never a 500."""

    def __init__(self, status: int, code: str, message: str, **details):
        super().__init__(message)
        self.status = status
        self.doc = {"error": {"status": status, "code": code, "message": message}}
        if details:
            self.doc["error"].update(details)


def parse_request_head(head: bytes, max_header_count: int) -> Tuple[str, str, int]:
    """``(method, path, content_length)`` of one request head, the
    bytes through the blank line — pure, so the fuzzer calls what the
    server calls.  Lines end at ``\\n``, the path drops its query, the
    last ``Content-Length`` wins.  Raises :class:`RequestError`: 400
    for a malformed request line, 431 past ``max_header_count`` header
    lines, 413 for a body size that is no number, negative or over
    :data:`MAX_BODY_BYTES`."""
    lines = head.decode("latin-1").split("\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise RequestError(400, "bad-request", "malformed request line")
    content_length = 0
    for count, line in enumerate(lines[1:], 1):
        if line in ("\r", ""):
            break
        if count > max_header_count:
            raise RequestError(
                431, "too-many-headers",
                f"request exceeds {max_header_count} header lines",
            )
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                content_length = -1
    if content_length < 0 or content_length > MAX_BODY_BYTES:
        raise RequestError(
            413, "payload-too-large", f"body must be <= {MAX_BODY_BYTES} bytes"
        )
    return parts[0], parts[1].split("?", 1)[0], content_length


class ModelServer:
    """Serves catchment predictions from a snapshot file.

    ``host``/``port`` follow ``asyncio.start_server`` conventions
    (``port=0`` binds an ephemeral port, reported by :attr:`port` once
    started — what the tests and the smoke job use).

    ``guard`` is the resilience knob set (defaults applied when None);
    ``watch`` enables the reload-on-publish watcher.  ``chaos_hook``
    (an optional ``async hook(method, path)``) is awaited before every
    route handler — the chaos harness and the guard tests use it to
    make handlers slow or hang on demand.
    """

    def __init__(
        self,
        snapshot_path: str,
        host: str = "127.0.0.1",
        port: int = 8080,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slo_specs: Optional[Sequence[SloSpec]] = None,
        clock: Optional[Clock] = None,
        guard: Optional[GuardConfig] = None,
        watch: Optional[WatchConfig] = None,
    ):
        self.snapshot_path = snapshot_path
        self.host = host
        self.port = port
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if tracer is None:
            tracer = Tracer(max_records=REQUEST_TRACE_RECORDS)
        self.tracer = tracer
        self._clock: Clock = clock if clock is not None else time.monotonic
        self.live = LiveMetrics(clock=self._clock)
        self.slo = SloEngine(
            default_slo_specs() if slo_specs is None else slo_specs,
            clock=self._clock,
        )
        for spec in self.slo.specs:
            if spec.kind == "freshness":
                self.slo.set_gauge_source(spec.name, self._snapshot_age)
        self.guard = ServeGuard(
            guard if guard is not None else GuardConfig(), self.metrics
        )
        self.watch_config = watch
        self.watcher: Optional[SnapshotWatcher] = None
        self._watch_task: Optional[asyncio.Task] = None
        self.chaos_hook = None
        self.engine: Optional[LookupEngine] = None
        self._loaded_at: Optional[float] = None
        self._loaded_at_unix: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._conn_tasks: Dict = {}
        self._reload_lock: Optional[asyncio.Lock] = None
        self._inflight = 0
        self._requests_served = 0
        self._request_seq = 0
        self._closing = False
        self._drained = asyncio.Event()
        self._drained.set()

    # -- model lifecycle -------------------------------------------------------

    def load(self) -> LookupEngine:
        """Load (or initially reload) the snapshot into a fresh engine."""
        self.engine = LookupEngine(load_snapshot(self.snapshot_path))
        self._loaded_at = self._clock()
        self._loaded_at_unix = time.time()
        return self.engine

    def reload(self) -> Tuple[str, str]:
        """Hot-swap the engine from the (re-published) snapshot path.

        Returns ``(old_version, new_version)``.  On any load failure
        the old engine keeps serving — reload is all-or-nothing.
        Synchronous (blocks the caller); the serving paths use
        :meth:`reload_async`.
        """
        old = self.engine.version if self.engine is not None else ""
        engine = LookupEngine(load_snapshot(self.snapshot_path))
        self._swap(engine)
        return old, engine.version

    async def reload_async(self) -> Tuple[str, str]:
        """Hot-swap like :meth:`reload`, but the load — checksum read,
        mmap, engine index build — runs off-loop in a worker thread so
        a multi-GB snapshot never stalls in-flight requests.  A lock
        serializes concurrent reloads (watcher poll, ``POST /reloadz``,
        SIGHUP); the swap itself is one attribute assignment on the
        event-loop thread."""
        if self._reload_lock is None:
            self._reload_lock = asyncio.Lock()
        async with self._reload_lock:
            old = self.engine.version if self.engine is not None else ""
            engine = await asyncio.to_thread(
                lambda: LookupEngine(load_snapshot(self.snapshot_path))
            )
            self._swap(engine)
            return old, engine.version

    def _swap(self, engine: LookupEngine) -> None:
        self.engine = engine
        self._loaded_at = self._clock()
        self._loaded_at_unix = time.time()
        self.metrics.counter("serve_reloads").increment()

    def _snapshot_age(self) -> float:
        """Seconds since the serving snapshot was (re)loaded — the
        freshness-SLO gauge.  An unloaded server reports the full
        freshness budget as already spent, so an engine that never
        came up cannot look fresh."""
        if self._loaded_at is None:
            ages = [
                spec.objective * spec.page_burn
                for spec in self.slo.specs
                if spec.kind == "freshness"
            ]
            return max(ages) if ages else 0.0
        return self._clock() - self._loaded_at

    @property
    def ready(self) -> bool:
        """Readiness: a snapshot is loaded and we are not draining."""
        return self.engine is not None and not self._closing

    @property
    def open_connections(self) -> int:
        """Live connection count (the chaos harness asserts this is
        zero after shutdown)."""
        return len(self._connections)

    # -- server lifecycle ------------------------------------------------------

    async def start(self) -> None:
        if self.engine is None:
            self.load()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_HEAD_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.watch_config is not None:
            self.watcher = SnapshotWatcher(self, self.watch_config)
            self._watch_task = asyncio.ensure_future(self.watcher.run())

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, grace_s: float = 10.0) -> None:
        """Stop accepting, drain in-flight requests (bounded by
        ``grace_s``), close idle connections — and if the grace period
        expires with handlers still stuck, cancel their connection
        tasks and abort the transports so the process can always
        exit."""
        self._closing = True
        if self._watch_task is not None:
            self._watch_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watch_task
            self._watch_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._drained.wait(), grace_s)
        except asyncio.TimeoutError:
            self.metrics.counter("serve_drain_forced").increment()
            for task in list(self._conn_tasks.values()):
                task.cancel()
            for writer in list(self._connections):
                with contextlib.suppress(Exception):
                    writer.transport.abort()
        for writer in list(self._connections):
            writer.close()
        leftovers = [t for t in self._conn_tasks.values() if not t.done()]
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        if not self.guard.admit_connection(len(self._connections)):
            # Over the connection cap: shed with a structured 503 and
            # close — this client must reconnect after Retry-After.
            self.slo.record(ok=False, stream="sheds")
            try:
                await self._send(
                    writer, 503,
                    self.guard.shed_doc(
                        503, "shed-connection",
                        "connection limit reached, retry later",
                    ),
                    keep_alive=False, retry_after=True,
                )
            except (ConnectionError, GuardTimeout):
                pass
            finally:
                writer.close()
                with contextlib.suppress(Exception):
                    await writer.wait_closed()
            return
        self._connections.add(writer)
        self._conn_tasks[writer] = asyncio.current_task()
        self._tune_transport(writer)
        try:
            while not self._closing:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, path, body = request
                keep_alive = await self._dispatch(writer, method, path, body)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except GuardTimeout:
            # A write deadline fired mid-response; the transport was
            # already aborted by _send.
            pass
        finally:
            self._conn_tasks.pop(writer, None)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    def _tune_transport(self, writer) -> None:
        cfg = self.guard.config
        if cfg.so_sndbuf is not None:
            sock = writer.transport.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, cfg.so_sndbuf)
        if cfg.write_high_water is not None:
            writer.transport.set_write_buffer_limits(high=cfg.write_high_water)

    async def _read_request(self, reader, writer):
        """One HTTP/1.1 request: ``(method, path, body)`` or None when
        the peer closed the connection (or a read deadline / limit
        ended it — answered in place, never a crashed task)."""
        cfg = self.guard.config
        try:
            method, path, content_length = parse_request_head(
                await self._read_head(reader), cfg.max_header_count
            )
            # Deadline fast path, here as in _read_head: when the bytes
            # a read needs already sit in the stream buffer (one-segment
            # requests, pipelining), the read completes without touching
            # the loop and needs no deadline.
            if len(getattr(reader, "_buffer", b"")) >= content_length:
                body = await reader.readexactly(content_length)
            else:
                try:
                    body = await self.guard.read(
                        reader, reader.readexactly(content_length),
                        cfg.body_timeout_s, "body",
                    )
                except asyncio.IncompleteReadError:
                    # Torn body: the peer quit mid-upload, nothing to answer.
                    self.metrics.counter("serve_torn_bodies").increment()
                    return None
        except GuardTimeout as exc:
            if exc.kind == "idle":
                # The keep-alive reaper: no request had started.
                return None
            # A head or body past its deadline: slow-loris.
            error = RequestError(408, f"{exc.kind}-timeout", str(exc))
        except RequestError as exc:
            error = exc
        else:
            return method, path, body
        self.metrics.counter("serve_client_errors").increment()
        await self._send(writer, error.status, error.doc, keep_alive=False)
        return None

    async def _read_head(self, reader) -> bytes:
        """The request head through its blank line, in one read: the
        idle deadline runs until its first byte, the header deadline
        over the rest unless that is already buffered.  A peer that
        closes first raises ``IncompleteReadError`` (the connection
        ends quietly)."""
        cfg = self.guard.config
        try:
            first = b""
            if not getattr(reader, "_buffer", b""):
                # Waiting for a request to start: its first byte.
                first = await self.guard.read(
                    reader, reader.readexactly(1), cfg.idle_timeout_s, "idle"
                )
            if _HEAD_END in getattr(reader, "_buffer", b""):
                return first + await reader.readuntil(_HEAD_END)
            return first + await self.guard.read(
                reader, reader.readuntil(_HEAD_END), cfg.header_timeout_s, "header"
            )
        except asyncio.LimitOverrunError:
            # The head outgrew the stream limit.  Which limit error it
            # is depends on whether the request line ever ended.
            if getattr(reader, "_buffer", b"").find(b"\n", 0, MAX_HEAD_BYTES) < 0:
                raise RequestError(
                    400, "request-line-too-long",
                    "request line exceeds the server's line limit",
                ) from None
            raise RequestError(
                431, "header-too-large",
                "the header section exceeds the server's head limit",
            ) from None

    async def _dispatch(self, writer, method: str, path: str, body: bytes) -> bool:
        self._request_seq += 1
        seq = self._request_seq
        # Latency lands in the bounded windowed reservoir, never the
        # batch Histogram: a server must hold O(1) telemetry.
        reservoir = self.live.reservoir("serve_request_ms")
        loop = asyncio.get_running_loop()
        started = loop.time()
        with self.tracer.span(
            "http-request", key=f"req:{seq}", parent=None, method=method, path=path
        ) as span:
            admitted = self.guard.admit_request(self._inflight)
            # Every offered request feeds the shed-rate SLO: good
            # means "not load-shed".
            self.slo.record(ok=admitted, stream="sheds")
            retry_after = not admitted
            if admitted:
                self._inflight += 1
                self._drained.clear()
            try:
                if not admitted:
                    status, doc = 429, self.guard.shed_doc(
                        429, "shed-inflight",
                        "in-flight request limit reached, back off and retry",
                    )
                    span.set_attribute("shed", True)
                else:
                    try:
                        route = (
                            self._route if self.chaos_hook is None
                            else self._hooked_route
                        )
                        answer = route(method, path, body, span)
                        if not isinstance(answer, tuple):
                            # A coroutine (/reloadz, or a hooked
                            # route): only an answer that awaits can
                            # overrun, so only it arms a deadline.
                            answer = await self.guard.timed(
                                answer, self.guard.config.handler_timeout_s,
                                "handler",
                            )
                        status, doc = answer
                    except GuardTimeout as exc:
                        # The handler blew its deadline: a server
                        # fault, shed so the client backs off.
                        status, doc = 503, self.guard.shed_doc(
                            503, "handler-timeout", str(exc)
                        )
                        retry_after = True
                    except RequestError as exc:
                        status, doc = exc.status, exc.doc
                        self.metrics.counter("serve_client_errors").increment()
                    except ReproError as exc:
                        # Any remaining domain error is still the
                        # client's request being unanswerable, not a
                        # server fault.
                        status, doc = 400, RequestError(400, "bad-request", str(exc)).doc
                        self.metrics.counter("serve_client_errors").increment()
                span.set_attribute("status", status)
                self._requests_served += 1
                self.metrics.counter("serve_requests").increment()
                elapsed_ms = (loop.time() - started) * 1000.0
                reservoir.observe(elapsed_ms)
                self.live.rate("serve_requests").increment()
                self.slo.record(ok=status < 500, latency_ms=elapsed_ms)
                span.set_attribute("elapsed_ms", elapsed_ms)
                keep_alive = not self._closing
                await self._send(
                    writer, status, doc,
                    keep_alive=keep_alive, retry_after=retry_after,
                )
                return keep_alive
            finally:
                # In-flight covers the response flush too: graceful
                # drain must wait for written answers, and a stalled
                # write holds an admission slot until its deadline.
                if admitted:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._drained.set()

    async def _hooked_route(
        self, method: str, path: str, body: bytes, span
    ) -> Tuple[int, Union[Dict, str, bytes]]:
        await self.chaos_hook(method, path)
        answer = self._route(method, path, body, span)
        return answer if isinstance(answer, tuple) else await answer

    def _route(self, method: str, path: str, body: bytes, span):
        """The handler's ``(status, doc)``, or for ``/reloadz`` a
        coroutine of it; routing errors raise :class:`RequestError`."""
        if path not in self._ROUTES:
            raise RequestError(404, "not-found", f"no route for {path}")
        allowed, handler = self._ROUTES[path]
        if method != allowed:
            raise RequestError(405, "method-not-allowed", f"use {allowed} {path}")
        return handler(self, body, span)

    def _handle_livez(self, body=b"", span=None) -> Tuple[int, Dict]:
        # Liveness never looks at the model: a draining or
        # snapshotless server is alive, just not ready.
        return 200, {"live": True, "inflight": self._inflight}

    def _handle_metricsz(self, body=b"", span=None) -> Tuple[int, str]:
        return 200, render_prometheus(
            self.metrics.snapshot(),
            live=self.live.snapshot(),
            slo=[status.to_dict() for status in self.slo.evaluate()],
        )

    def _handle_slozz(self, body=b"", span=None) -> Tuple[int, Dict]:
        statuses = [status.to_dict() for status in self.slo.evaluate()]
        return 200, {
            "overall_state": worst_state([s["state"] for s in statuses]),
            "slos": statuses,
        }

    def _handle_modelz(self, body=b"", span=None) -> Tuple[int, Dict]:
        doc = self.engine.snapshot.describe()
        if self.watcher is not None:
            doc["watch"] = self.watcher.describe()
        return 200, doc

    def _handle_healthz(self, body=b"", span=None) -> Tuple[int, Dict]:
        if not self.ready:
            reason = "draining" if self._closing else "no-snapshot-loaded"
            return 503, {
                "status": "unavailable",
                "ready": False,
                "live": True,
                "reason": reason,
                "inflight": self._inflight,
            }
        return 200, {
            "status": "ok",
            "ready": True,
            "live": True,
            "model_version": self.engine.version,
            "snapshot_age_s": round(self._snapshot_age(), 3),
            "snapshot_loaded_unix": self._loaded_at_unix,
            "inflight": self._inflight,
            "requests_served": self._requests_served,
        }

    def _handle_predict(self, body: bytes, span) -> Tuple[int, bytes]:
        doc = self._parse_body(body)
        sites = doc.get("sites")
        if not isinstance(sites, list) or not all(type(s) is int for s in sites):
            raise RequestError(
                400, "bad-request", '"sites" must be a list of site ids'
            )
        if not sites:
            raise RequestError(
                400, "empty-sites", "an anycast configuration needs at least one site"
            )
        clients = doc.get("clients")
        if clients is not None:
            if not isinstance(clients, list) or not all(type(c) is int for c in clients):
                raise RequestError(
                    400, "bad-request", '"clients" must be a list of client ids'
                )
            if not clients:
                raise RequestError(
                    400, "empty-clients",
                    'omit "clients" for all known clients; an explicit empty '
                    "batch is unanswerable",
                )

        # The engine reference is captured once: a concurrent hot
        # reload never changes the model mid-request.
        engine = self.engine
        try:
            config = AnycastConfig(site_order=tuple(sites))
            batch = engine.predict(config, clients)
        except SnapshotError as exc:
            raise RequestError(400, "unknown-site", str(exc)) from None
        except ReproError as exc:
            raise RequestError(400, "bad-request", str(exc)) from None

        span.set_attribute("batch_size", len(batch))
        span.set_attribute("decided", batch.decided_count)
        self.live.reservoir("serve_batch_size").observe(float(len(batch)))
        if batch.decided_count == 0:
            # All-quarantined/unmapped: structurally a client-data
            # problem (the model cannot answer for these clients), so
            # 422 with the reason census — not a raised ReproError/500.
            raise RequestError(
                422,
                "no-decided-predictions",
                "no client in the batch has a predictable catchment "
                "under this configuration",
                reasons=batch.counts_by_reason(),
                model_version=engine.version,
            )
        return 200, batch.to_json(engine.version)

    async def _handle_reload(self, body=b"", span=None) -> Tuple[int, Dict]:
        try:
            old, new = await self.reload_async()
        except (SnapshotError, OSError) as exc:
            raise RequestError(
                503, "reload-failed",
                f"snapshot reload failed, old model keeps serving: {exc}",
            ) from None
        return 200, {"old_version": old, "model_version": new,
                     "changed": old != new}

    @staticmethod
    def _parse_body(body: bytes) -> Dict:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RequestError(
                400, "bad-json", f"request body is not valid JSON: {exc}"
            ) from None
        if not isinstance(doc, dict):
            raise RequestError(400, "bad-request", "request body must be an object")
        return doc

    #: path -> (the one allowed method, handler(self, body, span)).
    _ROUTES = {
        "/predict": ("POST", _handle_predict),
        "/healthz": ("GET", _handle_healthz),
        "/livez": ("GET", _handle_livez),
        "/metricsz": ("GET", _handle_metricsz),
        "/slozz": ("GET", _handle_slozz),
        "/modelz": ("GET", _handle_modelz),
        "/reloadz": ("POST", _handle_reload),
    }

    async def _send(
        self,
        writer,
        status: int,
        doc: Union[Dict, str, bytes],
        keep_alive: bool,
        retry_after: bool = False,
    ) -> None:
        content_type = "application/json"
        if isinstance(doc, bytes):
            payload = doc  # pre-encoded JSON (the /predict answer)
        elif isinstance(doc, str):
            # Pre-rendered text bodies (the Prometheus exposition).
            payload = doc.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            payload = json.dumps(doc).encode("utf-8")
        retry = ""
        if retry_after:
            retry = (
                f"Retry-After: "
                f"{max(1, math.ceil(self.guard.config.retry_after_s))}\r\n"
            )
        head = (
            f"HTTP/1.1 {status} {_STATUS_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{retry}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        timeout = self.guard.config.write_timeout_s
        if timeout is None or writer.transport.get_write_buffer_size() == 0:
            # Fast path: the response already hit the socket, drain
            # cannot wait and needs no deadline.
            await writer.drain()
            return
        try:
            await self.guard.timed(writer.drain(), timeout, "write")
        except GuardTimeout:
            # A never-reading peer: abort so buffered bytes cannot pin
            # the connection or block graceful drain.
            writer.transport.abort()
            raise


async def run_server(
    snapshot_path: str,
    host: str = "127.0.0.1",
    port: int = 8080,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    ready=None,
    latency_threshold_ms: float = DEFAULT_LATENCY_THRESHOLD_MS,
    max_snapshot_age_s: float = DEFAULT_MAX_SNAPSHOT_AGE_S,
    guard: Optional[GuardConfig] = None,
    watch: Optional[WatchConfig] = None,
) -> ModelServer:
    """Boot a :class:`ModelServer` and serve until cancelled.

    ``ready`` is an optional callback invoked with the server once the
    listener is bound (tests use it to learn the ephemeral port).
    Cancellation triggers a graceful shutdown.
    """
    server = ModelServer(
        snapshot_path, host=host, port=port, metrics=metrics, tracer=tracer,
        slo_specs=default_slo_specs(
            latency_threshold_ms=latency_threshold_ms,
            max_snapshot_age_s=max_snapshot_age_s,
        ),
        guard=guard,
        watch=watch,
    )
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.shutdown()
    return server
