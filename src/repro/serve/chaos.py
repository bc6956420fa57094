"""Serve-path chaos harness: fault storms against a live server.

``anyopt chaos`` drives a running :class:`~repro.serve.http.ModelServer`
through a seeded storm of hostile clients — slow-loris header
trickles, torn request bodies, never-reading response stallers —
interleaved with honest requests and snapshot publish events (good
*and* corrupt), then asserts the serving invariants:

- **no 500s** — every response is either a success or a *structured*
  4xx/shed; nothing surfaces as an internal error;
- **byte-identical answers** — every 200 ``/predict`` is compared
  against a local reference :class:`LookupEngine` for the model
  version the response reports, so a fault storm can never change an
  answer, only delay or shed it;
- **sheds are accounted** — every client-observed 429 appears in
  ``serve_shed_requests``; the counter may exceed the observation only
  by responses a stalled client never read;
- **old model keeps serving** — readiness probes stay 200 through
  corrupt publishes (the watcher quarantines the bad file, counted in
  ``serve_watch_failures``) and the final good publish is picked up;
- **nothing gets stuck** — no request exceeds the client-side timeout,
  and (self-hosted mode) the server drains to zero open connections
  at shutdown.

Every decision — which request misbehaves, how, which publish is
corrupt — comes from :class:`~repro.runtime.faults.ServeFaultInjector`
keyed by the run seed, so a failing run is reproducible from its
report alone.

Two modes: *self-hosted* (no ``--port``: the harness boots a guarded,
watching server in-process — what the tests and the default CLI use)
and *external* (``--port``: storm an already-running ``anyopt serve
--watch`` on the same snapshot path — what the CI ``chaos-smoke`` job
does; boot the server with guard flags matching the chaos config).
"""

import asyncio
import contextlib
import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import AnycastConfig
from repro.io.atomic import atomic_write
from repro.runtime.faults import ServeFaultInjector
from repro.serve.guard import GuardConfig
from repro.serve.http import ModelServer
from repro.serve.lookup import LookupEngine
from repro.serve.snapshot import (
    Snapshot,
    _finish_header,
    load_snapshot,
    write_snapshot,
)
from repro.serve.watch import WatchConfig
from repro.util.errors import ConfigurationError
from repro.util.rng import derive_rng

#: 5xx codes a hardened server is *allowed* to answer during a storm:
#: deliberate load shedding and deadline enforcement, never a crash.
ALLOWED_5XX_CODES = frozenset(
    {"shed-connection", "handler-timeout", "reload-failed"}
)

#: Requests pipelined per stalled-write event (responses the client
#: will never read; sized to overflow the shrunken write buffers).
STALL_PIPELINE = 3


@dataclass(frozen=True)
class ChaosConfig:
    """Validated knobs for one chaos run."""

    seed: int = 0
    #: Honest/hostile request events in the storm.
    requests: int = 60
    #: Concurrent client workers.
    concurrency: int = 6
    #: Mid-storm snapshot publish events (a final good publish is
    #: always appended so convergence is checkable).
    publishes: int = 4
    request_fault_prob: float = 0.25
    publish_corrupt_prob: float = 0.5
    #: Watcher cadence — the self-hosted server is built with these;
    #: an external server must be booted with matching ``--watch-*``
    #: flags or the publish-settle windows are miscalibrated.
    watch_interval_s: float = 0.25
    watch_debounce_s: float = 0.0
    #: Guard deadlines assumed on the server (self-hosted: enforced).
    header_timeout_s: float = 0.5
    write_timeout_s: float = 0.5
    max_inflight: int = 4
    #: Client-side give-up per request; a hit means a stuck server.
    client_timeout_s: float = 20.0

    def __post_init__(self):
        for name in ("requests", "concurrency", "max_inflight"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"chaos {name} must be >= 1")
        if self.publishes < 0:
            raise ConfigurationError("chaos publishes must be >= 0")
        for name in ("request_fault_prob", "publish_corrupt_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"chaos {name} must be in [0, 1]")
        for name in ("watch_interval_s", "header_timeout_s",
                     "write_timeout_s", "client_timeout_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"chaos {name} must be > 0")
        if self.watch_debounce_s < 0:
            raise ConfigurationError("chaos watch_debounce_s must be >= 0")

    @property
    def publish_settle_s(self) -> float:
        """How long after a publish the watcher has certainly polled
        it (two poll intervals + debounce + margin)."""
        return 2.0 * self.watch_interval_s + self.watch_debounce_s + 0.2

    def guard(self) -> GuardConfig:
        """The self-hosted server's guard: deadlines tight enough that
        hostile clients resolve in test time, buffers small enough
        that a stalled reader actually blocks a drain."""
        return GuardConfig(
            header_timeout_s=self.header_timeout_s,
            body_timeout_s=self.header_timeout_s,
            handler_timeout_s=10.0,
            write_timeout_s=self.write_timeout_s,
            idle_timeout_s=30.0,
            max_connections=64,
            max_inflight=self.max_inflight,
            write_high_water=4096,
            so_sndbuf=4096,
        )

    def watch(self) -> WatchConfig:
        return WatchConfig(
            poll_interval_s=self.watch_interval_s,
            debounce_s=self.watch_debounce_s,
            backoff_base_s=5.0 * self.watch_interval_s,
            max_backoff_s=60.0,
        )


@dataclass
class ChaosInvariant:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> Dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ChaosReport:
    """What happened, what was injected, and whether the server held."""

    seed: int
    requests: int
    duration_s: float = 0.0
    mode: str = "self-hosted"
    faults_injected: Dict[str, int] = field(default_factory=dict)
    publishes: Dict[str, int] = field(default_factory=dict)
    statuses: Dict[str, int] = field(default_factory=dict)
    sheds_observed: int = 0
    answers_checked: int = 0
    mismatches: List[Dict] = field(default_factory=list)
    internal_errors: List[Dict] = field(default_factory=list)
    versions_seen: List[str] = field(default_factory=list)
    expected_final_version: str = ""
    final_version: str = ""
    scraped: Dict[str, float] = field(default_factory=dict)
    stuck_connections: Optional[int] = None
    invariants: List[ChaosInvariant] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(inv.passed for inv in self.invariants)

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "duration_s": round(self.duration_s, 3),
            "mode": self.mode,
            "passed": self.passed,
            "faults_injected": dict(self.faults_injected),
            "publishes": dict(self.publishes),
            "statuses": dict(self.statuses),
            "sheds_observed": self.sheds_observed,
            "answers_checked": self.answers_checked,
            "mismatches": list(self.mismatches),
            "internal_errors": list(self.internal_errors),
            "versions_seen": list(self.versions_seen),
            "expected_final_version": self.expected_final_version,
            "final_version": self.final_version,
            "stuck_connections": self.stuck_connections,
            "scraped": {k: v for k, v in sorted(self.scraped.items())},
            "invariants": [inv.to_dict() for inv in self.invariants],
        }


def compile_variant(snapshot_path: str, workdir: str) -> Tuple[bytes, LookupEngine]:
    """A *valid* snapshot with a genuinely different version: the
    original model with one RTT cell nudged, header recomputed.  Chaos
    publishes it so "the watcher picked up the publish" is observable
    as a version flip, and answers served from it are checkable
    against a reference engine."""
    src = load_snapshot(snapshot_path)
    arrays = {name: np.array(arr) for name, arr in src.arrays.items()}
    rtt = arrays["rtt"]
    finite = np.isfinite(rtt)
    if finite.any():
        idx = tuple(int(a[0]) for a in np.nonzero(finite))
        rtt[idx] = rtt[idx] + 0.25
    header = {
        key: src.header[key]
        for key in ("format", "version", "site_level_mode",
                    "model_fingerprint", "counts")
    }
    _finish_header(header, arrays)
    variant_path = os.path.join(workdir, "variant.snap")
    write_snapshot(Snapshot(header=header, arrays=arrays), variant_path)
    with open(variant_path, "rb") as fh:
        data = fh.read()
    return data, LookupEngine(load_snapshot(variant_path))


def corrupt_bytes(good: bytes, seed, index: int) -> bytes:
    """Seed-chosen corruption of a published snapshot: garbage magic,
    a tampered header digest (checksum mismatch against the payload),
    or a truncation.

    The digest tamper deliberately keeps the header *parseable*: the
    watcher's cheap header pre-check passes, the full checksummed load
    is what catches it — the exact failure a bit-flipped publish
    produces in production.  (Flipping a payload byte instead would
    leave the stored digest equal to the serving version, which the
    watcher correctly treats as an identical republish and skips.)
    """
    rng = derive_rng(seed, "serve-fault", "corrupt", index)
    mode = rng.randrange(3)
    if mode == 0:
        return bytes(rng.randrange(256) for _ in range(512))
    if mode == 1:
        flipped = bytearray(good)
        marker = good.find(b'"payload_sha256"')
        if marker >= 0:
            quote = good.find(b'"', marker + len(b'"payload_sha256"') + 1)
            pos = quote + 1
            flipped[pos] = ord("0") if flipped[pos] != ord("0") else ord("f")
        else:  # pragma: no cover - every snapshot header has the key
            flipped[-1] ^= 0xFF
        return bytes(flipped)
    return good[: max(16, len(good) // 3)]


def scrape_counters(text: str) -> Dict[str, float]:
    """Parse an ``/metricsz`` exposition into ``{name: value}``."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return values


class ChaosHarness:
    """One chaos run against one server."""

    def __init__(
        self,
        snapshot_path: str,
        config: ChaosConfig,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
    ):
        self.snapshot_path = snapshot_path
        self.config = config
        self.host = host
        self.port = port
        self.external = port is not None
        self.injector = ServeFaultInjector(
            config.seed,
            request_fault_prob=config.request_fault_prob,
            publish_corrupt_prob=config.publish_corrupt_prob,
        )
        self.report = ChaosReport(
            seed=config.seed,
            requests=config.requests,
            mode="external" if self.external else "self-hosted",
        )
        self.server: Optional[ModelServer] = None
        self._serve_task: Optional[asyncio.Task] = None
        self._workdir: Optional[tempfile.TemporaryDirectory] = None
        self.engines: Dict[str, LookupEngine] = {}
        self.request_sites: Dict[int, Tuple[int, ...]] = {}
        self._completed = 0
        self._ready_failures: List[str] = []
        self._ready_probes = 0
        self._stalled_events = 0
        self.metricsz_text = ""

    # -- setup -----------------------------------------------------------------

    def _prepare(self) -> None:
        self._workdir = tempfile.TemporaryDirectory(prefix="anyopt-chaos-")
        with open(self.snapshot_path, "rb") as fh:
            self.original_bytes = fh.read()
        original = LookupEngine(load_snapshot(self.snapshot_path))
        self.variant_bytes, variant = compile_variant(
            self.snapshot_path, self._workdir.name
        )
        self.engines = {original.version: original, variant.version: variant}
        self.original_version = original.version
        self.variant_version = variant.version
        # ~1 MB of response for stalled-write requests: far past any
        # plausible loopback socket buffering.
        clients = list(original.client_ids())
        repeat = max(2, 12000 // max(1, len(clients)))
        self._stall_clients = clients * repeat
        # Seeded per-request site subsets over the snapshot's sites.
        sites = list(original.site_ids())
        for r in range(self.config.requests):
            rng = derive_rng(self.config.seed, "chaos-config", r)
            size = rng.randint(1, min(4, len(sites)))
            self.request_sites[r] = tuple(rng.sample(sites, size))

    # -- low-level HTTP --------------------------------------------------------

    async def _connect(self, rcvbuf: Optional[int] = None):
        if rcvbuf is None:
            return await asyncio.open_connection(self.host, self.port)
        # A deliberately tiny receive window: the stalled-write client
        # must be able to make the server's send buffers fill up.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, (self.host, self.port))
        return await asyncio.open_connection(sock=sock)

    def _request_parts(self, r: int, stall: bool = False) -> Tuple[bytes, bytes, bytes]:
        doc = {"sites": list(self.request_sites[r])}
        if stall:
            # A stalled client asks for a deliberately huge batch
            # (every client, repeated) so the response cannot fit in
            # kernel socket buffers: the server's drain *must* block
            # and its write deadline must fire.
            doc["clients"] = self._stall_clients
        body = json.dumps(doc).encode()
        request_line = b"POST /predict HTTP/1.1\r\n"
        headers = (
            f"Host: chaos\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        return request_line, headers, body

    @staticmethod
    async def _read_response(reader) -> Tuple[int, Dict[str, str], bytes]:
        status_line = await reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return status, headers, body

    @staticmethod
    def _close(conn) -> None:
        if conn is not None:
            _, writer = conn
            with contextlib.suppress(Exception):
                writer.close()

    async def _get(self, path: str) -> Tuple[int, bytes]:
        reader, writer = await self._connect()
        try:
            writer.write(
                f"GET {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n"
                .encode()
            )
            await writer.drain()
            status, _, body = await self._read_response(reader)
            return status, body
        finally:
            self._close((reader, writer))

    # -- the storm -------------------------------------------------------------

    def _count_status(self, key: str) -> None:
        self.report.statuses[key] = self.report.statuses.get(key, 0) + 1

    def _record_response(self, r: int, status: int, body: bytes) -> None:
        self._count_status(str(status))
        if status == 200:
            self._check_identity(r, body)
        elif status == 429:
            self.report.sheds_observed += 1
        if status >= 500:
            code = None
            with contextlib.suppress(Exception):
                code = json.loads(body)["error"]["code"]
            if status == 500 or code not in ALLOWED_5XX_CODES:
                self.report.internal_errors.append(
                    {"request": r, "status": status, "code": code}
                )

    def _check_identity(self, r: int, body: bytes) -> None:
        version = json.loads(body).get("model_version")
        if version not in self.report.versions_seen:
            self.report.versions_seen.append(version)
        ref = self.engines.get(version)
        if ref is None:
            self.report.mismatches.append(
                {"request": r, "kind": "unknown-version", "version": version}
            )
            return
        expected = ref.predict(
            AnycastConfig(site_order=self.request_sites[r]), None
        ).to_json(version)
        self.report.answers_checked += 1
        if body != expected:
            self.report.mismatches.append(
                {"request": r, "kind": "answer-mismatch", "version": version,
                 "sites": list(self.request_sites[r])}
            )

    async def _do_request(self, conn, r: int, fault: Optional[str]):
        """One request event; returns the (possibly replaced) keep-alive
        connection, or None when it was consumed/closed."""
        cfg = self.config
        try:
            if fault == "stalled-write":
                # Pipeline several full-batch requests on a tiny-window
                # connection and never read: the server must bound the
                # blocked drains and abort, not hang shutdown later.
                self._stalled_events += 1
                stall_conn = await self._connect(rcvbuf=2048)
                _, writer = stall_conn
                line, headers, body = self._request_parts(r, stall=True)
                writer.write((line + headers + body) * STALL_PIPELINE)
                with contextlib.suppress(Exception):
                    await writer.drain()
                await asyncio.sleep(cfg.write_timeout_s * 2 + 0.3)
                self._close(stall_conn)
                self._count_status("stalled")
                return conn
            if conn is None:
                conn = await self._connect()
            reader, writer = conn
            line, headers, body = self._request_parts(r)
            if fault == "slow-read":
                # Trickle the header section.  A seeded coin decides
                # whether the pause blows the server's header deadline
                # (expect 408) or stays polite (expect 200).
                hostile = self.injector.jitter("slow-hostile", r, 0.0, 1.0) < 0.5
                pause = cfg.header_timeout_s * (2.0 if hostile else 0.05)
                writer.write(line + b"Host: chaos\r\n")
                await writer.drain()
                await asyncio.sleep(pause)
                writer.write(
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                )
                await writer.drain()
            elif fault == "torn-body":
                # Declare the full body, ship half, half-close.
                writer.write(line + headers + body[: len(body) // 2])
                await writer.drain()
                with contextlib.suppress(OSError):
                    writer.write_eof()
            else:
                writer.write(line + headers + body)
                await writer.drain()
            status, resp_headers, resp_body = await self._read_response(reader)
            self._record_response(r, status, resp_body)
            if resp_headers.get("connection") != "keep-alive":
                self._close(conn)
                return None
            return conn
        except (ConnectionError, asyncio.IncompleteReadError, OSError, EOFError):
            # The server ended the connection — the expected outcome
            # for torn bodies and hostile trickles.
            self._count_status("closed")
            self._close(conn)
            return None

    async def _worker(self, queue: "asyncio.Queue") -> None:
        conn = None
        try:
            while True:
                try:
                    r = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                fault = self.injector.request_fault(r)
                key = fault or "none"
                self.report.faults_injected[key] = (
                    self.report.faults_injected.get(key, 0) + 1
                )
                try:
                    conn = await asyncio.wait_for(
                        self._do_request(conn, r, fault),
                        self.config.client_timeout_s,
                    )
                except asyncio.TimeoutError:
                    self._count_status("client-timeout")
                    self._close(conn)
                    conn = None
                self._completed += 1
        finally:
            self._close(conn)

    async def _probe_ready(self) -> None:
        """Poll /healthz through the storm: the old model must keep
        serving through every corrupt publish."""
        while self._completed < self.config.requests:
            await asyncio.sleep(0.3)
            try:
                status, body = await asyncio.wait_for(self._get("/healthz"), 5.0)
            except (asyncio.TimeoutError, OSError,
                    asyncio.IncompleteReadError, ConnectionError):
                self._ready_failures.append("probe-failed")
                continue
            self._ready_probes += 1
            if status == 429:
                continue  # the probe itself was shed; not a flip
            if status != 200:
                self._ready_failures.append(f"status-{status}")

    async def _publisher(self) -> None:
        cfg = self.config
        good_cycle = [self.variant_bytes, self.original_bytes]
        good_versions = [self.variant_version, self.original_version]
        good_i = 0
        self.report.expected_final_version = self.original_version
        for p in range(cfg.publishes):
            threshold = (p + 1) * cfg.requests // (cfg.publishes + 1)
            while self._completed < threshold:
                await asyncio.sleep(0.05)
            if self.injector.publish_corrupt(p):
                atomic_write(
                    self.snapshot_path,
                    corrupt_bytes(self.original_bytes, cfg.seed, p),
                )
                self.report.publishes["corrupt"] = (
                    self.report.publishes.get("corrupt", 0) + 1
                )
            else:
                atomic_write(self.snapshot_path, good_cycle[good_i % 2])
                self.report.expected_final_version = good_versions[good_i % 2]
                good_i += 1
                self.report.publishes["good"] = (
                    self.report.publishes.get("good", 0) + 1
                )
            await asyncio.sleep(cfg.publish_settle_s)
        # Always end on a good publish so convergence is checkable —
        # and restore determinism for whoever owns the file next.
        atomic_write(self.snapshot_path, good_cycle[good_i % 2])
        self.report.expected_final_version = good_versions[good_i % 2]
        self.report.publishes["good"] = self.report.publishes.get("good", 0) + 1

    async def _await_convergence(self) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 40 * self.config.watch_interval_s + 5.0
        while True:
            with contextlib.suppress(Exception):
                status, body = await self._get("/healthz")
                if status == 200:
                    version = json.loads(body).get("model_version", "")
                    self.report.final_version = version
                    if version == self.report.expected_final_version:
                        return
            if loop.time() > deadline:
                return
            await asyncio.sleep(self.config.watch_interval_s / 2)

    # -- orchestration ---------------------------------------------------------

    async def run(self) -> ChaosReport:
        started = time.monotonic()
        self._prepare()
        try:
            if not self.external:
                self.server = ModelServer(
                    self.snapshot_path, host=self.host, port=0,
                    guard=self.config.guard(), watch=self.config.watch(),
                )
                await self.server.start()
                self.port = self.server.port
                self._serve_task = asyncio.ensure_future(
                    self.server.serve_forever()
                )
            queue: asyncio.Queue = asyncio.Queue()
            for r in range(self.config.requests):
                queue.put_nowait(r)
            tasks = [
                asyncio.ensure_future(self._worker(queue))
                for _ in range(self.config.concurrency)
            ]
            probe = asyncio.ensure_future(self._probe_ready())
            publisher = asyncio.ensure_future(self._publisher())
            await asyncio.gather(*tasks)
            await publisher
            probe.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await probe
            await self._await_convergence()
            with contextlib.suppress(Exception):
                status, body = await self._get("/metricsz")
                if status == 200:
                    self.metricsz_text = body.decode("utf-8")
                    self.report.scraped = {
                        name: value
                        for name, value in scrape_counters(self.metricsz_text).items()
                        if name.startswith("anyopt_serve")
                    }
            if not self.external:
                self._serve_task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await self._serve_task
                await self.server.shutdown(grace_s=2.0)
                self.report.stuck_connections = self.server.open_connections
        finally:
            # Leave the path exactly as found: later runs (and the
            # serving process, post-run) see the original snapshot.
            atomic_write(self.snapshot_path, self.original_bytes)
            if self._workdir is not None:
                self._workdir.cleanup()
        self.report.duration_s = time.monotonic() - started
        self._evaluate()
        return self.report

    def _evaluate(self) -> None:
        rep = self.report
        inv = rep.invariants

        inv.append(ChaosInvariant(
            "no-500s", not rep.internal_errors,
            f"{len(rep.internal_errors)} unexpected 5xx "
            f"across {sum(rep.statuses.values())} events",
        ))
        inv.append(ChaosInvariant(
            "byte-identical-answers", not rep.mismatches,
            f"{rep.answers_checked} answers checked against "
            f"{len(self.engines)} reference engines, "
            f"{len(rep.mismatches)} mismatches",
        ))
        scraped_sheds = rep.scraped.get("anyopt_serve_shed_requests_total", 0.0)
        unread_cap = self._stalled_events * STALL_PIPELINE
        inv.append(ChaosInvariant(
            "sheds-accounted",
            rep.sheds_observed <= scraped_sheds
            <= rep.sheds_observed + unread_cap,
            f"observed {rep.sheds_observed} 429s, counter {scraped_sheds:g}, "
            f"<= {unread_cap} unread stalled responses",
        ))
        inv.append(ChaosInvariant(
            "ready-throughout", not self._ready_failures,
            f"{self._ready_probes} readiness probes, "
            f"failures: {self._ready_failures[:5]}",
        ))
        inv.append(ChaosInvariant(
            "no-client-timeouts", rep.statuses.get("client-timeout", 0) == 0,
            f"{rep.statuses.get('client-timeout', 0)} requests exceeded the "
            f"{self.config.client_timeout_s:g}s client deadline",
        ))
        # A final good publish is always appended, so convergence is
        # always checkable.
        reloads = rep.scraped.get("anyopt_serve_watch_reloads_total", 0.0)
        inv.append(ChaosInvariant(
            "watcher-converged",
            rep.final_version == rep.expected_final_version and reloads >= 1,
            f"final version {rep.final_version or '?'} vs expected "
            f"{rep.expected_final_version}, {reloads:g} watch reloads",
        ))
        if rep.publishes.get("corrupt", 0) > 0:
            failures = rep.scraped.get("anyopt_serve_watch_failures_total", 0.0)
            inv.append(ChaosInvariant(
                "corrupt-publish-quarantined", failures >= 1,
                f"{rep.publishes['corrupt']} corrupt publishes, "
                f"{failures:g} watch failures counted",
            ))
        if rep.stuck_connections is not None:
            inv.append(ChaosInvariant(
                "no-stuck-connections", rep.stuck_connections == 0,
                f"{rep.stuck_connections} connections still open after "
                "shutdown",
            ))


async def run_chaos_async(
    snapshot_path: str,
    config: Optional[ChaosConfig] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
) -> ChaosReport:
    """Run one chaos storm; self-hosted when ``port`` is None."""
    harness = ChaosHarness(
        snapshot_path, config if config is not None else ChaosConfig(),
        host=host, port=port,
    )
    report = await harness.run()
    report.metricsz_text = harness.metricsz_text  # type: ignore[attr-defined]
    return report


def run_chaos(
    snapshot_path: str,
    config: Optional[ChaosConfig] = None,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
) -> ChaosReport:
    """Synchronous wrapper around :func:`run_chaos_async`."""
    return asyncio.run(
        run_chaos_async(snapshot_path, config, host=host, port=port)
    )
