"""Tests for the serving hardening layer: deadlines, admission
control, structured limit errors, bounded shutdown, and the
reload-on-publish watcher.

Everything here attacks a real ``ModelServer`` over real sockets with
tightened guard knobs (sub-second deadlines, tiny caps) so hostile
behaviour resolves in test time; the watcher is driven through
``poll_once`` with an injected fake clock so breaker/backoff
transitions are exact, not slept for.
"""

import asyncio
import contextlib
import json
import os
import socket

import pytest

from repro.serve import (
    GuardConfig,
    ModelServer,
    SnapshotWatcher,
    WatchConfig,
    compile_snapshot,
    write_snapshot,
)
from repro.serve.chaos import compile_variant
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def snapshot_path(anyopt_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("guard") / "model.snap"
    write_snapshot(compile_snapshot(anyopt_model), str(path))
    return str(path)


@pytest.fixture
def pub_path(snapshot_path, tmp_path):
    """A private copy of the snapshot for tests that republish over it."""
    path = tmp_path / "pub.snap"
    path.write_bytes(open(snapshot_path, "rb").read())
    return str(path)


async def _with_server(snapshot_path, scenario, guard=None, watch=None):
    """Run ``scenario(server)`` against a live server.  Anything the
    loop reports to its exception handler (a callback that raised, a
    task or future whose exception nobody retrieved) fails the run."""
    loop_errors = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: loop_errors.append(context)
    )
    server = ModelServer(snapshot_path, port=0, guard=guard, watch=watch)
    await server.start()
    serving = asyncio.ensure_future(server.serve_forever())
    try:
        return await scenario(server)
    finally:
        serving.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serving
        await server.shutdown(grace_s=1.0)
        assert not loop_errors, loop_errors


async def _read_response(reader):
    """(status, headers, payload_bytes), or (None, {}, b"") on EOF."""
    status_line = await reader.readline()
    if not status_line:
        return None, {}, b""
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def _request(port, method, path, doc=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(doc).encode() if doc is not None else b""
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


def _counter(server, name):
    counters = server.metrics.snapshot().get("counters", {})
    return counters.get(name, 0)


class TestGuardConfig:
    def test_rejects_nonpositive_timeouts_and_caps(self):
        with pytest.raises(ConfigurationError):
            GuardConfig(header_timeout_s=-1.0)
        with pytest.raises(ConfigurationError):
            GuardConfig(handler_timeout_s=0)
        with pytest.raises(ConfigurationError):
            GuardConfig(max_inflight=0)
        with pytest.raises(ConfigurationError):
            GuardConfig(max_connections=-5)

    @pytest.mark.parametrize("name", [
        "header_timeout_s", "body_timeout_s", "handler_timeout_s",
        "write_timeout_s", "idle_timeout_s", "retry_after_s",
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_seconds(self, name, bad):
        # NaN would void a deadline; an infinite Retry-After overflows
        # the shed response's ceil.
        with pytest.raises(ConfigurationError):
            GuardConfig(**{name: bad})

    def test_unguarded_disables_every_deadline(self):
        cfg = GuardConfig.unguarded()
        assert cfg.header_timeout_s is None
        assert cfg.handler_timeout_s is None
        assert cfg.write_timeout_s is None
        assert cfg.idle_timeout_s is None
        assert cfg.max_inflight > 10**9


class TestDeadlines:
    def test_slow_loris_header_times_out_408(self, snapshot_path):
        guard = GuardConfig(header_timeout_s=0.2)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # Request line lands; the header section then trickles
            # past the deadline.
            writer.write(b"POST /predict HTTP/1.1\r\nHost: t\r\n")
            await writer.drain()
            status, headers, body = await asyncio.wait_for(
                _read_response(reader), 5.0
            )
            writer.close()
            return status, json.loads(body), server

        status, doc, server = asyncio.run(
            _with_server(snapshot_path, scenario, guard=guard)
        )
        assert status == 408
        assert doc["error"]["code"] == "header-timeout"
        assert _counter(server, "serve_timeout_header") == 1

    def test_idle_keepalive_is_reaped(self, snapshot_path):
        guard = GuardConfig(idle_timeout_s=0.2)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # Say nothing at all: the reaper must close us.
            data = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            return data, server

        data, server = asyncio.run(
            _with_server(snapshot_path, scenario, guard=guard)
        )
        assert data == b""
        assert _counter(server, "serve_idle_reaped") == 1

    def test_active_keepalive_outlives_idle_deadline_then_is_reaped(
        self, snapshot_path
    ):
        guard = GuardConfig(idle_timeout_s=0.2)

        async def scenario(server):
            loop = asyncio.get_running_loop()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # A request every idle_timeout_s / 2 for 3 x idle_timeout_s:
            # each idle wait is short, though the connection is old.
            statuses = []
            ends = loop.time() + 0.6
            while loop.time() < ends:
                writer.write(b"GET /livez HTTP/1.1\r\nHost: t\r\n\r\n")
                statuses.append((await _read_response(reader))[0])
                await asyncio.sleep(0.1)
            reaped_while_active = _counter(server, "serve_idle_reaped")
            # Then silence: the reaper closes the connection.
            data = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            return statuses, reaped_while_active, data, server

        statuses, reaped_while_active, data, server = asyncio.run(
            _with_server(snapshot_path, scenario, guard=guard)
        )
        assert len(statuses) >= 5 and set(statuses) == {200}
        assert reaped_while_active == 0
        assert data == b""
        assert _counter(server, "serve_idle_reaped") == 1

    def test_keepalive_requests_arm_no_timer_each(self, snapshot_path):
        """Steady keep-alive traffic arms no loop timer per request:
        the idle deadline moves later in its slot under the one read
        timer, and a handler that never awaits runs without one."""

        async def scenario(server):
            loop = asyncio.get_running_loop()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            body = json.dumps({"sites": [1]}).encode()
            request = (
                b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )

            async def exchange():
                writer.write(request)
                return (await _read_response(reader))[0]

            assert await exchange() == 200
            armed = []
            call_at = loop.call_at

            def counting_call_at(when, callback, *args, **kwargs):
                armed.append(callback)
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = counting_call_at
            try:
                statuses = [await exchange() for _ in range(200)]
            finally:
                del loop.call_at
            writer.close()
            return statuses, armed

        statuses, armed = asyncio.run(_with_server(snapshot_path, scenario))
        assert statuses == [200] * 200
        assert len(armed) <= 2, f"{len(armed)} timers for 200 requests"

    def test_slow_body_times_out_408(self, snapshot_path):
        guard = GuardConfig(body_timeout_s=0.2)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # The head arrives whole; the body then trickles in a byte
            # at a time, waking the parked read, past the deadline.
            writer.write(
                b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 1000\r\n\r\n{"
            )
            response = asyncio.ensure_future(_read_response(reader))
            for _ in range(100):
                done, _ = await asyncio.wait({response}, timeout=0.05)
                if done:
                    break
                writer.write(b" ")
            status, headers, body = await asyncio.wait_for(response, 5.0)
            rest = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            return status, headers, json.loads(body), rest, server

        status, headers, doc, rest, server = asyncio.run(
            _with_server(snapshot_path, scenario, guard=guard)
        )
        assert status == 408
        assert doc["error"]["code"] == "body-timeout"
        assert headers["connection"] == "close" and rest == b""
        assert _counter(server, "serve_timeout_body") == 1
        assert server.open_connections == 0

    def test_overlong_request_line_answers_400(self, snapshot_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # One 80 KiB "request line" blows the 64 KiB stream limit;
            # before the fix this killed the connection task with an
            # uncaught ValueError.
            writer.write(b"GET /" + b"a" * 80_000 + b" HTTP/1.1\r\n")
            await writer.drain()
            status, _, body = await asyncio.wait_for(_read_response(reader), 5.0)
            writer.close()
            return status, json.loads(body)

        status, doc = asyncio.run(_with_server(snapshot_path, scenario))
        assert status == 400
        assert doc["error"]["code"] == "request-line-too-long"

    def test_oversized_header_line_answers_431(self, snapshot_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"GET /livez HTTP/1.1\r\nX-Bloat: " + b"b" * 80_000 + b"\r\n"
            )
            await writer.drain()
            status, _, body = await asyncio.wait_for(_read_response(reader), 5.0)
            writer.close()
            return status, json.loads(body)

        status, doc = asyncio.run(_with_server(snapshot_path, scenario))
        assert status == 431
        assert doc["error"]["code"] == "header-too-large"

    def test_too_many_headers_answers_431(self, snapshot_path):
        guard = GuardConfig(max_header_count=5)

        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            lines = b"".join(f"X-H{i}: v\r\n".encode() for i in range(10))
            writer.write(b"GET /livez HTTP/1.1\r\n" + lines + b"\r\n")
            await writer.drain()
            status, _, body = await asyncio.wait_for(_read_response(reader), 5.0)
            writer.close()
            return status, json.loads(body)

        status, doc = asyncio.run(
            _with_server(snapshot_path, scenario, guard=guard)
        )
        assert status == 431
        assert doc["error"]["code"] == "too-many-headers"

    def test_torn_body_is_counted_not_crashed(self, snapshot_path):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 100\r\n\r\nhalf"
            )
            await writer.drain()
            writer.write_eof()
            data = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            # Give the connection task a beat to finish its books.
            await asyncio.sleep(0.05)
            return data, server

        data, server = asyncio.run(_with_server(snapshot_path, scenario))
        assert data == b""  # nothing to answer: the upload died
        assert _counter(server, "serve_torn_bodies") == 1
        assert server.open_connections == 0

    def test_stuck_handler_times_out_503(self, snapshot_path):
        guard = GuardConfig(handler_timeout_s=0.2)

        async def scenario(server):
            async def hang(method, path):
                if path == "/predict":
                    await asyncio.sleep(5.0)

            server.chaos_hook = hang
            status, headers, body = await asyncio.wait_for(
                _request(server.port, "POST", "/predict", {"sites": [1]}), 5.0
            )
            return status, headers, json.loads(body), server

        status, headers, doc, server = asyncio.run(
            _with_server(snapshot_path, scenario, guard=guard)
        )
        assert status == 503
        assert doc["error"]["code"] == "handler-timeout"
        assert "retry-after" in headers
        assert _counter(server, "serve_timeout_handler") == 1

    def test_stalled_reader_hits_write_deadline_and_is_aborted(
        self, snapshot_path, anyopt_model
    ):
        guard = GuardConfig(
            write_timeout_s=0.2, write_high_water=1024, so_sndbuf=4096
        )
        # ~1 MB of response: far past the shrunken socket buffers, but
        # cheap enough that the handler answers while the client is
        # still stalling.
        clients = sorted(anyopt_model.predictor.known_clients())
        bloat = clients * max(2, 12_000 // max(1, len(clients)))

        async def scenario(server):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(
                sock, ("127.0.0.1", server.port)
            )
            reader, writer = await asyncio.open_connection(sock=sock)
            body = json.dumps({"sites": [1], "clients": bloat}).encode()
            writer.write(
                b"POST /predict HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            await writer.drain()
            # Never read the (huge) response: the server must abort us
            # at the write deadline instead of blocking forever.
            await asyncio.sleep(1.0)
            writer.close()
            await asyncio.sleep(0.1)
            return server

        server = asyncio.run(_with_server(snapshot_path, scenario, guard=guard))
        assert _counter(server, "serve_timeout_write") >= 1
        assert server.open_connections == 0


class TestAdmission:
    def test_inflight_cap_sheds_429_with_retry_after(self, snapshot_path):
        guard = GuardConfig(max_inflight=1)

        async def scenario(server):
            async def slow(method, path):
                if path == "/predict":
                    await asyncio.sleep(0.4)

            server.chaos_hook = slow
            results = await asyncio.gather(*[
                _request(server.port, "POST", "/predict", {"sites": [1]})
                for _ in range(4)
            ])
            return results, server

        results, server = asyncio.run(
            _with_server(snapshot_path, scenario, guard=guard)
        )
        statuses = sorted(status for status, _, _ in results)
        assert 200 in statuses and 429 in statuses
        shed = next(r for r in results if r[0] == 429)
        assert shed[1]["retry-after"] == "1"
        assert json.loads(shed[2])["error"]["code"] == "shed-inflight"
        assert _counter(server, "serve_shed_requests") == statuses.count(429)

    def test_connection_cap_sheds_503_and_closes(self, snapshot_path):
        guard = GuardConfig(max_connections=1)

        async def scenario(server):
            # Fill the only slot with a registered keep-alive
            # connection, then knock again.
            r1, w1 = await asyncio.open_connection("127.0.0.1", server.port)
            w1.write(b"GET /livez HTTP/1.1\r\nHost: t\r\n\r\n")
            await w1.drain()
            await _read_response(r1)
            status, headers, body = await asyncio.wait_for(
                _request(server.port, "GET", "/livez"), 5.0
            )
            w1.close()
            return status, headers, json.loads(body), server

        status, headers, doc, server = asyncio.run(
            _with_server(snapshot_path, scenario, guard=guard)
        )
        assert status == 503
        assert doc["error"]["code"] == "shed-connection"
        assert "retry-after" in headers
        assert _counter(server, "serve_shed_connections") == 1

    def test_shed_rate_slo_sees_admission_stream(self, snapshot_path):
        guard = GuardConfig(max_inflight=1)

        async def scenario(server):
            async def slow(method, path):
                await asyncio.sleep(0.3)

            server.chaos_hook = slow
            await asyncio.gather(*[
                _request(server.port, "POST", "/predict", {"sites": [1]})
                for _ in range(3)
            ])
            statuses = {s.name: s for s in server.slo.evaluate()}
            return statuses

        statuses = asyncio.run(
            _with_server(snapshot_path, scenario, guard=guard)
        )
        shed = statuses["shed-rate"]
        fast = shed.detail["fast"]
        # Every offered request fed the stream; the shed ones are bad.
        assert fast["good"] + fast["bad"] == 3
        assert fast["bad"] >= 1
        # Request availability is a different stream: sheds are not
        # server faults and must not burn its budget.
        assert statuses["availability"].detail["fast"]["bad"] == 0


class TestShutdown:
    def test_stuck_handler_cannot_block_shutdown(self, snapshot_path):
        async def scenario():
            server = ModelServer(
                snapshot_path, port=0,
                guard=GuardConfig(handler_timeout_s=None),
            )
            await server.start()
            serving = asyncio.ensure_future(server.serve_forever())
            forever = asyncio.Event()

            async def hang(method, path):
                if path == "/predict":
                    await forever.wait()

            server.chaos_hook = hang
            request = asyncio.ensure_future(
                _request(server.port, "POST", "/predict", {"sites": [1]})
            )
            await asyncio.sleep(0.2)  # let the handler get stuck
            assert server._inflight == 1
            await asyncio.wait_for(server.shutdown(grace_s=0.2), 5.0)
            serving.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serving
            with contextlib.suppress(Exception):
                await request
            return server

        server = asyncio.run(scenario())
        assert _counter(server, "serve_drain_forced") == 1
        assert server.open_connections == 0


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _publish(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class TestWatchConfig:
    @pytest.mark.parametrize("name", [
        "poll_interval_s", "debounce_s", "backoff_base_s", "max_backoff_s",
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_seconds(self, name, bad):
        # A NaN poll interval would make asyncio.sleep return at once.
        with pytest.raises(ConfigurationError):
            WatchConfig(**{name: bad})


class TestWatcher:
    def _watcher(self, pub_path, clock, **overrides):
        server = ModelServer(pub_path, port=0)
        server.load()
        config = WatchConfig(
            poll_interval_s=0.05, debounce_s=0.0,
            backoff_base_s=10.0, max_backoff_s=40.0, **overrides,
        )
        return server, SnapshotWatcher(server, config, clock=clock)

    def test_picks_up_atomic_publish(self, pub_path, tmp_path):
        clock = FakeClock()
        server, watcher = self._watcher(pub_path, clock)
        variant_bytes, variant = compile_variant(pub_path, str(tmp_path))

        async def scenario():
            watcher.prime()
            assert await watcher.poll_once() is False  # no change yet
            _publish(pub_path, variant_bytes)
            clock.advance(1.0)
            return await watcher.poll_once()

        assert asyncio.run(scenario()) is True
        assert server.engine.version == variant.version
        assert _counter(server, "serve_watch_reloads") == 1

    def test_identical_republish_skips_the_load(self, pub_path):
        clock = FakeClock()
        server, watcher = self._watcher(pub_path, clock)
        original = open(pub_path, "rb").read()

        async def scenario():
            watcher.prime()
            _publish(pub_path, original)  # same bytes, new inode
            clock.advance(1.0)
            return await watcher.poll_once()

        assert asyncio.run(scenario()) is False
        assert _counter(server, "serve_watch_unchanged") == 1
        assert _counter(server, "serve_watch_reloads") == 0

    def test_breaker_quarantines_corrupt_publish_with_backoff(
        self, pub_path, tmp_path
    ):
        clock = FakeClock()
        server, watcher = self._watcher(pub_path, clock)
        original_version = server.engine.version
        variant_bytes, variant = compile_variant(pub_path, str(tmp_path))

        async def scenario():
            watcher.prime()
            _publish(pub_path, b"definitely not a snapshot")
            clock.advance(1.0)
            assert await watcher.poll_once() is False
            assert watcher.failures == 1
            assert watcher.describe()["breaker_open"] is True
            # Inside the backoff window the quarantined stat is not
            # retried (no new failure).
            clock.advance(5.0)
            assert await watcher.poll_once() is False
            assert watcher.failures == 1
            # Past the backoff it is retried — and fails again, with
            # the backoff doubling.
            clock.advance(10.0)
            assert await watcher.poll_once() is False
            assert watcher.failures == 2
            # A *new* good publish is attempted immediately (normal
            # debounce), recovers, and closes the breaker.
            _publish(pub_path, variant_bytes)
            clock.advance(0.5)
            assert await watcher.poll_once() is True
            return True

        assert asyncio.run(scenario()) is True
        assert watcher.failures == 0
        assert watcher.describe()["breaker_open"] is False
        assert server.engine.version == variant.version != original_version
        assert _counter(server, "serve_watch_failures") == 2
        assert _counter(server, "serve_watch_reloads") == 1

    def test_end_to_end_watch_over_http(self, pub_path, tmp_path):
        """A live server with --watch semantics: publish, wait a few
        poll intervals, and the serving version flips."""
        variant_bytes, variant = compile_variant(pub_path, str(tmp_path))
        watch = WatchConfig(poll_interval_s=0.05, debounce_s=0.0)

        async def scenario(server):
            before = json.loads(
                (await _request(server.port, "GET", "/healthz"))[2]
            )["model_version"]
            _publish(pub_path, variant_bytes)
            for _ in range(100):
                await asyncio.sleep(0.05)
                doc = json.loads(
                    (await _request(server.port, "GET", "/healthz"))[2]
                )
                if doc["model_version"] != before:
                    return before, doc["model_version"]
            return before, before

        before, after = asyncio.run(
            _with_server(pub_path, scenario, watch=watch)
        )
        assert after == variant.version != before
