"""Tests for the serving layer: snapshots, vectorized lookup, HTTP.

The headline guarantee is *byte-identity*: a snapshot compiled from a
model and queried through the vectorized :class:`LookupEngine` must
produce exactly the predictions the live ``CatchmentPredictor``
produces — same sites, same floats, same reasons — across a seeded
configuration sweep and in both site-level discovery modes.
"""

import asyncio
import itertools
import json
import random
from unittest import mock

import pytest

from repro.core import twolevel
from repro.core.config import AnycastConfig
from repro.core.prediction import CatchmentPredictor
from repro.core.preferences import tournament
from repro.core.twolevel import SiteLevelMode, TwoLevelModel, two_level_ranking
from repro.io.serialization import model_from_dict, model_to_dict
from repro.serve import (
    LookupEngine,
    ModelServer,
    SnapshotError,
    compile_snapshot,
    load_snapshot,
    read_header,
    write_snapshot,
)
from repro.util.errors import ConfigurationError

SEED = 7


@pytest.fixture(scope="module")
def snapshot_path(anyopt_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "model.snap"
    write_snapshot(compile_snapshot(anyopt_model), str(path))
    return str(path)


@pytest.fixture(scope="module")
def engine(snapshot_path):
    return LookupEngine(load_snapshot(snapshot_path))


def seeded_config_sweep(testbed, sizes=(1, 2, 3, 5), per_size=4):
    sites = sorted(testbed.site_ids())
    rng = random.Random(SEED)
    configs = []
    for size in sizes:
        for _ in range(per_size):
            configs.append(
                AnycastConfig(tuple(rng.sample(sites, min(size, len(sites)))))
            )
    configs.append(AnycastConfig(tuple(sites)))
    return configs


class TestSnapshotRoundTrip:
    def test_byte_identical_predictions(self, anyopt_model, engine, testbed):
        """The acceptance criterion: snapshot-backed lookups equal the
        live predictor exactly, over a seeded config sweep."""
        predictor = anyopt_model.predictor
        clients = sorted(predictor.known_clients())
        for config in seeded_config_sweep(testbed):
            live = predictor.predict(config, clients)
            fast = engine.predict(config, clients)
            assert live.predictions == fast.predictions

    def test_byte_identical_in_rtt_heuristic_mode(
        self, anyopt_model, testbed, tmp_path
    ):
        """Parity holds for the S4.3 RTT-heuristic site level too."""
        heuristic = model_from_dict(model_to_dict(anyopt_model), testbed)
        heuristic.twolevel = TwoLevelModel(
            testbed=testbed,
            provider_matrix=heuristic.twolevel.provider_matrix,
            site_matrices={},
            rtt_matrix=heuristic.rtt_matrix,
            site_level_mode=SiteLevelMode.RTT_HEURISTIC,
        )
        heuristic.predictor = CatchmentPredictor(
            heuristic.twolevel, heuristic.rtt_matrix
        )
        path = tmp_path / "heuristic.snap"
        write_snapshot(compile_snapshot(heuristic), str(path))
        engine = LookupEngine(load_snapshot(str(path)))
        clients = sorted(heuristic.predictor.known_clients())
        for config in seeded_config_sweep(testbed, sizes=(2, 4), per_size=3):
            live = heuristic.predictor.predict(config, clients)
            fast = engine.predict(config, clients)
            assert live.predictions == fast.predictions

    def test_default_batch_covers_every_known_client(self, anyopt_model, engine):
        config = AnycastConfig(site_order=(1, 4, 6))
        batch = engine.predict(config)
        assert {p.client_id for p in batch} == set(
            anyopt_model.predictor.known_clients()
        )

    def test_snapshot_write_is_deterministic(self, anyopt_model, tmp_path):
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        write_snapshot(compile_snapshot(anyopt_model), str(a))
        write_snapshot(compile_snapshot(anyopt_model), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_header_readable_without_payload(self, snapshot_path):
        header = read_header(snapshot_path)
        assert header["format"] == "anyopt-snapshot"
        assert header["counts"]["sites"] > 0
        assert set(header["arrays"]) >= {"clients", "prov_w", "site_w", "rtt"}

    def test_mmap_arrays_are_readonly_views(self, snapshot_path):
        snapshot = load_snapshot(snapshot_path)
        with pytest.raises(ValueError):
            snapshot.arrays["rtt"][0, 0] = 1.0


class TestSnapshotCorruption:
    def test_flipped_payload_byte_fails_checksum(self, snapshot_path, tmp_path):
        raw = bytearray(open(snapshot_path, "rb").read())
        raw[-1] ^= 0xFF
        bad = tmp_path / "corrupt.snap"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(str(bad))

    def test_truncated_payload(self, snapshot_path, tmp_path):
        raw = open(snapshot_path, "rb").read()
        bad = tmp_path / "truncated.snap"
        bad.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(str(bad))

    def test_bad_magic(self, tmp_path):
        bad = tmp_path / "not-a-snapshot"
        bad.write_bytes(b"GARBAGE!" * 16)
        with pytest.raises(SnapshotError, match="magic"):
            read_header(str(bad))

    def test_version_skew(self, snapshot_path, tmp_path):
        header = dict(read_header(snapshot_path))
        header["version"] = 999
        header_bytes = json.dumps(header, sort_keys=True).encode()
        bad = tmp_path / "future.snap"
        bad.write_bytes(
            b"ANYOPTSS" + len(header_bytes).to_bytes(8, "little") + header_bytes
        )
        with pytest.raises(SnapshotError, match="version"):
            read_header(str(bad))

    def test_unverified_load_skips_checksum(self, snapshot_path):
        assert load_snapshot(snapshot_path, verify=False).counts["sites"] > 0


class TestLookupEngineValidation:
    def test_unknown_site_raises(self, engine):
        with pytest.raises(SnapshotError, match="not in this snapshot"):
            engine.predict_arrays((999999,))

    def test_empty_order_raises(self, engine):
        with pytest.raises(ConfigurationError):
            engine.predict_arrays(())

    def test_unknown_client_is_unmapped(self, engine):
        config = AnycastConfig(site_order=(1,))
        prediction = engine.predict(config, [10**9])[0]
        assert not prediction.decided
        assert prediction.reason == "unmapped"


class TestLookupMemos:
    """Both of an engine's memos drop their least recently used entry
    when full, so what every query shares stays resident."""

    def test_site_tournaments_survive_provider_churn(self, engine, testbed):
        """80 distinct provider orders over the same member sets — more
        than the tournament memo holds — rank each site tournament once,
        over one row per distinct row of winner codes, and answer what a
        memo-free ranking over every client answers."""
        fresh = LookupEngine(engine.snapshot)
        providers = testbed.provider_asns()
        groups = [testbed.sites_of_provider(p) for p in providers]
        orders = [
            tuple(site for sites in perm for site in sites)
            for perm in itertools.islice(itertools.permutations(groups), 80)
        ]
        calls = []

        def counted(codes, members):
            calls.append((codes.shape[1] == len(providers), len(codes)))
            return tournament(codes, members)

        with mock.patch.object(twolevel, "tournament", counted):
            answers = [fresh.predict_arrays(order) for order in orders]
        kinds = [is_provider for is_provider, _ in calls]
        assert kinds.count(True) == len(orders)
        assert kinds.count(False) == sum(len(sites) > 1 for sites in groups)
        codes = zip(engine.snapshot.arrays["prov_w"], engine.snapshot.arrays["site_w"])
        distinct = {(p.tobytes(), s.tobytes()) for p, s in codes}
        assert {rows for _, rows in calls} == {len(distinct)} and len(distinct) < len(fresh.client_ids())
        arrays, index = fresh.snapshot.arrays, fresh.site_ids().index
        for order, (heads, rtt) in zip(orders[::10], answers[::10]):
            expected = two_level_ranking(arrays, [index(s) for s in order], False)
            expected_heads, expected_rtt = expected.answers(arrays["rtt"])
            assert heads.tobytes() == expected_heads.tobytes()
            assert rtt.tobytes() == expected_rtt.tobytes()

    def test_hot_configuration_survives_a_sweep(self, engine, testbed):
        """A configuration asked between each of 200 distinct others —
        more than the answer memo holds — runs the kernel once."""
        fresh = LookupEngine(engine.snapshot)
        sites = sorted(testbed.site_ids())
        hot = AnycastConfig(tuple(sites[:3]))
        sweep = itertools.islice(itertools.permutations(sites, 3), 1, 201)
        with mock.patch.object(fresh, "predict_arrays", wraps=fresh.predict_arrays) as kernel:
            for order in sweep:
                hot_body = fresh.predict(hot).to_json("v")
                fresh.predict(AnycastConfig(order))
        assert kernel.call_count == 1 + 200
        assert hot_body == LookupEngine(engine.snapshot).predict(hot).to_json("v")


# -- HTTP front end ---------------------------------------------------------


async def _http(port, method, path, doc=None, reader_writer=None):
    """One request over a new (or supplied keep-alive) connection."""
    if reader_writer is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        own = True
    else:
        reader, writer = reader_writer
        own = False
    body = json.dumps(doc).encode() if doc is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    payload = json.loads(await reader.readexactly(length))
    if own:
        writer.close()
    return status, payload


async def _with_server(snapshot_path, scenario):
    server = ModelServer(snapshot_path, port=0)
    await server.start()
    serving = asyncio.ensure_future(server.serve_forever())
    try:
        return await scenario(server)
    finally:
        serving.cancel()
        try:
            await serving
        except asyncio.CancelledError:
            pass
        await server.shutdown()


class TestHttp:
    def test_predict_matches_engine(self, snapshot_path, engine, anyopt_model):
        clients = sorted(anyopt_model.predictor.known_clients())[:50]

        async def scenario(server):
            return await _http(
                server.port, "POST", "/predict",
                {"sites": [1, 4, 6], "clients": clients},
            )

        status, doc = asyncio.run(_with_server(snapshot_path, scenario))
        assert status == 200
        expected = engine.predict(AnycastConfig((1, 4, 6)), clients)
        assert doc["predictions"] == [p.to_dict() for p in expected]
        assert doc["summary"]["decided"] == expected.decided_count
        assert doc["model_version"] == engine.version

    def test_structured_4xx_never_500(self, snapshot_path):
        cases = [
            ("POST", "/predict", None, b"{not json", 400, "bad-json"),
            ("POST", "/predict", {"sites": "nope"}, None, 400, "bad-request"),
            ("POST", "/predict", {"sites": []}, None, 400, "empty-sites"),
            ("POST", "/predict", {"sites": [999999]}, None, 400, "unknown-site"),
            ("POST", "/predict", {"sites": [1, 1]}, None, 400, "bad-request"),
            ("POST", "/predict", {"sites": [1], "clients": []}, None, 400,
             "empty-clients"),
            ("POST", "/predict", {"sites": [1], "clients": ["x"]}, None, 400,
             "bad-request"),
            ("POST", "/predict", {"sites": [1], "clients": [10**9]}, None, 422,
             "no-decided-predictions"),
            ("GET", "/nowhere", None, None, 404, "not-found"),
            ("PUT", "/predict", {}, None, 405, "method-not-allowed"),
        ]

        async def scenario(server):
            results = []
            for method, path, doc, raw, *_ in cases:
                if raw is not None:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(
                        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                        f"Content-Length: {len(raw)}\r\n\r\n".encode() + raw
                    )
                    await writer.drain()
                    status_line = await reader.readline()
                    status = int(status_line.split()[1])
                    length = 0
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n"):
                            break
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    body = json.loads(await reader.readexactly(length))
                    writer.close()
                    results.append((status, body))
                else:
                    results.append(await _http(server.port, method, path, doc))
            return results

        results = asyncio.run(_with_server(snapshot_path, scenario))
        for case, (status, body) in zip(cases, results):
            assert status == case[4], (case, body)
            assert body["error"]["code"] == case[5]
            assert body["error"]["status"] == case[4]

    @pytest.mark.parametrize("doc", [
        {"sites": [True, 3]},
        {"sites": [1, 4, 6], "clients": [True]},
    ], ids=["sites", "clients"])
    def test_json_booleans_are_not_ids(self, snapshot_path, doc):
        """``true`` is a Python ``int``; an id list holding it is a bad
        request, not site or client 1."""

        async def scenario(server):
            return await _http(server.port, "POST", "/predict", doc)

        status, body = asyncio.run(_with_server(snapshot_path, scenario))
        assert status == 400
        assert body["error"]["code"] == "bad-request"

    def test_wrong_method_and_unknown_path_documents(self, snapshot_path):
        """The 405 / 404 bodies, pinned byte for byte from the commit
        before routing became a table."""
        routes = {
            "/predict": "POST", "/healthz": "GET", "/livez": "GET", "/metricsz": "GET",
            "/slozz": "GET", "/modelz": "GET", "/reloadz": "POST",
        }

        async def scenario(server):
            answers = {}
            for path, allowed in routes.items():
                wrong = "GET" if allowed == "POST" else "POST"
                answers[path] = await _http(server.port, wrong, path, {})
            answers["/nowhere"] = await _http(server.port, "GET", "/nowhere?x=1")
            return answers

        answers = asyncio.run(_with_server(snapshot_path, scenario))
        for path, allowed in routes.items():
            status, doc = answers[path]
            assert status == 405
            assert json.dumps(doc) == (
                '{"error": {"status": 405, "code": "method-not-allowed", '
                f'"message": "use {allowed} {path}"}}}}'
            )
        assert answers["/nowhere"][0] == 404
        assert json.dumps(answers["/nowhere"][1]) == (
            '{"error": {"status": 404, "code": "not-found", '
            '"message": "no route for /nowhere"}}'
        )

    def test_request_spans_are_a_bounded_ring(self, snapshot_path):
        """An always-on server keeps the last REQUEST_TRACE_RECORDS
        request spans, not one per request for ever."""
        from repro.serve.http import REQUEST_TRACE_RECORDS

        async def scenario(server):
            connection = await asyncio.open_connection("127.0.0.1", server.port)
            for _ in range(200):
                await _http(server.port, "GET", "/livez", reader_writer=connection)
            sequences = dict(server.tracer._sequences)
            for _ in range(4800):
                await _http(server.port, "GET", "/livez", reader_writer=connection)
            connection[1].close()
            return server.tracer, sequences

        tracer, sequences = asyncio.run(_with_server(snapshot_path, scenario))
        assert tracer.max_records == REQUEST_TRACE_RECORDS < 5000
        assert tracer.finished_count == REQUEST_TRACE_RECORDS
        assert tracer._sequences == sequences
        assert {r["span_id"] for r in tracer.records()} == {
            f"req:{seq}" for seq in range(5001 - REQUEST_TRACE_RECORDS, 5001)
        }

    def test_healthz_and_modelz(self, snapshot_path, engine):
        async def scenario(server):
            health = await _http(server.port, "GET", "/healthz")
            model = await _http(server.port, "GET", "/modelz")
            return health, model

        (hs, health), (ms, model) = asyncio.run(
            _with_server(snapshot_path, scenario)
        )
        assert hs == ms == 200
        assert health["status"] == "ok"
        assert health["model_version"] == engine.version
        assert model["snapshot_version"] == engine.version
        assert model["counts"]["sites"] > 0

    def test_hot_reload_under_concurrent_requests(
        self, snapshot_path, anyopt_model, testbed, tmp_path
    ):
        """The acceptance criterion: a reload mid-burst drops nothing —
        every in-flight request completes with a 200 answered by a
        consistent model version."""
        # A *different* model version to swap in: same testbed, one
        # perturbed RTT sample.
        modified = model_from_dict(model_to_dict(anyopt_model), testbed)
        key = sorted(modified.rtt_matrix.values)[0]
        modified.rtt_matrix.values[key] += 0.5
        live_path = tmp_path / "live.snap"
        live_path.write_bytes(open(snapshot_path, "rb").read())
        old_version = LookupEngine(load_snapshot(str(live_path))).version

        async def client_burst(port, n_requests, results):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for _ in range(n_requests):
                status, doc = await _http(
                    port, "POST", "/predict",
                    {"sites": [1, 4, 6]}, reader_writer=(reader, writer),
                )
                results.append((status, doc["model_version"]))
            writer.close()

        async def scenario(server):
            results = []
            burst = [
                asyncio.ensure_future(client_burst(server.port, 12, results))
                for _ in range(6)
            ]
            await asyncio.sleep(0.05)  # burst in flight
            # Atomic publish + reload, exactly as audit/repair would.
            write_snapshot(compile_snapshot(modified), str(live_path))
            status, doc = await _http(server.port, "POST", "/reloadz")
            await asyncio.gather(*burst)
            health_status, health = await _http(server.port, "GET", "/healthz")
            return results, (status, doc), (health_status, health)

        results, (reload_status, reload_doc), (_, health) = asyncio.run(
            _with_server(str(live_path), scenario)
        )
        assert reload_status == 200 and reload_doc["changed"]
        new_version = reload_doc["model_version"]
        assert new_version != old_version
        # No dropped or failed in-flight request, before or after swap.
        assert len(results) == 6 * 12
        assert all(status == 200 for status, _ in results)
        versions = {version for _, version in results}
        assert versions <= {old_version, new_version}
        assert health["model_version"] == new_version

    def test_graceful_shutdown_drains_inflight(self, snapshot_path):
        async def scenario():
            server = ModelServer(snapshot_path, port=0)
            await server.start()
            serving = asyncio.ensure_future(server.serve_forever())
            request = asyncio.ensure_future(
                _http(server.port, "POST", "/predict", {"sites": [1, 4, 6]})
            )
            await asyncio.sleep(0.02)
            serving.cancel()
            try:
                await serving
            except asyncio.CancelledError:
                pass
            await server.shutdown()
            return await request

        status, doc = asyncio.run(scenario())
        assert status == 200
        assert doc["summary"]["clients"] > 0


async def _http_text(port, path):
    """GET a text endpoint; returns (status, content_type, body_str)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n".encode()
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    content_type = ""
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
        elif line.lower().startswith(b"content-type:"):
            content_type = line.split(b":", 1)[1].strip().decode()
    body = (await reader.readexactly(length)).decode()
    writer.close()
    return status, content_type, body


class TestLiveEndpoints:
    def test_metricsz_is_linted_prometheus_text(self, snapshot_path):
        from repro.obs.export import lint_prometheus

        async def scenario(server):
            await _http(server.port, "POST", "/predict", {"sites": [1, 4, 6]})
            return await _http_text(server.port, "/metricsz")

        status, content_type, body = asyncio.run(
            _with_server(snapshot_path, scenario)
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert lint_prometheus(body) == []
        # Batch counters, live windows, and SLO gauges all present.
        assert "anyopt_serve_requests_total" in body
        assert 'anyopt_live_serve_request_ms{quantile="0.99"}' in body
        assert 'anyopt_slo_state{slo="availability"' in body

    def test_request_latency_stays_out_of_batch_histogram(self, snapshot_path):
        """The satellite guarantee: serve latency goes to the bounded
        reservoir, not the unbounded campaign Histogram."""

        async def scenario(server):
            for _ in range(5):
                await _http(server.port, "POST", "/predict", {"sites": [1, 4, 6]})
            return server.metrics.snapshot(), server.live.snapshot()

        batch, live = asyncio.run(_with_server(snapshot_path, scenario))
        assert "serve_request_ms" not in batch["histograms"]
        assert "serve_batch_size" not in batch["histograms"]
        assert live["reservoirs"]["serve_request_ms"]["total"] == 5
        assert live["rates"]["serve_requests"]["total"] == 5

    def test_metricsz_under_concurrent_predict_load(self, snapshot_path):
        """Scrapes interleave with a predict burst on one event loop:
        every scrape answers, lints clean, and no predict is harmed."""
        from repro.obs.export import lint_prometheus

        async def scenario(server):
            predicts = [
                _http(server.port, "POST", "/predict", {"sites": [1, 4, 6]})
                for _ in range(24)
            ]
            scrapes = [_http_text(server.port, "/metricsz") for _ in range(8)]
            mixed = []
            for i, task in enumerate(predicts):
                mixed.append(task)
                if i % 3 == 0:
                    mixed.append(scrapes.pop())
            mixed.extend(scrapes)
            return await asyncio.gather(*mixed)

        results = asyncio.run(_with_server(snapshot_path, scenario))
        predict_results = [r for r in results if len(r) == 2]
        scrape_results = [r for r in results if len(r) == 3]
        assert len(predict_results) == 24 and len(scrape_results) == 8
        assert all(status == 200 for status, _ in predict_results)
        for status, _, body in scrape_results:
            assert status == 200
            assert lint_prometheus(body) == []

    def test_slozz_reports_burn_state(self, snapshot_path):
        async def scenario(server):
            for _ in range(4):
                await _http(server.port, "POST", "/predict", {"sites": [1, 4, 6]})
            return await _http(server.port, "GET", "/slozz")

        status, doc = asyncio.run(_with_server(snapshot_path, scenario))
        assert status == 200
        by_name = {slo["name"]: slo for slo in doc["slos"]}
        assert set(by_name) == {
            "availability", "p99-latency", "snapshot-freshness", "shed-rate",
        }
        assert doc["overall_state"] in ("ok", "warn", "page")
        avail = by_name["availability"]
        assert avail["state"] == "ok"
        assert avail["burn_fast"] == 0.0
        assert 0.0 <= avail["budget_remaining"] <= 1.0
        fresh = by_name["snapshot-freshness"]
        assert fresh["state"] == "ok"
        assert fresh["detail"]["age_s"] < fresh["detail"]["max_age_s"]

    def test_healthz_reports_version_and_age_and_livez_always_200(
        self, snapshot_path, engine
    ):
        async def scenario(server):
            health = await _http(server.port, "GET", "/healthz")
            live = await _http(server.port, "GET", "/livez")
            return health, live

        (hs, health), (ls, live) = asyncio.run(
            _with_server(snapshot_path, scenario)
        )
        assert hs == ls == 200
        assert health["ready"] is True and health["live"] is True
        assert health["model_version"] == engine.version
        assert health["snapshot_age_s"] >= 0.0
        assert health["snapshot_loaded_unix"] is not None
        # The /livez request itself is the one in flight.
        assert live == {"live": True, "inflight": 1}

    def test_healthz_503_when_not_ready(self, snapshot_path):
        server = ModelServer(snapshot_path, port=0)
        status, doc = server._handle_healthz()  # no snapshot loaded yet
        assert status == 503
        assert doc["ready"] is False and doc["live"] is True
        assert doc["reason"] == "no-snapshot-loaded"

        server.load()
        status, doc = server._handle_healthz()
        assert status == 200 and doc["ready"] is True

        server._closing = True  # draining
        status, doc = server._handle_healthz()
        assert status == 503
        assert doc["reason"] == "draining"

    def test_unloaded_server_freshness_slo_pages(self, snapshot_path):
        server = ModelServer(snapshot_path, port=0)
        statuses = {s.name: s for s in server.slo.evaluate()}
        assert statuses["snapshot-freshness"].state == "page"
        server.load()
        statuses = {s.name: s for s in server.slo.evaluate()}
        assert statuses["snapshot-freshness"].state == "ok"
