"""Tracked serving benchmark: snapshot lookup throughput and HTTP latency.

Measures what the serving layer is accountable for and writes
``BENCH_serve.json`` (committed at the repo root, so regressions show
up in review diffs):

- **lookup**: batched prediction throughput — the per-call scalar
  oracle of ``tests/reference_order.py`` (``total_order(model, client,
  order).most_preferred(sites)``, one dict tournament per client), the
  live batched
  ``CatchmentPredictor.predict``, and the snapshot-backed vectorized
  :class:`LookupEngine` (typed batch and raw arrays).  The acceptance
  bar is engine-vs-per-call ≥ 10x on the same host; the measured
  ratio is recorded, never massaged.
- **http**: end-to-end ``POST /predict`` latency and throughput
  against a live :class:`ModelServer` on a loopback socket
  (sequential keep-alive latencies for p50/p99, concurrent
  connections for throughput).
- **live**: the per-request cost of the always-on telemetry hot path
  (windowed reservoir observe + rate increment + SLO record),
  expressed as a fraction of the measured HTTP p50 and checked
  against the <10% overhead budget.
- **reload**: a hot snapshot swap in the middle of a concurrent
  request burst — republish, ``POST /reloadz``, and assert that not
  one in-flight request failed and every answer names a coherent
  model version.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_serve.json

``--quick`` shrinks every section for CI smoke runs; ``--trace PATH``
exports the reload-section server's request spans as JSONL (the CI
artifact showing the per-request trace tree).
"""

import argparse
import asyncio
import json
import os
import platform
import random
import statistics
import sys
import time

if __package__ in (None, ""):  # running as a script: make repro and tests importable
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from repro.core.anyopt import AnyOpt
from repro.core.config import AnycastConfig
from repro.io.serialization import model_from_dict, model_to_dict
from repro.measurement.targets import select_targets
from repro.obs.export import write_trace_jsonl
from repro.serve import LookupEngine, ModelServer, compile_snapshot, load_snapshot, write_snapshot
from repro.topology import TestbedParams, TopologyParams, build_paper_testbed
from tests.reference_order import total_order

SEED = 7


def _config_sweep(testbed, count):
    sites = sorted(testbed.site_ids())
    rng = random.Random(SEED)
    sizes = [2, 3, 5, 8, len(sites)]
    return [
        AnycastConfig(tuple(rng.sample(sites, min(sizes[i % len(sizes)], len(sites)))))
        for i in range(count)
    ]


def bench_lookup(model, engine, testbed, quick) -> dict:
    predictor = model.predictor
    clients = sorted(predictor.known_clients())
    configs = _config_sweep(testbed, 4 if quick else 10)
    predictions = len(clients) * len(configs)
    trials = 2 if quick else 5

    def best(fn) -> float:
        result = float("inf")
        for _ in range(trials):
            engine._answers.clear()  # no per-config memo: honest fresh work
            t0 = time.perf_counter()
            fn()
            result = min(result, time.perf_counter() - t0)
        return result

    def per_call_loop():
        for config in configs:
            for client in clients:
                total_order(model, client, config.site_order).most_preferred(config.sites)

    per_call_s = best(per_call_loop)

    live_batch_s = best(
        lambda: [predictor.predict(config, clients) for config in configs]
    )
    engine_batch_s = best(
        lambda: [engine.predict(config, clients) for config in configs]
    )
    engine_arrays_s = best(
        lambda: [engine.predict_arrays(config.site_order) for config in configs]
    )

    return {
        "clients": len(clients),
        "configs": len(configs),
        "predictions_per_pass": predictions,
        "per_call_preds_per_s": round(predictions / per_call_s, 0),
        "live_batch_preds_per_s": round(predictions / live_batch_s, 0),
        "engine_batch_preds_per_s": round(predictions / engine_batch_s, 0),
        "engine_arrays_preds_per_s": round(predictions / engine_arrays_s, 0),
        "engine_vs_per_call": round(per_call_s / engine_batch_s, 1),
        "arrays_vs_per_call": round(per_call_s / engine_arrays_s, 1),
    }


async def _request(port, doc, reader_writer=None):
    if reader_writer is None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    else:
        reader, writer = reader_writer
    body = json.dumps(doc).encode()
    writer.write(
        b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    payload = json.loads(await reader.readexactly(length))
    if reader_writer is None:
        writer.close()
    return status, payload


def bench_http(snapshot_path, testbed, quick) -> dict:
    configs = _config_sweep(testbed, 8)
    sequential = 50 if quick else 300
    connections = 4 if quick else 8
    per_connection = 25 if quick else 100

    async def scenario():
        server = ModelServer(snapshot_path, port=0)
        await server.start()
        serving = asyncio.ensure_future(server.serve_forever())
        loop = asyncio.get_event_loop()
        try:
            reader_writer = await asyncio.open_connection("127.0.0.1", server.port)
            for config in configs:  # warm the per-config answer memo
                await _request(server.port, {"sites": list(config.site_order)},
                               reader_writer)
            latencies = []
            for i in range(sequential):
                doc = {"sites": list(configs[i % len(configs)].site_order)}
                t0 = loop.time()
                status, _ = await _request(server.port, doc, reader_writer)
                latencies.append((loop.time() - t0) * 1000.0)
                assert status == 200
            reader_writer[1].close()

            async def burst():
                rw = await asyncio.open_connection("127.0.0.1", server.port)
                for i in range(per_connection):
                    doc = {"sites": list(configs[i % len(configs)].site_order)}
                    status, _ = await _request(server.port, doc, rw)
                    assert status == 200
                rw[1].close()

            t0 = loop.time()
            await asyncio.gather(*[burst() for _ in range(connections)])
            burst_s = loop.time() - t0
            return latencies, burst_s
        finally:
            serving.cancel()
            try:
                await serving
            except asyncio.CancelledError:
                pass
            await server.shutdown()

    latencies, burst_s = asyncio.run(scenario())
    latencies.sort()
    total = connections * per_connection
    return {
        "sequential_requests": sequential,
        "p50_ms": round(statistics.median(latencies), 3),
        "p99_ms": round(latencies[int(0.99 * (len(latencies) - 1))], 3),
        "concurrent_connections": connections,
        "concurrent_requests": total,
        "throughput_rps": round(total / burst_s, 0),
    }


def _sequential_p50(snapshot_path, testbed, sequential, guard) -> float:
    """Median keep-alive /predict latency against a server built with
    ``guard`` — the probe both halves of the guard benchmark share."""
    configs = _config_sweep(testbed, 8)

    async def scenario():
        server = ModelServer(snapshot_path, port=0, guard=guard)
        await server.start()
        serving = asyncio.ensure_future(server.serve_forever())
        loop = asyncio.get_running_loop()
        try:
            reader_writer = await asyncio.open_connection("127.0.0.1", server.port)
            for config in configs:  # warm the per-config answer memo
                await _request(server.port, {"sites": list(config.site_order)},
                               reader_writer)
            latencies = []
            for i in range(sequential):
                doc = {"sites": list(configs[i % len(configs)].site_order)}
                t0 = loop.time()
                status, _ = await _request(server.port, doc, reader_writer)
                latencies.append((loop.time() - t0) * 1000.0)
                assert status == 200
            reader_writer[1].close()
            return latencies
        finally:
            serving.cancel()
            try:
                await serving
            except asyncio.CancelledError:
                pass
            await server.shutdown()

    return statistics.median(asyncio.run(scenario()))


def bench_guard(snapshot_path, testbed, quick) -> dict:
    """What the hardening layer costs on the hot path: request p50
    with the default deadlines/admission vs a fully unguarded server.
    Trials are interleaved (guarded, unguarded, guarded, ...) and each
    side keeps its best median, so scheduler noise hits both equally.
    Budget: <5% of the request p50."""
    from repro.serve import GuardConfig

    sequential = 100 if quick else 200
    trials = 3
    guarded_p50 = float("inf")
    unguarded_p50 = float("inf")
    for _ in range(trials):
        guarded_p50 = min(
            guarded_p50,
            _sequential_p50(snapshot_path, testbed, sequential, GuardConfig()),
        )
        unguarded_p50 = min(
            unguarded_p50,
            _sequential_p50(
                snapshot_path, testbed, sequential, GuardConfig.unguarded()
            ),
        )
    overhead = max(0.0, guarded_p50 - unguarded_p50) / unguarded_p50
    return {
        "sequential_requests": sequential,
        "trials": trials,
        "guarded_p50_ms": round(guarded_p50, 3),
        "unguarded_p50_ms": round(unguarded_p50, 3),
        "guard_overhead_fraction_of_p50": round(overhead, 5),
        "budget_fraction": 0.05,
        "within_budget": overhead < 0.05,
    }


def bench_live(http_stats, quick) -> dict:
    """Per-request cost of the live telemetry hot path — one reservoir
    observe, one rate increment, one SLO record — as a fraction of the
    measured HTTP p50.  The windowed instruments must stay inside the
    same <10% overhead budget the tracer lives under."""
    from repro.obs.slo import SloEngine
    from repro.obs.live import LiveMetrics
    from repro.serve.http import default_slo_specs

    iterations = 20_000 if quick else 100_000
    live = LiveMetrics()
    reservoir = live.reservoir("serve_request_ms")
    rate = live.rate("serve_requests")
    slo = SloEngine(default_slo_specs())
    slo.set_gauge_source("snapshot-freshness", lambda: 0.0)
    t0 = time.perf_counter()
    for i in range(iterations):
        latency_ms = float(i % 251)
        reservoir.observe(latency_ms)
        rate.increment()
        slo.record(ok=True, latency_ms=latency_ms)
    per_request_ms = (time.perf_counter() - t0) * 1000.0 / iterations
    p50 = http_stats["p50_ms"]
    overhead = per_request_ms / p50 if p50 else 0.0
    return {
        "iterations": iterations,
        "per_request_ms": round(per_request_ms, 6),
        "http_p50_ms": p50,
        "overhead_fraction_of_p50": round(overhead, 5),
        "budget_fraction": 0.10,
        "within_budget": overhead < 0.10,
    }


def bench_reload(snapshot_path, model, testbed, quick, trace_out=None) -> dict:
    """Hot reload under load: every in-flight request must succeed."""
    modified = model_from_dict(model_to_dict(model), testbed)
    key = sorted(modified.rtt_matrix.values)[0]
    modified.rtt_matrix.values[key] += 0.25
    connections = 4 if quick else 8
    per_connection = 15 if quick else 60

    async def scenario():
        server = ModelServer(snapshot_path, port=0)
        await server.start()
        serving = asyncio.ensure_future(server.serve_forever())
        loop = asyncio.get_event_loop()
        results = []
        try:
            old_version = server.engine.version

            async def burst():
                rw = await asyncio.open_connection("127.0.0.1", server.port)
                for _ in range(per_connection):
                    status, doc = await _request(
                        server.port, {"sites": [1, 4, 6]}, rw
                    )
                    results.append(
                        (status, doc.get("model_version", ""))
                    )
                rw[1].close()

            tasks = [asyncio.ensure_future(burst()) for _ in range(connections)]
            await asyncio.sleep(0.05)
            write_snapshot(compile_snapshot(modified), snapshot_path)
            t0 = loop.time()
            status, doc = await _request_reload(server.port)
            reload_ms = (loop.time() - t0) * 1000.0
            await asyncio.gather(*tasks)
            assert status == 200 and doc["changed"]
            return old_version, doc["model_version"], reload_ms, results, server
        finally:
            serving.cancel()
            try:
                await serving
            except asyncio.CancelledError:
                pass
            await server.shutdown()

    old_version, new_version, reload_ms, results, server = asyncio.run(scenario())
    failed = [status for status, _ in results if status != 200]
    stray = {v for _, v in results} - {old_version, new_version}
    if failed or stray:
        raise AssertionError(
            f"hot reload dropped requests: {len(failed)} non-200, "
            f"unexpected versions {stray}"
        )
    if trace_out:
        write_trace_jsonl(server.tracer.records(), trace_out)
    return {
        "concurrent_connections": connections,
        "requests_during_reload": len(results),
        "failed_requests": len(failed),
        "old_version": old_version,
        "new_version": new_version,
        "reload_ms": round(reload_ms, 3),
    }


async def _request_reload(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"POST /reloadz HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    payload = json.loads(await reader.readexactly(length))
    writer.close()
    return status, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument(
        "--quick", action="store_true", help="smaller batches (CI smoke run)"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="export the reload benchmark's request spans as JSONL",
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="where the benchmark snapshot is written (default: alongside --out)",
    )
    args = parser.parse_args(argv)

    stubs = 100 if args.quick else 150
    tier2 = 16 if args.quick else 24
    testbed = build_paper_testbed(
        TestbedParams(topology=TopologyParams(n_stub=stubs, n_tier2=tier2)), seed=SEED
    )
    targets = select_targets(testbed.internet, seed=SEED)
    anyopt = AnyOpt(testbed, targets=targets, seed=SEED)
    model = anyopt.discover()

    snap_dir = args.snapshot_dir or os.path.dirname(os.path.abspath(args.out))
    snapshot_path = os.path.join(snap_dir, "bench_model.snap")
    snapshot = compile_snapshot(model)
    write_snapshot(snapshot, snapshot_path)
    engine = LookupEngine(load_snapshot(snapshot_path))

    lookup = bench_lookup(model, engine, testbed, args.quick)
    print(
        f"lookup: per-call {lookup['per_call_preds_per_s']:.0f} preds/s, "
        f"engine batch {lookup['engine_batch_preds_per_s']:.0f} preds/s "
        f"-> {lookup['engine_vs_per_call']}x "
        f"(raw arrays {lookup['arrays_vs_per_call']}x)"
    )

    http = bench_http(snapshot_path, testbed, args.quick)
    print(
        f"http: p50 {http['p50_ms']}ms, p99 {http['p99_ms']}ms, "
        f"{http['throughput_rps']:.0f} req/s over "
        f"{http['concurrent_connections']} connections"
    )

    guard = bench_guard(snapshot_path, testbed, args.quick)
    print(
        f"guard: p50 {guard['guarded_p50_ms']}ms guarded vs "
        f"{guard['unguarded_p50_ms']}ms unguarded "
        f"({100 * guard['guard_overhead_fraction_of_p50']:.2f}% overhead, "
        f"budget 5%)"
    )

    live = bench_live(http, args.quick)
    print(
        f"live telemetry: {live['per_request_ms'] * 1000:.1f}us/request "
        f"({100 * live['overhead_fraction_of_p50']:.2f}% of http p50, "
        f"budget 10%)"
    )

    reload_stats = bench_reload(
        snapshot_path, model, testbed, args.quick, trace_out=args.trace
    )
    print(
        f"reload: {reload_stats['requests_during_reload']} requests during swap, "
        f"{reload_stats['failed_requests']} failed, "
        f"reload {reload_stats['reload_ms']}ms"
    )
    if args.trace:
        print(f"request trace written to {args.trace}")

    payload = {
        "format": "anyopt-bench-serve",
        "version": 1,
        "quick": args.quick,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "model": snapshot.counts,
        "lookup": lookup,
        "http": http,
        "guard": guard,
        "live": live,
        "reload": reload_stats,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    code = 0
    if lookup["engine_vs_per_call"] < 10:
        print(
            "WARNING: engine-vs-per-call ratio below the 10x acceptance bar",
            file=sys.stderr,
        )
        code = 1
    if not live["within_budget"]:
        print(
            "WARNING: live-telemetry overhead above the 10% hot-path budget",
            file=sys.stderr,
        )
        code = 1
    if not guard["within_budget"]:
        print(
            "WARNING: guard overhead above the 5% request-p50 budget",
            file=sys.stderr,
        )
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
