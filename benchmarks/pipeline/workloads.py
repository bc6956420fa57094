"""The four pipeline workloads.

Each drives the program through its facade only (``repro`` and
``repro.serve``), called through the module attribute at call time so
that the traced run can put a span around the same call.

A workload is: ``setup`` (build the world, one warm-up pass), an
endless seeded ``ops`` generator, ``prepare(op)`` (encoding, outside
the clock), ``do(prepared)`` (the timed call), ``check(op, result)``
(outside the clock; returns the work units done or raises
:class:`CheckFailed`), and ``finish`` (checks too slow to interleave,
run after the clock stops).

The topology and the ping targets are the same for every ``--seed``
(``WORLD_SEED``): the driver compares runs made with different seeds,
and a different Internet per seed would put the generator's variance
into every metric.  The seed drives what a user varies — the campaign's
noise streams, the deployment orders, the what-if sessions.
"""

import asyncio
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import time
from typing import Dict, Iterator, List, Optional

import repro
from repro import AnycastConfig, AnyOpt, CampaignSettings, TestbedParams, TopologyParams
from repro import serve
from repro.io import model_to_dict

WORLD_SEED = 7


class CheckFailed(Exception):
    """An op's output was wrong; the op counts as failed."""


def paper_world(params: Optional[TestbedParams] = None):
    """The testbed and ping targets every seed shares."""
    testbed = repro.build_paper_testbed(params, seed=WORLD_SEED)
    targets = repro.select_targets(testbed.internet, seed=WORLD_SEED)
    return testbed, targets


class Workload:
    name = ""
    #: What ``work_per_s`` counts.
    work_unit = ""
    #: Ops in the traced run's fixed pass (so counts repeat exactly).
    trace_ops = 1
    #: ``peak_rss_mb`` is read once this many timed ops are done (or at
    #: the end of a run too short to hold them).
    rss_ops = 1
    testbed_params: Optional[TestbedParams] = None

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        #: The pass's span recorder (None when untraced); only the serve
        #: workload adds spans of its own, client side.
        self.recorder = None
        self.testbed = None
        self.targets = None

    def build_world(self) -> None:
        if self.testbed is None:
            self.testbed, self.targets = paper_world(self.testbed_params)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Dict]:
        """Endless op stream; a pure function of the seed and the world."""
        raise NotImplementedError

    def prepare(self, op: Dict):
        """What ``do`` takes, built outside the clock."""
        return op

    def do(self, prepared):
        raise NotImplementedError

    def check(self, op: Dict, result) -> int:
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Zero the counters ``extras`` reports (start of a pass)."""

    def finish(self) -> str:
        """Post-clock checks; raises :class:`CheckFailed`, else says
        what was checked."""
        return ""

    def close(self) -> None:
        """Release sockets and loops (always called)."""

    def extras(self) -> Dict[str, float]:
        """Layer numbers that are not span timings (traced run only)."""
        return {"topology.ases": len(self.testbed.internet.graph)}


def _cache_counters(anyopt: AnyOpt) -> Dict[str, float]:
    counters = anyopt.metrics.snapshot().get("counters", {})
    hits = counters.get("convergence_cache_hits", 0)
    misses = counters.get("convergence_cache_misses", 0)
    return {
        "runtime.cache.hits": hits,
        "runtime.cache.misses": misses,
        "runtime.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def model_digest(model) -> str:
    doc = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


class CampaignPaper(Workload):
    """Time to a model: one full discovery campaign per op."""

    name = "campaign_paper"
    work_unit = "experiments"
    trace_ops = 1
    rss_ops = 2
    #: Sites of the post-clock accuracy check, and its floor (the paper
    #: reports 94.7 %).  The driver picks the seeds, and one campaign
    #: seed in twenty mis-ranks a pair of sites that some configuration
    #: depends on: of ten 5-site configurations scored over 54 campaign
    #: seeds this one dipped least, 0.962-0.998; (1, 4, 6, 9, 12) went
    #: down to 0.911 and three others below 0.9.
    EVAL_SITES = (4, 5, 10, 12, 13)
    MIN_ACCURACY = 0.9

    def setup(self) -> None:
        self.build_world()
        self.model = self.do({"op": "discover", "campaign_seed": self.seed})
        self.digest = model_digest(self.model)
        self.experiments = self.model.experiments_used
        self.begin_pass()

    def begin_pass(self) -> None:
        self.failed_experiments = 0

    def ops(self):
        while True:
            yield {"op": "discover", "campaign_seed": self.seed}

    def do(self, op):
        self.anyopt = AnyOpt(self.testbed, self.targets, seed=op["campaign_seed"])
        return self.anyopt.discover()

    def check(self, op, model) -> int:
        self.failed_experiments += len(model.failures)
        if model.failures:
            raise CheckFailed(f"{len(model.failures)} experiments failed")
        if model.experiments_used != self.experiments:
            raise CheckFailed(
                f"{model.experiments_used} experiments, warm-up used {self.experiments}"
            )
        if model_digest(model) != self.digest:
            raise CheckFailed("model differs from the warm-up's for the same seed")
        return model.experiments_used

    def finish(self) -> str:
        report = self.anyopt.evaluate(
            self.model, AnycastConfig(site_order=self.EVAL_SITES)
        )
        if report.accuracy < self.MIN_ACCURACY:
            raise CheckFailed(f"catchment accuracy {report.accuracy:.3f}")
        return f"catchment accuracy on sites {self.EVAL_SITES}: {report.accuracy:.3f}"

    def extras(self):
        return {
            **super().extras(),
            **_cache_counters(self.anyopt),
            "runtime.failed_experiments": self.failed_experiments,
        }


class DeployScale(Workload):
    """BGP convergence at the paper's client-AS population, no probing."""

    name = "deploy_scale"
    work_unit = "deployments"
    trace_ops = 200
    rss_ops = 400
    testbed_params = TestbedParams(topology=TopologyParams(n_stub=5300, n_tier2=120))

    def setup(self) -> None:
        self.build_world()
        # A never-repeating sweep cannot hit the convergence cache, and
        # filling it makes per-deploy time depend on fill level.
        self.anyopt = AnyOpt(
            self.testbed, self.targets, seed=self.seed,
            settings=CampaignSettings(convergence_cache=False),
        )
        self.last = self.do({"op": "deploy", "order": [1, 2, 3]})

    def ops(self):
        sites = self.testbed.site_ids()
        orders = [
            list(order) for k in (2, 3) for order in itertools.permutations(sites, k)
        ]
        random.Random(self.seed).shuffle(orders)
        for order in itertools.cycle(orders):
            yield {"op": "deploy", "order": order}

    def do(self, op):
        self.last = self.anyopt.deploy(AnycastConfig(site_order=tuple(op["order"])))
        return self.last

    def check(self, op, deployment) -> int:
        if set(deployment.converged.enabled_sites) != set(op["order"]):
            raise CheckFailed(
                f"enabled {deployment.converged.enabled_sites}, asked {op['order']}"
            )
        return 1

    def finish(self) -> str:
        mapped = self.last.measure_catchments().mapped_count()
        if mapped <= 0.95 * len(self.targets):
            raise CheckFailed(f"only {mapped}/{len(self.targets)} targets mapped")
        return f"last deployment maps {mapped}/{len(self.targets)} targets"

    def extras(self):
        return {**super().extras(), **_cache_counters(self.anyopt)}


class OptimizePaper(Workload):
    """The offline SPLPO search over all 15 sites."""

    name = "optimize_paper"
    work_unit = "configurations"
    trace_ops = 2
    rss_ops = 3

    def setup(self) -> None:
        self.build_world()
        self.anyopt = AnyOpt(self.testbed, self.targets, seed=self.seed)
        self.model = self.anyopt.discover()
        self.reference = self.do({"op": "optimize", "strategy": "exhaustive"})

    def ops(self):
        while True:
            yield {"op": "optimize", "strategy": "exhaustive", "model_seed": self.seed}

    def do(self, op):
        return self.anyopt.optimize(self.model, strategy=op["strategy"])

    def check(self, op, report) -> int:
        n_sites = len(self.testbed.site_ids())
        if report.evaluations != 2 ** n_sites - 1:
            raise CheckFailed(f"{report.evaluations} evaluations")
        if report.best_config != self.reference.best_config:
            raise CheckFailed("best configuration differs from the warm-up's")
        if not math.isfinite(report.predicted_mean_rtt):
            raise CheckFailed("predicted mean RTT is not finite")
        return report.evaluations


#: Requests of each class in one what-if session.
SESSION_MIX = {"full": 1, "distinct": 8, "repeat": 16}
RELOAD_EVERY = 100
HOT_CONFIGS = 8
BATCH_CLIENTS = 32
#: Every Nth answer is kept and compared with the live predictor after
#: the clock stops, up to this many client predictions (the dict
#: predictor answers ~28k/s; the cap keeps the check near one second).
VERIFY_EVERY = 16
VERIFY_BUDGET = 30000


def encode_request(path: str, doc: Optional[Dict]) -> bytes:
    body = b"" if doc is None else json.dumps(doc).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class ServeSession(Workload):
    """What-if sessions against a live ``ModelServer`` over loopback.

    Client and server share one event loop on one thread, so the
    numbers measure the program and not cross-process wake-ups; the
    only other thread is the server's own reload worker.
    """

    name = "serve_session"
    work_unit = "requests"
    trace_ops = 200
    rss_ops = 400

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self.loop = None
        self.server = None
        self.connections = []
        self.kept: List[tuple] = []
        self.sent = 0

    def setup(self) -> None:
        self.build_world()
        model = AnyOpt(self.testbed, self.targets, seed=self.seed).discover()
        # The alternate model: same preferences, every RTT 5 % longer,
        # so a reload changes the version and every RTT answer.
        slower = type(model.rtt_matrix)()
        for (site, target), rtt in model.rtt_matrix.values.items():
            slower.set(site, target, None if rtt is None else rtt * 1.05)
        twolevel = dataclasses.replace(model.twolevel, rtt_matrix=slower)
        alternate = dataclasses.replace(
            model, rtt_matrix=slower, twolevel=twolevel,
            predictor=repro.CatchmentPredictor(twolevel, slower),
        )
        self.snapshots = [serve.compile_snapshot(model), serve.compile_snapshot(alternate)]
        self.predictors = {
            snapshot.version: m.predictor
            for snapshot, m in zip(self.snapshots, (model, alternate))
        }
        # to_dict() puts model_version last, so a served answer ends so.
        self.suffixes = tuple(
            f'"model_version": "{version}"}}'.encode("utf-8")
            for version in self.predictors
        )
        self.path = os.path.join(self.scratch, "model.snap")
        serve.write_snapshot(self.snapshots[0], self.path)
        serve.load_snapshot(self.path)
        self.snapshot_bytes = os.path.getsize(self.path)
        self.published = 0

        self.loop = asyncio.new_event_loop()
        self.server = serve.ModelServer(self.path, port=0)
        self.loop.run_until_complete(self.server.start())
        for _ in range(2):   # [0] carries the sessions, [1] the reloads
            self.connections.append(self.loop.run_until_complete(
                asyncio.open_connection("127.0.0.1", self.server.port)
            ))
        self.begin_pass()
        warm_up = next(self.ops())
        self.check(warm_up, self.do(self.prepare(warm_up)))

    def begin_pass(self) -> None:
        self.bytes_out = 0
        self.non200 = 0
        self.failed_reads = 0

    def ops(self):
        rng = random.Random(self.seed)
        sites = self.testbed.site_ids()
        clients = [t.target_id for t in self.targets]

        def config():
            return rng.sample(sites, rng.randint(3, 8))

        hot = [
            {"sites": config(), "clients": rng.sample(clients, BATCH_CLIENTS)}
            for _ in range(HOT_CONFIGS)
        ]
        for number in itertools.count(1):
            requests = [
                {"class": "full", "sites": config()}
                for _ in range(SESSION_MIX["full"])
            ]
            requests += [
                {"class": "distinct", "sites": config(),
                 "clients": rng.sample(clients, BATCH_CLIENTS)}
                for _ in range(SESSION_MIX["distinct"])
            ]
            requests += [
                {"class": "repeat", **rng.choice(hot)}
                for _ in range(SESSION_MIX["repeat"])
            ]
            rng.shuffle(requests)
            yield {
                "op": "session", "requests": requests,
                "reload": number % RELOAD_EVERY == 0,
            }

    def prepare(self, op):
        wire = [
            (r["class"],
             encode_request("/predict", {k: v for k, v in r.items() if k != "class"}))
            for r in op["requests"]
        ]
        return wire, op["reload"]

    def do(self, prepared):
        return self.loop.run_until_complete(self._session(*prepared))

    async def _exchange(self, connection, request: bytes):
        reader, writer = connection
        writer.write(request)
        head = await reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        at = head.index(b"Content-Length:") + 15
        length = int(head[at:head.index(b"\r\n", at)])
        return status, await reader.readexactly(length)

    async def _reload(self, parent_span) -> int:
        """Publish the other snapshot and reload, on the second
        connection, while the session keeps reading on the first."""
        start = time.perf_counter()
        self.published += 1
        serve.write_snapshot(self.snapshots[self.published % 2], self.path)
        status, _ = await self._exchange(
            self.connections[1], encode_request("/reloadz", None)
        )
        if self.recorder is not None:
            self.recorder.add("serve.reload", start, time.perf_counter(), parent_span)
        return status

    async def _session(self, wire, reload: bool):
        recorder = self.recorder
        reload_task = None
        if reload:
            reload_task = asyncio.ensure_future(
                self._reload(None if recorder is None else recorder.current)
            )
        answers = []
        for cls, request in wire:
            span = None if recorder is None else recorder.open(f"serve.http.{cls}")
            answers.append(await self._exchange(self.connections[0], request))
            if span is not None:
                recorder.close(span)
        reload_status = 200 if reload_task is None else await reload_task
        return answers, reload_status

    def check(self, op, result) -> int:
        answers, reload_status = result
        bad = 0
        for request, (status, body) in zip(op["requests"], answers):
            self.sent += 1
            self.bytes_out += len(body)
            if status != 200 or not body.endswith(self.suffixes):
                bad += 1
            elif self.sent % VERIFY_EVERY == 0:
                self.kept.append((request, body))
        self.non200 += bad
        if op["reload"]:
            self.failed_reads += bad
        if bad or reload_status != 200:
            raise CheckFailed(
                f"{bad} of {len(answers)} answers were not a 200 from a "
                f"published model; reload answered {reload_status}"
            )
        return len(answers)

    def finish(self) -> str:
        """Compare kept answers site-for-site and RTT-for-RTT with the
        dict-based ``CatchmentPredictor`` of the model that served them."""
        budget = VERIFY_BUDGET
        everyone = [t.target_id for t in self.targets]
        verified = 0
        # Shuffled so that the budget samples the whole run, both models.
        random.Random(self.seed).shuffle(self.kept)
        for request, body in self.kept:
            if budget <= 0:
                break
            answer = json.loads(body)
            clients = request.get("clients", everyone)
            expected = self.predictors[answer["model_version"]].predict(
                AnycastConfig(site_order=tuple(request["sites"])), clients
            )
            if answer["predictions"] != expected.to_dict()["predictions"]:
                raise CheckFailed(
                    f"served answer for sites {request['sites']} differs from "
                    "CatchmentPredictor.predict"
                )
            budget -= len(clients)
            verified += 1
        return (f"{verified} of {len(self.kept)} kept answers equal "
                "CatchmentPredictor.predict")

    def close(self) -> None:
        async def stop():
            for _, writer in self.connections:
                writer.close()
            if self.server is not None:
                await self.server.shutdown(grace_s=2.0)

        if self.loop is not None:
            self.loop.run_until_complete(stop())
            self.loop.close()
            self.loop = None

    def extras(self):
        return {
            **super().extras(),
            "serve.snapshot.bytes": self.snapshot_bytes,
            "serve.http.bytes_out": self.bytes_out,
            "serve.http.non200": self.non200,
            "serve.reload.failed_reads": self.failed_reads,
        }


WORKLOADS = {
    cls.name: cls for cls in (CampaignPaper, DeployScale, OptimizePaper, ServeSession)
}
