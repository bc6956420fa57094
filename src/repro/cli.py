"""Command-line interface for the AnyOpt pipeline.

Chains the paper's workflow across invocations via JSON artifacts::

    anyopt build-testbed --seed 7 --out testbed.json
    anyopt discover --testbed testbed.json --out model.json
    anyopt audit --testbed testbed.json --model model.json --repair --out model.json
    anyopt optimize --testbed testbed.json --model model.json --size 12
    anyopt evaluate --testbed testbed.json --model model.json --sites 1,4,6
    anyopt catchment --testbed testbed.json --sites 1,4,6 --chart
    anyopt peers --testbed testbed.json --sites 1,4,6 --max-peers 20
    anyopt plan --sites 500 --providers 20

Also runnable as ``python -m repro ...``.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import sys
from typing import List, Optional

from repro.core.anyopt import AnyOpt
from repro.core.config import AnycastConfig
from repro.core.planner import SiteLevelStrategy, plan_measurements
from repro.core.twolevel import SiteLevelMode
from repro.io import atomic_write, load_checkpoint, load_model, load_testbed, save_model, save_testbed
from repro.measurement import select_targets
from repro.obs.export import load_trace, write_prometheus, write_trace_jsonl
from repro.obs.heartbeat import HeartbeatWriter, follow_heartbeats, load_heartbeats
from repro.obs.inspect import phase_breakdown, summarize_trace
from repro.obs.log import LEVELS, configure_logging
from repro.report import (
    render_audit_report,
    render_catchment_bars,
    render_cdf,
    render_heartbeat,
    render_heartbeat_history,
    render_metrics,
    render_table,
)
from repro.runtime.settings import CampaignSettings
from repro.serve import ChaosConfig, GuardConfig, ModelServer, WatchConfig
from repro.serve.http import (
    DEFAULT_LATENCY_THRESHOLD_MS,
    DEFAULT_MAX_SNAPSHOT_AGE_S,
    default_slo_specs,
)
from repro.splpo import available_strategies
from repro.topology import TestbedParams, TopologyParams, build_paper_testbed
from repro.util.errors import ConfigurationError, ReproError


def _parse_id_list(raw: str) -> tuple:
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated id list, got {raw!r}"
        ) from None


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _port(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a port number, got {raw!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"expected a port in [0, 65535], got {value}")
    return value


def _positive_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive, finite number, got {value}"
        )
    return value


def _probability(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1], got {value}")
    return value


def _timeout_or_none(raw: str) -> Optional[float]:
    """Seconds, or 0/'none' to disable; the config class checks the range."""
    if raw.strip().lower() in ("none", "off"):
        return None
    try:
        return float(raw) or None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seconds or 'none', got {raw!r}") from None


#: A config field's flag parser, from its annotation.
_KNOB_PARSERS = {int: int, float: float, Optional[float]: _timeout_or_none}


def _add_config_flags(parser: argparse.ArgumentParser, **configs) -> None:
    """Add the flag each ``name=ConfigClass`` field declares in its
    ``metadata``, with the field's default.  ``main`` then sets
    ``args.<name>`` to the class built from the parsed values, whose
    ``__post_init__`` is the only range check."""
    for config_cls in configs.values():
        for knob in dataclasses.fields(config_cls):
            if "flag" not in knob.metadata:
                continue
            parse = _KNOB_PARSERS[knob.type]
            disables = "; 0 or 'none' disables" if parse is _timeout_or_none else ""
            parser.add_argument(
                knob.metadata["flag"],
                dest=knob.name,
                type=parse,
                default=knob.default,
                metavar=knob.metadata["metavar"],
                help=f"{knob.metadata['help']} (default: %(default)s{disables})",
            )
    parser.set_defaults(configs=configs)


def _config_from_args(config_cls, args):
    """``config_cls`` with each flagged field set from its parsed flag.
    A range error names the flags, not the fields they set."""
    flagged = [knob for knob in dataclasses.fields(config_cls) if "flag" in knob.metadata]
    try:
        return config_cls(**{knob.name: getattr(args, knob.name) for knob in flagged})
    except ConfigurationError as exc:
        message = str(exc)
        for knob in flagged:
            message = re.sub(rf"\b{knob.name}\b", knob.metadata["flag"], message)
        raise ConfigurationError(message) from None


def _make_anyopt(args) -> AnyOpt:
    testbed = load_testbed(args.testbed)
    targets = select_targets(testbed.internet, seed=args.seed)
    anyopt = AnyOpt(
        testbed, targets=targets, seed=args.seed, settings=getattr(args, "settings", None)
    )
    # Remembered so ``main`` can render ``--stats`` after the command.
    args._anyopt = anyopt
    return anyopt


def _campaign_heartbeat(args, anyopt, campaign: str, total_experiments=None):
    """Heartbeat context for a campaign command.

    Returns a started-on-enter :class:`HeartbeatWriter` when the user
    asked for ``--heartbeat PATH``, else a null context yielding None.
    Heartbeat config is a CLI concern, deliberately *not* a
    :class:`CampaignSettings` field: settings equality gates
    checkpoint resume, and where progress gets reported must never
    break resume compatibility.
    """
    path = getattr(args, "heartbeat", None)
    if not path:
        return contextlib.nullcontext(None)
    return HeartbeatWriter(
        path,
        anyopt.metrics,
        interval_s=args.heartbeat_interval,
        campaign=campaign,
        total_experiments=total_experiments,
    )


def _discover_experiments(testbed, site_level: str) -> int:
    """The BGP experiments ``discover`` runs on ``testbed``: an RTT row
    per site, both orders of every provider pair and, with pairwise
    site-level discovery, of every site pair inside a provider."""
    providers = testbed.provider_asns()
    total = len(testbed.site_ids()) + len(providers) * (len(providers) - 1)
    if SiteLevelStrategy(site_level) is SiteLevelStrategy.PAIRWISE:
        total += sum(len(sites) * (len(sites) - 1) for sites in map(testbed.sites_of_provider, providers))
    return total


def _unrun_experiment_ids(tracer) -> List[int]:
    """The discover campaign's reserved experiment ids whose deployment
    never succeeded (a failed task's own id, or the second half of a
    pair whose first failed), read off the span tree: the ids under
    its ``experiment`` spans minus those of its ``ok`` deploys."""
    records = tracer.records()
    roots = {r["span_id"] for r in records if r["name"] == "discover" and r["parent_id"] is None}
    reserved, deployed = set(), set()
    for r in records:
        if r["span_id"].split("/", 1)[0] not in roots:
            continue
        if r["name"] == "experiment":
            reserved.update(r["attributes"]["experiment_ids"])
        elif r["name"] == "deploy" and r["status"] == "ok":
            deployed.add(r["attributes"]["experiment_id"])
    return sorted(reserved - deployed)


# --- subcommands -----------------------------------------------------------


def cmd_build_testbed(args) -> int:
    params = TestbedParams(
        topology=TopologyParams(n_stub=args.stubs, n_tier2=args.tier2)
    )
    testbed = build_paper_testbed(params, seed=args.seed)
    save_testbed(testbed, args.out)
    graph = testbed.internet.graph
    print(
        f"built testbed: {len(testbed.site_ids())} sites, "
        f"{len(testbed.provider_asns())} providers, "
        f"{len(graph)} ASes, {len(testbed.peer_links)} peering links"
    )
    print(f"saved to {args.out}")
    return 0


def cmd_discover(args) -> int:
    anyopt = _make_anyopt(args)
    if args.site_level == "rtt":
        anyopt.site_level_mode = SiteLevelMode.RTT_HEURISTIC
    total = _discover_experiments(anyopt.testbed, args.site_level)
    resume_from = None
    if args.checkpoint and os.path.exists(args.checkpoint):
        print(f"resuming from checkpoint {args.checkpoint}")
        resume_from = args.checkpoint
        total -= load_checkpoint(
            resume_from, anyopt.seed, anyopt.settings, anyopt.site_level_mode
        ).experiment_count
    with _campaign_heartbeat(args, anyopt, "discover", total_experiments=total) as heartbeat:
        if heartbeat is not None:
            heartbeat.set_phase("discover")
        model = anyopt.discover(
            checkpoint_path=args.checkpoint,
            resume_from=resume_from,
        )
        if args.audit or args.repair:
            if heartbeat is not None:
                heartbeat.set_phase("audit")
            report = anyopt.audit(model)
            print(render_audit_report(report))
            if args.repair and not report.clean:
                if heartbeat is not None:
                    heartbeat.set_phase("repair")
                repaired = anyopt.repair(model, report=report)
                print(
                    f"repair: {repaired.rounds} round(s), "
                    f"{repaired.experiments_used} experiment(s) re-run; "
                    f"{repaired.final_report.predictable_clients}/{len(anyopt.targets)} "
                    f"client(s) now predictable"
                )
    save_model(model, args.out)
    if model.failures:
        # Counted from the model, not the metrics counters, so a
        # resumed run reports the campaign's degradation rather than
        # only this process's share of it.
        matrices = [
            model.twolevel.provider_matrix,
            *model.twolevel.site_matrices.values(),
        ]
        undecided = sum(
            1
            for matrix in matrices
            for client in matrix.clients()
            for pair in matrix.pairs()
            if (obs := matrix.observation(client, *sorted(pair))) is not None
            and obs.undecided
        )
        print(
            f"degraded campaign: gave up on {len(model.failures)} experiment(s), "
            f"{undecided} preference cells left undecided"
        )
    order = tuple(anyopt.testbed.site_ids())
    valid, _ = model.total_orders([t.target_id for t in anyopt.targets], order)
    with_order = int(valid.sum())
    unrun = _unrun_experiment_ids(anyopt.tracer)
    print(
        f"measurement campaign: {model.experiments_used - len(unrun)} BGP experiments"
        + (f"; reserved id(s) {', '.join(map(str, unrun))} never deployed" if unrun else "")
    )
    print(
        f"clients with a total preference order: "
        f"{with_order}/{len(anyopt.targets)} "
        f"({100 * with_order / len(anyopt.targets):.1f}%)"
    )
    print(f"saved model to {args.out}")
    if args.snapshot_out:
        _compile_snapshot_file(model, args.snapshot_out)
    return 0


def cmd_audit(args) -> int:
    from repro.audit import AuditViolation

    anyopt = _make_anyopt(args)
    model = load_model(args.model, anyopt.testbed)
    violation = None
    with _campaign_heartbeat(args, anyopt, "audit") as heartbeat:
        if heartbeat is not None:
            heartbeat.set_phase("audit")
        try:
            report = anyopt.audit(
                model,
                ground_truth_k=args.ground_truth,
                min_accuracy=args.min_accuracy,
            )
        except AuditViolation as exc:
            if exc.report is None:
                raise
            violation = exc
            report = exc.report
        print(render_audit_report(report))
        repair_report = None
        if args.repair and not report.clean:
            if heartbeat is not None:
                heartbeat.set_phase("repair")
            repair_report = anyopt.repair(
                model,
                report=report,
                max_rounds=args.max_rounds,
                budget=args.repair_budget,
                checkpoint_path=args.checkpoint,
                resume_from=args.checkpoint
                if args.checkpoint and os.path.exists(args.checkpoint)
                else None,
            )
            report = repair_report.final_report
            print(
                f"\nrepair: {repair_report.rounds} round(s), "
                f"{repair_report.experiments_used} experiment(s) re-run"
                + (" (budget exhausted)" if repair_report.budget_exhausted else "")
            )
            print()
            print(render_audit_report(report))
            if args.out:
                save_model(model, args.out)
                print(f"saved repaired model to {args.out}")
    if args.snapshot_out:
        _compile_snapshot_file(model, args.snapshot_out)
    if args.report:
        doc = report.to_dict()
        if repair_report is not None:
            doc["repair"] = repair_report.to_dict()
        atomic_write(args.report, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"audit report written to {args.report}")
    if violation is not None:
        print(f"error: {violation}", file=sys.stderr)
        if violation.explanation:
            print(violation.explanation, file=sys.stderr)
        return 3
    return 0


def cmd_optimize(args) -> int:
    anyopt = _make_anyopt(args)
    model = load_model(args.model, anyopt.testbed)
    sizes = [args.size] if args.size else None
    report = anyopt.optimize(
        model, strategy=args.strategy, sizes=sizes,
        max_evaluations=args.max_evaluations,
    )
    print(f"best configuration ({report.solver}, {report.evaluations} evaluations):")
    print(f"  sites (announce order): {','.join(map(str, report.best_config.site_order))}")
    print(f"  predicted mean RTT: {report.predicted_mean_rtt:.1f} ms")
    print(
        f"  clients with total order under chosen announce order: "
        f"{report.consistent_clients}/{report.total_clients}"
    )
    return 0


def cmd_evaluate(args) -> int:
    anyopt = _make_anyopt(args)
    model = load_model(args.model, anyopt.testbed)
    config = AnycastConfig(site_order=args.sites, peer_ids=args.peers or ())
    evaluation = anyopt.evaluate(model, config)
    print(render_table(
        ["metric", "value"],
        [
            ["catchment accuracy", f"{100 * evaluation.accuracy:.1f}%"],
            ["prediction coverage", f"{100 * evaluation.coverage:.1f}%"],
            ["predicted mean RTT", f"{evaluation.predicted_mean_rtt:.1f} ms"],
            ["measured mean RTT", f"{evaluation.measured_mean_rtt:.1f} ms"],
            ["abs error", f"{evaluation.abs_rtt_error_ms:.1f} ms"],
            ["relative error", f"{100 * evaluation.rel_rtt_error:.1f}%"],
        ],
    ))
    return 0


def cmd_catchment(args) -> int:
    anyopt = _make_anyopt(args)
    config = AnycastConfig(site_order=args.sites, peer_ids=args.peers or ())
    deployment = anyopt.deploy(config)
    cmap = deployment.measure_catchments()
    print("catchment split:")
    print(render_catchment_bars(cmap.catchment_sizes(), total=len(anyopt.targets)))
    unmapped = len(anyopt.targets) - cmap.mapped_count()
    if unmapped:
        print(f"unmapped targets: {unmapped}")
    if args.chart:
        rtts = [r for r in deployment.measure_rtts() if r is not None]
        print("\nRTT CDF:")
        print(render_cdf(rtts, label="rtt(ms)"))
    return 0


def cmd_peers(args) -> int:
    anyopt = _make_anyopt(args)
    base = AnycastConfig(site_order=args.sites)
    peer_ids = anyopt.testbed.peer_ids()
    if args.max_peers:
        peer_ids = peer_ids[: args.max_peers]
    report = anyopt.incorporate_peers(base, peer_ids=peer_ids)
    beneficial = report.beneficial_peers()
    print(
        f"probed {len(report.probes)} peers: "
        f"{len(report.reachable_probes())} reachable, "
        f"{len(beneficial)} beneficial"
    )
    print(f"selected peers: {','.join(map(str, report.selected_peers)) or '(none)'}")
    measured = (
        report.final_mean_rtt_ms
        if report.final_mean_rtt_ms is not None
        else "(measurement failed)"
    )
    print(render_table(
        ["metric", "ms"],
        [
            ["baseline mean RTT", report.base_mean_rtt_ms],
            ["estimated with peers", report.estimated_final_mean_rtt_ms],
            ["measured with peers", measured],
        ],
    ))
    if report.failures:
        print(f"degraded run: gave up on {len(report.failures)} experiment(s)")
    return 0


def cmd_stability(args) -> int:
    from repro.core.stability import run_stability_study

    anyopt = _make_anyopt(args)
    config = AnycastConfig(site_order=args.sites)
    report = run_stability_study(anyopt.orchestrator, config, epochs=args.epochs)
    rows = []
    for snap in report.snapshots:
        unchanged = (
            "(baseline)"
            if snap.unchanged_fraction is None
            else f"{100 * snap.unchanged_fraction:.1f}%"
        )
        rows.append([snap.epoch, unchanged, f"{snap.mean_rtt_ms:.1f}"])
    print(render_table(["epoch", "unchanged catchments", "mean RTT (ms)"], rows))
    verdict = (
        "re-measurement recommended"
        if report.remeasurement_recommended
        else "configuration still healthy"
    )
    print(f"verdict: {verdict}")
    return 0


def cmd_explain(args) -> int:
    from repro.bgp import explain_catchment

    anyopt = _make_anyopt(args)
    config = AnycastConfig(site_order=args.sites, peer_ids=args.peers or ())
    deployment = anyopt.deploy(config)
    print(
        explain_catchment(
            anyopt.testbed.internet,
            deployment.converged,
            args.client,
            flow_nonce=deployment.experiment_id,
        )
    )
    return 0


def cmd_diff(args) -> int:
    from repro.core.diffs import diff_deployments

    anyopt = _make_anyopt(args)
    before = anyopt.deploy(AnycastConfig(site_order=args.before))
    after = anyopt.deploy(AnycastConfig(site_order=args.after))
    diff = diff_deployments(before, after)
    print(
        f"moved {len(diff.moves)}/{diff.unchanged + len(diff.moves)} clients "
        f"({100 * diff.moved_fraction:.1f}%), {diff.unmapped} unmapped"
    )
    flows = sorted(diff.flows().items(), key=lambda kv: -kv[1])
    rows = [
        [src if src is not None else "-", dst if dst is not None else "-", count]
        for (src, dst), count in flows[:15]
    ]
    if rows:
        print(render_table(["from site", "to site", "clients"], rows))
        try:
            print(f"mean RTT change of movers: {diff.mean_rtt_delta_ms():+.1f} ms")
        except ReproError:
            pass
    return 0


def _compile_snapshot_file(model, path: str) -> None:
    from repro.serve import compile_snapshot, write_snapshot

    snapshot = compile_snapshot(model)
    write_snapshot(snapshot, path)
    print(f"published snapshot {snapshot.version} to {path}")


def cmd_snapshot(args) -> int:
    from repro.serve import load_snapshot, read_header

    if args.snapshot:
        if args.verify:
            load_snapshot(args.snapshot)  # full payload checksum
        doc = dict(read_header(args.snapshot))
        doc.pop("arrays", None)
        print(render_table(
            ["field", "value"],
            [[key, json.dumps(doc[key]) if isinstance(doc[key], dict) else str(doc[key])]
             for key in sorted(doc)],
        ))
        if args.verify:
            print("payload checksum: ok")
        return 0
    if not (args.testbed and args.model and args.out):
        raise ReproError(
            "snapshot needs either --snapshot PATH to inspect, or "
            "--testbed/--model/--out to compile one"
        )
    testbed = load_testbed(args.testbed)
    model = load_model(args.model, testbed)
    _compile_snapshot_file(model, args.out)
    return 0


def cmd_predict(args) -> int:
    from repro.report import render_prediction_batch
    from repro.serve import LookupEngine, load_snapshot

    engine = LookupEngine(load_snapshot(args.snapshot))
    config = AnycastConfig(site_order=args.sites)
    clients = list(args.clients) if args.clients else None
    batch = engine.predict(config, clients)
    print(render_prediction_batch(batch, limit=args.limit))
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import signal

    snapshot_path = args.snapshot
    if snapshot_path is None:
        if not (args.testbed and args.model):
            raise ReproError(
                "serve needs --snapshot, or --testbed and --model to compile one"
            )
        testbed = load_testbed(args.testbed)
        model = load_model(args.model, testbed)
        snapshot_path = args.out or f"{args.model}.snap"
        _compile_snapshot_file(model, snapshot_path)

    watch = args.watch_config if args.watch else None
    server = ModelServer(
        snapshot_path,
        host=args.host,
        port=args.port,
        slo_specs=default_slo_specs(
            latency_threshold_ms=args.latency_slo_ms,
            max_snapshot_age_s=args.max_snapshot_age,
        ),
        guard=args.guard,
        watch=watch,
    )
    server.load()  # fail fast on a corrupt snapshot, before binding

    def _hot_reload():
        # Signal handlers run on the loop thread: schedule the
        # off-loop async reload instead of blocking the loop on I/O.
        async def _do():
            try:
                old, new = await server.reload_async()
                print(f"reloaded snapshot: {old} -> {new}")
            except ReproError as exc:
                print(
                    f"reload failed, old model keeps serving: {exc}",
                    file=sys.stderr,
                )

        asyncio.ensure_future(_do())

    async def _serve() -> None:
        await server.start()
        print(
            f"serving model {server.engine.version} on "
            f"http://{server.host}:{server.port} "
            "(POST /predict, GET /healthz /livez /metricsz /slozz /modelz, "
            "POST /reloadz)"
            + (" [watching snapshot for republish]" if watch else "")
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        # SIGHUP = hot reload, the audit/repair publish hand-off.
        loop.add_signal_handler(signal.SIGHUP, _hot_reload)
        serving = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print("shutting down (draining in-flight requests)")
        serving.cancel()
        try:
            await serving
        except asyncio.CancelledError:
            pass
        await server.shutdown(grace_s=args.drain_grace)

    asyncio.run(_serve())
    if getattr(args, "trace", None):
        write_trace_jsonl(server.tracer.records(), args.trace)
        print(f"trace written to {args.trace}")
    if getattr(args, "metrics_out", None):
        write_prometheus(server.metrics.snapshot(), args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0


def cmd_chaos(args) -> int:
    from repro.report import render_chaos_report
    from repro.serve import run_chaos

    config = dataclasses.replace(args.chaos, seed=args.seed)
    report = run_chaos(
        args.snapshot, config, host=args.host, port=args.port
    )
    print(render_chaos_report(report))
    if args.report:
        atomic_write(args.report, json.dumps(report.to_dict(), indent=2, sort_keys=True))
        print(f"chaos report written to {args.report}")
    if args.metricsz_out and getattr(report, "metricsz_text", ""):
        atomic_write(args.metricsz_out, report.metricsz_text)
        print(f"scraped /metricsz written to {args.metricsz_out}")
    return 0 if report.passed else 4


def cmd_inspect_trace(args) -> int:
    records = load_trace(args.trace_file)
    print(summarize_trace(records, top=args.top))
    return 0


def cmd_watch(args) -> int:
    if args.no_follow:
        records = load_heartbeats(args.heartbeat_file)
        if not records:
            print("no heartbeat records yet")
            return 1
        print(render_heartbeat_history(records))
        return 0
    try:
        for record in follow_heartbeats(
            args.heartbeat_file, poll_s=args.poll, max_polls=args.max_polls
        ):
            print(render_heartbeat(record), flush=True)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_plan(args) -> int:
    plan = plan_measurements(
        n_sites=args.sites,
        n_providers=args.providers,
        site_level=SiteLevelStrategy(args.site_level),
        parallel_prefixes=args.prefixes,
        spacing_hours=args.spacing_hours,
    )
    print(render_table(
        ["experiments", "count", "hours", "days"],
        [
            ["singleton", plan.singleton_experiments,
             plan.singleton_hours, plan.singleton_hours / 24],
            ["provider pairwise", plan.provider_pairwise_experiments,
             plan.hours_for(plan.provider_pairwise_experiments),
             plan.hours_for(plan.provider_pairwise_experiments) / 24],
            ["site pairwise", plan.site_pairwise_experiments,
             plan.hours_for(plan.site_pairwise_experiments),
             plan.hours_for(plan.site_pairwise_experiments) / 24],
            ["total", plan.total_experiments,
             plan.hours_for(plan.total_experiments),
             plan.total_days],
        ],
    ))
    print(f"naive alternative: 2^{args.sites} trial deployments")
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyopt",
        description="AnyOpt: predict and optimize IP anycast performance "
        "(SIGCOMM 2021 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every subcommand that runs a measurement campaign.
    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument(
        "--stats",
        action="store_true",
        help="print campaign metrics (counters, histograms, phases) at the end",
    )
    stats.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="profile the command with cProfile, write pstats data to PATH, "
        "and print the top functions by cumulative time",
    )
    stats.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="export the campaign's span tree as JSONL to PATH "
        "(inspect it with 'anyopt inspect-trace PATH')",
    )
    stats.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="export campaign metrics as Prometheus text exposition to PATH",
    )
    stats.add_argument(
        "--heartbeat",
        default=None,
        metavar="PATH",
        help="append periodic campaign-progress records (experiments done, "
        "events per second, ETA) as JSONL to PATH; tail it live with "
        "'anyopt watch PATH'",
    )
    stats.add_argument(
        "--heartbeat-interval",
        type=_positive_float,
        default=5.0,
        metavar="SECONDS",
        help="seconds between heartbeat records (default: 5)",
    )
    stats.add_argument(
        "--log-level",
        choices=list(LEVELS),
        default=None,
        help="structured-log verbosity for the repro.* loggers (default: warning)",
    )
    stats.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured logs as JSON lines instead of key=value text",
    )

    # Fault-injection and retry knobs, shared by campaign subcommands.
    faults = argparse.ArgumentParser(add_help=False)
    _add_config_flags(faults, settings=CampaignSettings)

    p = sub.add_parser("build-testbed", help="generate and save a testbed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stubs", type=int, default=TopologyParams.n_stub)
    p.add_argument("--tier2", type=int, default=TopologyParams.n_tier2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_testbed)

    p = sub.add_parser(
        "discover",
        parents=[stats, faults],
        help="run the measurement campaign",
    )
    p.add_argument("--testbed", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--site-level", choices=["pairwise", "rtt"], default="pairwise")
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a checkpoint after each phase; if PATH exists, resume from it",
    )
    p.add_argument(
        "--audit",
        action="store_true",
        help="audit the discovered model for integrity findings before saving",
    )
    p.add_argument(
        "--repair",
        action="store_true",
        help="after auditing, re-run the implicated experiments and save the "
        "repaired model (implies --audit)",
    )
    p.add_argument("--out", required=True)
    p.add_argument(
        "--snapshot-out",
        default=None,
        metavar="PATH",
        help="also compile the saved model into a serving snapshot at PATH "
        "(what 'anyopt serve --snapshot' loads)",
    )
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser(
        "audit",
        parents=[stats, faults],
        help="audit a saved model's prediction integrity; optionally self-heal it",
    )
    p.add_argument("--testbed", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ground-truth",
        type=int,
        default=0,
        metavar="K",
        help="deploy K seeded-random configurations and cross-check predicted "
        "catchments against the simulator (0 disables the cross-check)",
    )
    p.add_argument(
        "--min-accuracy",
        type=_probability,
        default=0.9,
        help="cross-check accuracy floor; below it the audit exits 3",
    )
    p.add_argument(
        "--repair",
        action="store_true",
        help="re-run only the implicated experiments until the findings clear "
        "or the budget runs out",
    )
    p.add_argument(
        "--max-rounds",
        type=_positive_int,
        default=3,
        help="escalating repair rounds before giving up",
    )
    p.add_argument(
        "--repair-budget",
        type=_positive_int,
        default=None,
        metavar="N",
        help="overall cap on re-run BGP experiments across all repair rounds",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a repair checkpoint after each round; if PATH exists, "
        "resume from it",
    )
    p.add_argument(
        "--out",
        default=None,
        help="where to save the repaired model (with --repair)",
    )
    p.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the audit report (and repair transcript) as JSON to PATH",
    )
    p.add_argument(
        "--snapshot-out",
        default=None,
        metavar="PATH",
        help="publish the (possibly repaired) model as a serving snapshot at "
        "PATH — an atomic replace, so a running 'anyopt serve' can hot-reload it",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("optimize", parents=[stats], help="offline configuration search")
    p.add_argument("--testbed", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=None, help="deployment size")
    p.add_argument(
        "--strategy",
        choices=list(available_strategies()),
        default="exhaustive",
    )
    p.add_argument("--max-evaluations", type=int, default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", parents=[stats], help="deploy a config and check predictions")
    p.add_argument("--testbed", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites", type=_parse_id_list, required=True)
    p.add_argument("--peers", type=_parse_id_list, default=())
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("catchment", parents=[stats], help="deploy a config and map catchments")
    p.add_argument("--testbed", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites", type=_parse_id_list, required=True)
    p.add_argument("--peers", type=_parse_id_list, default=())
    p.add_argument("--chart", action="store_true", help="also draw the RTT CDF")
    p.set_defaults(func=cmd_catchment)

    p = sub.add_parser(
        "peers",
        parents=[stats, faults],
        help="one-pass beneficial-peer selection",
    )
    p.add_argument("--testbed", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites", type=_parse_id_list, required=True)
    p.add_argument("--max-peers", type=int, default=None)
    p.set_defaults(func=cmd_peers)

    p = sub.add_parser("stability", parents=[stats], help="weekly re-measurement study (S6)")
    p.add_argument("--testbed", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites", type=_parse_id_list, required=True)
    p.add_argument("--epochs", type=int, default=3)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser(
        "explain", help="narrate why one client lands at its catchment site"
    )
    p.add_argument("--testbed", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites", type=_parse_id_list, required=True)
    p.add_argument("--peers", type=_parse_id_list, default=())
    p.add_argument("--client", type=int, required=True, help="client ASN")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "diff", help="compare the catchments of two configurations"
    )
    p.add_argument("--testbed", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--before", type=_parse_id_list, required=True)
    p.add_argument("--after", type=_parse_id_list, required=True)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "snapshot",
        help="compile a saved model into a serving snapshot, or inspect one",
    )
    p.add_argument("--testbed", default=None, help="testbed JSON (compile mode)")
    p.add_argument("--model", default=None, help="saved model JSON to compile")
    p.add_argument("--out", default=None, help="where to write the compiled snapshot")
    p.add_argument(
        "--snapshot",
        default=None,
        metavar="PATH",
        help="inspect an existing snapshot instead of compiling one",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="with --snapshot, also checksum the full payload",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser(
        "predict",
        help="batched offline catchment prediction from a snapshot",
    )
    p.add_argument("--snapshot", required=True, help="compiled snapshot to query")
    p.add_argument("--sites", type=_parse_id_list, required=True)
    p.add_argument(
        "--clients",
        type=_parse_id_list,
        default=None,
        help="client ids to predict (default: every client in the snapshot)",
    )
    p.add_argument(
        "--limit",
        type=_positive_int,
        default=20,
        help="prediction rows to print",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "serve",
        parents=[stats],
        help="serve catchment predictions over HTTP from a snapshot",
    )
    p.add_argument(
        "--snapshot", default=None, help="compiled snapshot to serve"
    )
    p.add_argument(
        "--testbed", default=None, help="testbed JSON (with --model, compiles a snapshot)"
    )
    p.add_argument(
        "--model",
        default=None,
        help="saved model JSON to compile and serve when --snapshot is absent",
    )
    p.add_argument(
        "--out",
        default=None,
        help="where the on-the-fly snapshot is written (default: MODEL.snap)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8080)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--latency-slo-ms",
        type=_positive_float,
        default=DEFAULT_LATENCY_THRESHOLD_MS,
        metavar="MS",
        help="latency-SLO threshold: 99%% of requests should answer within "
        "MS milliseconds (default: %(default)s)",
    )
    p.add_argument(
        "--max-snapshot-age",
        type=_positive_float,
        default=DEFAULT_MAX_SNAPSHOT_AGE_S,
        metavar="SECONDS",
        help="freshness-SLO budget: /slozz warns at 75%% of this snapshot "
        "age and pages past it (default: %(default)s)",
    )
    p.add_argument(
        "--drain-grace",
        type=_positive_float,
        default=10.0,
        metavar="SECONDS",
        help="graceful-shutdown drain budget; past it, stuck handlers are "
        "cancelled and their transports aborted (default: 10)",
    )
    p.add_argument(
        "--watch",
        action="store_true",
        help="reload-on-publish: poll the snapshot path and hot-swap the "
        "model when a new version is atomically published",
    )
    _add_config_flags(p, guard=GuardConfig, watch_config=WatchConfig)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "chaos",
        help="storm a model server with seeded hostile-client faults and "
        "snapshot publish churn, then assert the serving invariants",
    )
    p.add_argument(
        "--snapshot", required=True,
        help="snapshot path the server serves (and the harness republishes)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=_port,
        default=None,
        help="port of an already-running 'anyopt serve --watch' to storm; "
        "omit to self-host a guarded server in-process",
    )
    p.add_argument("--seed", type=int, default=0)
    _add_config_flags(p, chaos=ChaosConfig)
    p.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the JSON chaos report here",
    )
    p.add_argument(
        "--metricsz-out", default=None, metavar="PATH",
        help="write the post-storm /metricsz scrape here",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "inspect-trace",
        help="summarize a --trace JSONL file: slowest experiments, retry "
        "hot spots, fault timeline, phase breakdown",
    )
    p.add_argument("trace_file", metavar="TRACE", help="JSONL file written by --trace")
    p.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        help="rows in the slowest-experiments and retry tables",
    )
    p.set_defaults(func=cmd_inspect_trace)

    p = sub.add_parser(
        "watch",
        help="tail and render a campaign --heartbeat file",
    )
    p.add_argument(
        "heartbeat_file", metavar="HEARTBEAT",
        help="JSONL file a campaign is writing via --heartbeat",
    )
    p.add_argument(
        "--no-follow",
        action="store_true",
        help="render the records already in the file and exit instead of tailing",
    )
    p.add_argument(
        "--poll",
        type=_positive_float,
        default=1.0,
        metavar="SECONDS",
        help="poll interval while tailing (default: 1)",
    )
    p.add_argument(
        "--max-polls",
        type=_positive_int,
        default=None,
        metavar="N",
        help="stop after N consecutive empty polls (default: tail until the "
        "campaign's final record)",
    )
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("plan", help="measurement budget analysis (S4.5)")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--providers", type=int, required=True)
    p.add_argument("--site-level", choices=["pairwise", "rtt"], default="rtt")
    p.add_argument("--prefixes", type=int, default=4)
    p.add_argument("--spacing-hours", type=float, default=2.0)
    p.set_defaults(func=cmd_plan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, config_cls in getattr(args, "configs", {}).items():
            setattr(args, name, _config_from_args(config_cls, args))
    except ConfigurationError as exc:
        parser.error(str(exc))
    configure_logging(
        level=getattr(args, "log_level", None) or "warning",
        json_output=getattr(args, "log_json", False),
    )
    try:
        if getattr(args, "profile", None):
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            code = profiler.runcall(args.func, args)
            profiler.dump_stats(args.profile)
            print(f"\nprofile written to {args.profile}; top functions:")
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(10)
        else:
            code = args.func(args)
        anyopt = getattr(args, "_anyopt", None)
        if anyopt is not None:
            if getattr(args, "stats", False):
                print("\ncampaign stats:")
                print(render_metrics(anyopt.metrics.snapshot()))
                print("\n" + phase_breakdown(anyopt.tracer.records()))
            if getattr(args, "trace", None):
                write_trace_jsonl(anyopt.tracer.records(), args.trace)
                print(f"trace written to {args.trace}")
            if getattr(args, "metrics_out", None):
                write_prometheus(anyopt.metrics.snapshot(), args.metrics_out)
                print(f"metrics written to {args.metrics_out}")
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
