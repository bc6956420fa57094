"""End-to-end tests for the CLI."""

import dataclasses
import json

import pytest

import repro.cli as cli
from repro.cli import main
from repro.io import save_model, save_testbed
from repro.runtime.settings import CampaignSettings
from repro.serve import ChaosConfig, GuardConfig, WatchConfig
from tests.test_faults import REMOVED_SETTINGS, checkpoint_documents


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, testbed, anyopt_model):
    """A saved testbed + model pair the CLI commands can chain on."""
    root = tmp_path_factory.mktemp("cli")
    testbed_path = root / "testbed.json"
    model_path = root / "model.json"
    save_testbed(testbed, testbed_path)
    save_model(anyopt_model, model_path)
    return str(testbed_path), str(model_path)


class TestBuildTestbed:
    def test_builds_and_saves(self, tmp_path, capsys):
        out = tmp_path / "tb.json"
        code = main([
            "build-testbed", "--seed", "3", "--stubs", "120",
            "--tier2", "16", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        raw = json.loads(out.read_text())
        assert raw["format"] == "anyopt-testbed"
        assert "15 sites" in capsys.readouterr().out


class TestDiscoverOptimizeEvaluate:
    def test_discover(self, artifacts, tmp_path, capsys):
        testbed_path, _ = artifacts
        out = tmp_path / "model.json"
        code = main([
            "discover", "--testbed", testbed_path, "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "BGP experiments" in stdout
        assert out.exists()

    def test_optimize(self, artifacts, capsys):
        testbed_path, model_path = artifacts
        code = main([
            "optimize", "--testbed", testbed_path, "--model", model_path,
            "--seed", "7", "--size", "4",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "predicted mean RTT" in stdout
        sites_line = next(
            l for l in stdout.splitlines() if "sites (announce order)" in l
        )
        assert len(sites_line.split(":")[1].split(",")) == 4

    def test_optimize_greedy_strategy(self, artifacts, capsys):
        testbed_path, model_path = artifacts
        code = main([
            "optimize", "--testbed", testbed_path, "--model", model_path,
            "--seed", "7", "--strategy", "greedy",
        ])
        assert code == 0
        assert "greedy" in capsys.readouterr().out

    def test_evaluate(self, artifacts, capsys):
        testbed_path, model_path = artifacts
        code = main([
            "evaluate", "--testbed", testbed_path, "--model", model_path,
            "--seed", "7", "--sites", "1,4,6",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "catchment accuracy" in stdout
        assert "measured mean RTT" in stdout

    def test_profile_flag_writes_pstats(self, artifacts, tmp_path, capsys):
        testbed_path, model_path = artifacts
        prof = tmp_path / "evaluate.prof"
        code = main([
            "evaluate", "--testbed", testbed_path, "--model", model_path,
            "--seed", "7", "--sites", "1,4,6", "--profile", str(prof),
        ])
        assert code == 0
        assert prof.exists()
        stdout = capsys.readouterr().out
        assert f"profile written to {prof}" in stdout
        assert "cumulative" in stdout  # the pstats top-functions table


class TestCatchmentAndPeers:
    def test_catchment_bars(self, artifacts, capsys):
        testbed_path, _ = artifacts
        code = main([
            "catchment", "--testbed", testbed_path, "--seed", "7",
            "--sites", "1,6",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "site 1" in stdout and "site 6" in stdout

    def test_catchment_chart(self, artifacts, capsys):
        testbed_path, _ = artifacts
        code = main([
            "catchment", "--testbed", testbed_path, "--seed", "7",
            "--sites", "1,6", "--chart",
        ])
        assert code == 0
        assert "RTT CDF" in capsys.readouterr().out

    def test_peers(self, artifacts, capsys):
        testbed_path, _ = artifacts
        code = main([
            "peers", "--testbed", testbed_path, "--seed", "7",
            "--sites", "1,4,6", "--max-peers", "5",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "probed 5 peers" in stdout
        assert "baseline mean RTT" in stdout


class TestStabilityAndExplain:
    def test_stability(self, artifacts, capsys):
        testbed_path, _ = artifacts
        code = main([
            "stability", "--testbed", testbed_path, "--seed", "7",
            "--sites", "1,4,6", "--epochs", "2",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "unchanged catchments" in stdout
        assert "verdict:" in stdout

    def test_explain(self, artifacts, testbed, targets, capsys):
        testbed_path, _ = artifacts
        client = targets[0].asn
        code = main([
            "explain", "--testbed", testbed_path, "--seed", "7",
            "--sites", "1,6", "--client", str(client),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "reaches site" in stdout
        assert f"AS {client}" in stdout

    def test_explain_unroutable_client_errors(self, artifacts, capsys):
        testbed_path, _ = artifacts
        code = main([
            "explain", "--testbed", testbed_path, "--seed", "7",
            "--sites", "1,6", "--client", "55",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestPlan:
    def test_paper_numbers(self, capsys):
        code = main(["plan", "--sites", "500", "--providers", "20"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "500" in stdout and "380" in stdout
        assert "2^500" in stdout


class TestFaultFlags:
    def test_discover_with_faults_and_checkpoint(self, artifacts, tmp_path, capsys):
        testbed_path, _ = artifacts
        out = tmp_path / "model.json"
        ckpt = tmp_path / "campaign.ckpt"
        argv = [
            "discover", "--testbed", testbed_path, "--seed", "7",
            "--fault-announcement", "0.3", "--max-attempts", "2",
            "--checkpoint", str(ckpt), "--out", str(out), "--stats",
        ]
        code = main(argv)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "degraded campaign" in stdout
        assert "faults_injected" in stdout
        assert ckpt.exists()
        first = out.read_text()

        # Second run resumes from the finished checkpoint: every phase
        # replays from disk, and the model is byte-identical.
        code = main(argv)
        assert code == 0
        assert "resuming from checkpoint" in capsys.readouterr().out
        assert out.read_text() == first

    def test_discover_reports_the_experiments_that_ran(self, artifacts, tmp_path, capsys):
        """Failed tasks reserve ids they never deploy; the summary line
        counts what ran, as the ``experiments`` counter does, and names
        the rest."""
        testbed_path, _ = artifacts
        out = tmp_path / "model.json"
        code = main([
            "discover", "--testbed", testbed_path, "--seed", "7",
            "--fault-announcement", "0.15", "--fault-convergence-timeout", "0.05",
            "--max-attempts", "2", "--out", str(out), "--stats",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        summary = next(l for l in lines if l.startswith("measurement campaign:"))
        ran = int(summary.split()[2])
        unrun = [int(i) for i in summary.split("reserved id(s) ")[1].split(" never")[0].split(", ")]
        counter = next(l for l in lines if l.split()[:1] == ["experiments"])
        assert ran == int(counter.split()[1])
        assert ran + len(unrun) == json.loads(out.read_text())["experiments_used"]

    def test_discover_heartbeat_total_is_what_discover_runs(self, artifacts, tmp_path):
        testbed_path, _ = artifacts
        heartbeat = tmp_path / "hb.jsonl"
        for site_level in ("pairwise", "rtt"):
            code = main([
                "discover", "--testbed", testbed_path, "--seed", "7",
                "--site-level", site_level, "--out", str(tmp_path / "model.json"),
                "--heartbeat", str(heartbeat), "--heartbeat-interval", "0.05",
            ])
            assert code == 0
            last = json.loads(heartbeat.read_text().splitlines()[-1])
            assert last["final"]
            assert last["experiments_done"] == last["experiments_total"]

    @pytest.mark.parametrize(
        "extra", [{"stray_knob": 1}, REMOVED_SETTINGS], ids=["stray", "removed"]
    )
    def test_checkpoint_with_unknown_settings_key_exits_2(
        self, artifacts, tmp_path, capsys, extra
    ):
        """A checkpoint whose settings this version does not declare
        (e.g. one written before the convergence or executor knobs were
        removed) is a reported error, not a traceback."""
        testbed_path, _ = artifacts
        ckpt = tmp_path / "campaign.ckpt"
        argv = [
            "discover", "--testbed", testbed_path, "--seed", "7",
            "--checkpoint", str(ckpt), "--out", str(tmp_path / "model.json"),
        ]
        discovery, _ = checkpoint_documents(extra)
        ckpt.write_text(json.dumps(discovery))
        assert main(argv) == 2
        stderr = capsys.readouterr().err
        assert "error:" in stderr and "unknown campaign settings" in stderr
        for key in extra:
            assert repr(key) in stderr

    def test_fault_probability_validated(self):
        with pytest.raises(SystemExit):
            main([
                "discover", "--testbed", "x", "--out", "y",
                "--fault-announcement", "1.5",
            ])

    def test_max_attempts_validated(self):
        with pytest.raises(SystemExit):
            main([
                "discover", "--testbed", "x", "--out", "y",
                "--max-attempts", "-1",
            ])


#: Each config class with flagged fields -> a command line that reaches
#: them, naming files that do not exist.
KNOB_COMMANDS = {
    CampaignSettings: ["discover", "--testbed", "missing.json", "--out", "m.json"],
    GuardConfig: ["serve", "--snapshot", "missing.snap"],
    WatchConfig: ["serve", "--snapshot", "missing.snap"],
    ChaosConfig: ["chaos", "--snapshot", "missing.snap"],
}

FLAGGED = [
    pytest.param(config_cls, knob, id=f"{config_cls.__name__}.{knob.name}")
    for config_cls in KNOB_COMMANDS
    for knob in dataclasses.fields(config_cls)
    if "flag" in knob.metadata
]


@pytest.fixture
def dispatched(monkeypatch):
    """The parsed args of each command ``main`` dispatches; no command
    runs, so no file is read."""
    calls = []
    for name in vars(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args: calls.append(args) or 0)
    return calls


def built_config(args, config_cls):
    (config,) = [getattr(args, name) for name, cls in args.configs.items() if cls is config_cls]
    return config


class TestConfigFlags:
    """Every flag declared on a config field, found through the fields."""

    @pytest.mark.parametrize("config_cls, knob", FLAGGED)
    def test_flag_sets_its_field(self, dispatched, config_cls, knob):
        value = knob.default + 1 if type(knob.default) is int else knob.default / 2 or 0.5
        assert main([*KNOB_COMMANDS[config_cls], knob.metadata["flag"], str(value)]) == 0
        (args,) = dispatched
        config = built_config(args, config_cls)
        assert config == dataclasses.replace(config_cls(), **{knob.name: value})

    @pytest.mark.parametrize("config_cls, knob", FLAGGED)
    def test_nan_exits_2_before_any_file_is_read(self, dispatched, config_cls, knob):
        with pytest.raises(SystemExit) as exc:
            main([*KNOB_COMMANDS[config_cls], knob.metadata["flag"], "nan"])
        assert exc.value.code == 2
        assert not dispatched

    @pytest.mark.parametrize("config_cls, knob", FLAGGED)
    def test_out_of_range_value_names_its_flag(self, dispatched, capsys, config_cls, knob):
        flag = knob.metadata["flag"]
        with pytest.raises(SystemExit) as exc:
            main([*KNOB_COMMANDS[config_cls], flag, "-1"])
        assert exc.value.code == 2
        assert not dispatched
        error = capsys.readouterr().err.splitlines()[-1]
        assert flag in error

    def test_zero_or_none_disables_a_deadline(self, dispatched):
        main(["serve", "--request-timeout", "none", "--idle-timeout", "0"])
        guard = built_config(dispatched[0], GuardConfig)
        assert guard.handler_timeout_s is None and guard.idle_timeout_s is None
        assert guard.header_timeout_s == GuardConfig.header_timeout_s

    @pytest.mark.parametrize("argv", [
        ["discover", "--testbed", "missing.json", "--out", "m.json",
         "--heartbeat-interval", "nan"],
        ["serve", "--header-timeout", "nan"],
        ["serve", "--latency-slo-ms", "nan"],
        ["serve", "--max-snapshot-age", "inf"],
    ])
    def test_non_finite_value_flags_exit_2(self, dispatched, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not dispatched


class TestErrors:
    def test_missing_file(self, capsys):
        code = main([
            "discover", "--testbed", "/nonexistent.json",
            "--out", "/tmp/x.json",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_site_list(self):
        with pytest.raises(SystemExit):
            main(["catchment", "--testbed", "x", "--sites", "1,a,3"])

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])
