"""End-to-end tests for the CLI."""

import json

import pytest

from repro.cli import main
from repro.io import save_model, save_testbed
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

    def test_discover_process_executor_matches_thread(self, artifacts, tmp_path,
                                                      capsys):
        testbed_path, _ = artifacts
        thread_out = tmp_path / "thread.json"
        process_out = tmp_path / "process.json"
        base = ["discover", "--testbed", testbed_path, "--seed", "7",
                "--parallelism", "2"]
        assert main(base + ["--out", str(thread_out)]) == 0
        assert main(base + ["--executor", "process",
                            "--out", str(process_out)]) == 0
        assert json.loads(thread_out.read_text()) == json.loads(
            process_out.read_text()
        )

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

    def test_cache_dir_reused_across_invocations(self, artifacts, tmp_path,
                                                 capsys):
        testbed_path, model_path = artifacts
        cache_dir = tmp_path / "convergence"
        argv = [
            "evaluate", "--testbed", testbed_path, "--model", model_path,
            "--seed", "7", "--sites", "1,4,6", "--stats",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "convergence_cache_disk_hits" not in first
        # Same seed, same inputs: the second CLI invocation re-derives
        # the same cache key and reuses the spilled converged state.
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "convergence_cache_disk_hits" in second


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

    @pytest.mark.parametrize(
        "extra", [{"stray_knob": 1}, REMOVED_SETTINGS], ids=["stray", "removed"]
    )
    def test_checkpoint_with_unknown_settings_key_exits_2(
        self, artifacts, tmp_path, capsys, extra
    ):
        """A checkpoint whose settings this version does not declare
        (e.g. one written before the convergence knobs were removed) is
        a reported error, not a traceback."""
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

    def test_parallelism_validated(self):
        with pytest.raises(SystemExit):
            main([
                "discover", "--testbed", "x", "--out", "y",
                "--parallelism", "0",
            ])

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
