"""Tests for the command-line experiment runner."""

import re

import pytest

from repro.__main__ import ALIASES, EXPERIMENTS, main
from repro.common.errors import SendStreamError
from repro.obs import RuntimeProfiler


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_every_paper_artifact_is_reachable(self):
        """Every table/figure id of the paper's evaluation resolves."""
        ids = {"tab01", "tab02", "tab03", "tab04"} | {
            f"fig{n:02d}" for n in (2, 3, 4, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18)
        }
        reachable = set(EXPERIMENTS) | set(ALIASES)
        assert ids <= reachable

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99", "--scale", "4096"])

    def test_runs_single_experiment(self, capsys):
        assert main(["tab02", "--scale", "4096", "--quick", "8"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_alias_resolution(self, capsys):
        assert main(["tab03", "--scale", "4096", "--quick", "16"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_config_error_during_run_is_one_line(self, capsys):
        """A domain error raised inside a run exits 2 with one line on
        stderr, not a traceback."""
        assert main(["storm", "--nodes", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: storm needs at least one node and one VM\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "experiment, denominator", [("storm", "0"), ("fig18", "-5"), ("tab02", "nan")]
    )
    def test_bad_scale_is_one_line(self, experiment, denominator, capsys):
        """A scale denominator that is not positive and finite exits 2 with
        one line before anything runs (0 used to raise ZeroDivisionError,
        a negative one to print a table of negative image sizes)."""
        assert main([experiment, "--scale", denominator]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: scale denominator must be positive and finite, "
            f"got {float(denominator)}\n"
        )
        assert captured.out == ""

    def test_any_repro_error_during_run_is_one_line(self, capsys, monkeypatch):
        """Storage, network and simulation errors reach the CLI the same
        way a ConfigError does."""
        import repro.__main__ as cli

        def broken(argv):
            raise SendStreamError("incremental receive needs snapshot @v2")

        monkeypatch.setattr(cli, "_dispatch", broken)
        assert main(["storm"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: incremental receive needs snapshot @v2\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--days", "--registrations-per-day"])
    def test_churn_rejects_non_positive_rates_at_validation(self, flag, capsys):
        """``churn --days 0`` names the parameter before anything runs."""
        with pytest.raises(SystemExit):
            main(["churn", flag, "0"])
        name = flag[2:].replace("-", "_")
        assert f"param '{name}': must be > 0" in capsys.readouterr().err


class TestExportDirValidation:
    """Bad --metrics/--store/--out targets fail up front, naming the flag."""

    def test_bad_metrics_dir_fails_before_running(self, capsys):
        with pytest.raises(SystemExit):
            main(["storm", "--metrics", "/proc/nope/run"])
        err = capsys.readouterr().err
        assert "--metrics" in err and "/proc/nope/run" in err

    def test_bad_store_dir_fails_before_sweeping(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            main([
                "sweep", "storm", "--grid", "seed=0..1",
                "--store", "/proc/nope/results",
            ])
        err = capsys.readouterr().err
        assert "--store" in err

    def test_bad_out_dir_fails_before_sweeping(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "sweep", "storm", "--grid", "seed=0..1",
                "--out", "/proc/nope/out",
            ])
        err = capsys.readouterr().err
        assert "--out" in err

    def test_good_metrics_dir_is_created_up_front(self, tmp_path, capsys):
        target = tmp_path / "deep" / "run"
        assert main([
            "storm", "--nodes", "2", "--vms-per-node", "1",
            "--scale", "4096", "--metrics", str(target),
        ]) == 0
        capsys.readouterr()
        assert (target / "report.json").exists()


STORM_FAST = [
    "storm", "--nodes", "2", "--vms-per-node", "1",
    "--scale", "4096", "--json",
]


class TestProgressAndRuntime:
    """--progress and the runtime profiler are stderr/side-file only:
    canonical stdout stays byte-identical with them enabled."""

    def test_progress_leaves_json_stdout_byte_identical(self, capsys, monkeypatch):
        # a tiny storm ends long before TICK_EVERY events: tick every 20 so
        # the CLI run really beats
        monkeypatch.setattr(RuntimeProfiler, "tick_every", 20)
        assert main(STORM_FAST) == 0
        plain = capsys.readouterr()
        assert main(STORM_FAST + ["--progress"]) == 0
        progressed = capsys.readouterr()
        assert progressed.out == plain.out
        assert "[runtime]" in plain.err and "[runtime]" in progressed.err
        assert re.search(r"^\[progress\] .*sim \d+\.\ds", progressed.err, re.M)
        assert "[progress]" not in plain.err

    def test_sweep_progress_leaves_json_stdout_byte_identical(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_SCALE", "4096")
        argv = [
            "sweep", "storm", "--grid", "seed=0..1",
            "--set", "nodes=2", "--set", "vms_per_node=1", "--json",
        ]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--progress"]) == 0
        progressed = capsys.readouterr()
        assert progressed.out == plain.out
        assert "[progress] sweep 2/2 points" in progressed.err
        assert "[progress]" not in plain.err

    def test_metrics_run_writes_runtime_json_next_to_exports(
        self, tmp_path, capsys
    ):
        import json

        target = tmp_path / "run"
        assert main(STORM_FAST[:-1] + ["--metrics", str(target)]) == 0
        capsys.readouterr()
        block = json.loads((target / "runtime.json").read_text())
        assert block["schema"] == "repro.runtime/1"
        assert block["engine"]["events"] > 0
        # the scenario's phase timers came through the active profiler
        assert any(name.startswith("storm.") for name in block["phases"])


class TestSloCli:
    def _write(self, path, payload):
        import json

        path.write_text(json.dumps(payload))
        return str(path)

    def test_check_passes_and_fails_on_threshold(self, tmp_path, capsys):
        spec = tmp_path / "slo.toml"
        spec.write_text(
            '[[slo]]\nmetric = "latency.p99"\nmax = 10.0\n'
        )
        good = self._write(tmp_path / "good.json", {"latency": {"p99": 4.0}})
        bad = self._write(tmp_path / "bad.json", {"latency": {"p99": 40.0}})
        assert main(["slo", "check", str(spec), good]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["slo", "check", str(spec), bad]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_check_fails_when_nothing_matches(self, tmp_path, capsys):
        spec = tmp_path / "slo.toml"
        spec.write_text('[[slo]]\nmetric = "gone.metric"\nmin = 1.0\n')
        payload = self._write(tmp_path / "r.json", {"latency": {"p99": 1.0}})
        assert main(["slo", "check", str(spec), payload]) == 1
        assert "no value matched" in capsys.readouterr().out

    def test_check_json_verdicts_are_machine_readable(self, tmp_path, capsys):
        import json

        spec = tmp_path / "slo.json"
        spec.write_text(
            json.dumps({"slo": [{"metric": "latency.p99", "max": 10.0}]})
        )
        payload = self._write(tmp_path / "r.json", {"latency": {"p99": 4.0}})
        assert main(["slo", "check", str(spec), payload, "--json"]) == 0
        verdicts = json.loads(capsys.readouterr().out)
        assert verdicts["ok"] is True
        assert verdicts["verdicts"][0]["value"] == 4.0

    def test_diff_flags_regressions_by_direction(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json",
            {"engine_events_per_s": 100.0, "engine_elapsed_s": 1.0},
        )
        worse = self._write(
            tmp_path / "worse.json",
            {"engine_events_per_s": 50.0, "engine_elapsed_s": 1.0},
        )
        better = self._write(
            tmp_path / "better.json",
            {"engine_events_per_s": 200.0, "engine_elapsed_s": 0.5},
        )
        assert main(["slo", "diff", old, worse, "--tolerance", "25%"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert main(["slo", "diff", old, better, "--tolerance", "25%"]) == 0
        assert "improved" in capsys.readouterr().out

    def test_diff_metric_filter_ignores_other_leaves(self, tmp_path, capsys):
        old = self._write(
            tmp_path / "old.json", {"rate": 100.0, "rss_bytes": 100.0}
        )
        new = self._write(
            tmp_path / "new.json", {"rate": 99.0, "rss_bytes": 900.0}
        )
        assert main([
            "slo", "diff", old, new, "--tolerance", "5%", "--metric", "rate",
        ]) == 0
        capsys.readouterr()
        assert main(["slo", "diff", old, new, "--tolerance", "5%"]) == 1
