"""Tests for the declarative params layer and the multiprocess sweep runner.

The contracts under test are the ones the CLI advertises: typed parameter
validation happens before anything runs, grid expansion is deterministic,
per-point derived seeds never collide across grid axes, ``--workers N``
output is byte-identical to ``--workers 1``, and an interrupted sweep
resumed from its manifest completes only the missing points.
"""

import json

import pytest

from repro.common.errors import ConfigError
from repro.common.report import ReportBase, dumps_canonical
from repro.experiments import registry
from repro.experiments.params import ParamSpec, parse_bool, validate_params
from repro.sweep import SweepSpec, load_manifest, parse_grid, run_sweep
from repro.sweep.summary import render_sweep

#: a storm sweep small enough for unit tests (two boots per point)
TINY = {"vms_per_node": 1}


class TestParamSpec:
    def test_parse_typed(self):
        assert ParamSpec("n", int, 0).parse("16") == 16
        assert ParamSpec("x", float, 0.0).parse("1.5") == 1.5
        assert ParamSpec("s", str, "").parse("abc") == "abc"
        assert ParamSpec("b", bool, False).parse("true") is True

    def test_parse_bool_tokens(self):
        assert parse_bool("YES") and parse_bool("1") and parse_bool("on")
        assert not (parse_bool("no") or parse_bool("0") or parse_bool("off"))
        with pytest.raises(ConfigError):
            parse_bool("maybe")

    def test_parse_rejects_bad_token(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            ParamSpec("n", int, 0).parse("sixteen")

    def test_coerce_rejects_bool_as_int(self):
        with pytest.raises(ConfigError):
            ParamSpec("n", int, 0).coerce(True)

    def test_choices_enforced(self):
        spec = ParamSpec("fabric", str, "a", choices=("a", "b"))
        with pytest.raises(ConfigError, match="not in"):
            spec.coerce("c")

    def test_check_hook_runs(self):
        def refuse(value):
            raise ConfigError("nope")

        with pytest.raises(ConfigError, match="nope"):
            ParamSpec("s", str, None, check=refuse).coerce("x")

    def test_flag_derivation(self):
        assert ParamSpec("vms_per_node", int, 8).flag == "--vms-per-node"

    def test_validate_fills_defaults_and_rejects_unknown(self):
        specs = (ParamSpec("a", int, 1), ParamSpec("b", str, None))
        assert validate_params(specs, {"a": 3}) == {"a": 3, "b": None}
        with pytest.raises(ConfigError, match="does not accept"):
            validate_params(specs, {"c": 1})


class TestRegistryParams:
    def test_storm_declares_typed_params(self):
        exp = registry.get("storm")
        names = [spec.name for spec in exp.params]
        assert names == [
            "nodes", "vms_per_node", "seed", "faults", "trace", "metrics",
        ]
        assert exp.param("nodes").gridable
        assert not exp.param("trace").gridable

    def test_no_experiment_touches_argparse(self):
        """Param flow is declarative: no run module imports argparse."""
        import importlib
        import pkgutil

        import repro.experiments as package

        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"repro.experiments.{info.name}")
            assert not hasattr(module, "argparse"), module.__name__

    def test_validate_routes_through_specs(self):
        exp = registry.get("recovery")
        params = exp.validate({"nodes": 4})
        assert params["nodes"] == 4
        # recovery's declared default fault plan survives validation
        assert params["faults"] is not None and "crash:" in params["faults"]

    def test_bad_fault_plan_rejected_at_validation(self):
        with pytest.raises(ConfigError, match="bad fault spec"):
            registry.get("storm").validate({"faults": "explode:x@1+1"})

    def test_render_fallback_without_module_render_is_config_error(self):
        from repro.experiments.registry import Experiment

        def run(ctx=None):
            return None

        # this test module has no render(); the fallback must say so
        run.__module__ = __name__
        exp = Experiment(exp_id="ghost", title="t", run=run)
        with pytest.raises(ConfigError) as excinfo:
            exp.render(object())
        assert "ghost" in str(excinfo.value)
        assert __name__ in str(excinfo.value)


class TestDefaultContextEnv:
    def test_env_changes_are_honoured(self, monkeypatch):
        from repro.experiments.context import default_context

        monkeypatch.setenv("REPRO_SCALE", "2048")
        monkeypatch.setenv("REPRO_QUICK", "8")
        first = default_context()
        assert first.config.scale == 1 / 2048
        assert first.config.quick == 8
        # same env -> same memoised context
        assert default_context() is first
        # edited env -> a matching new context, not the frozen first one
        monkeypatch.setenv("REPRO_SCALE", "4096")
        second = default_context()
        assert second is not first
        assert second.config.scale == 1 / 4096

    @pytest.mark.parametrize("denominator", ["0", "-32", "inf"])
    def test_bad_env_scale_is_config_error(self, monkeypatch, denominator):
        from repro.experiments.context import default_context

        monkeypatch.setenv("REPRO_SCALE", denominator)
        with pytest.raises(ConfigError, match="scale denominator"):
            default_context()


    @pytest.mark.parametrize(
        "name, value", [("REPRO_SCALE", "abc"), ("REPRO_QUICK", "2.5")]
    )
    def test_non_numeric_env_is_config_error(self, monkeypatch, name, value):
        from repro.experiments.context import default_context

        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigError, match=f"{name}=.* is not a valid"):
            default_context()


class TestSweepBadEnvNumber:
    """A ``REPRO_SCALE``/``REPRO_QUICK`` that does not parse fails the
    sweep with one ``error:`` line and exit 2, not a traceback."""

    @pytest.mark.parametrize(
        "name, value, expected",
        [
            ("REPRO_SCALE", "abc", "REPRO_SCALE='abc' is not a valid float"),
            ("REPRO_QUICK", "two", "REPRO_QUICK='two' is not a valid int"),
            ("REPRO_QUICK", "2.5", "REPRO_QUICK='2.5' is not a valid int"),
        ],
    )
    def test_env(self, capsys, monkeypatch, tmp_path, name, value, expected):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(name, value)
        assert main(["sweep", "churn", "--grid", "seed=0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {expected}\n"
        assert captured.out == ""
        assert not list(tmp_path.iterdir())


class TestSweepBadScale:
    """A bad denominator fails the sweep up front with exit 2, whether it
    comes from ``--scale`` or from ``REPRO_SCALE`` (the flag's default)."""

    def _assert_usage_error(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: scale denominator must be positive and finite" in err
        assert "Traceback" not in err

    def test_flag(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        self._assert_usage_error(
            ["sweep", "churn", "--grid", "seed=0", "--scale", "0"], capsys
        )

    def test_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_SCALE", "0")
        self._assert_usage_error(["sweep", "churn", "--grid", "seed=0"], capsys)


class TestGridParsing:
    def test_values_and_ranges(self):
        grid = parse_grid("storm", "nodes=16,32 seed=0..3")
        assert grid == {"nodes": (16, 32), "seed": (0, 1, 2, 3)}

    def test_values_are_typed(self):
        grid = parse_grid("fig18", "fabric=32GbIB,1GbE")
        assert grid == {"fabric": ("32GbIB", "1GbE")}

    def test_non_gridable_axis_rejected(self):
        with pytest.raises(ConfigError, match="not gridable"):
            parse_grid("storm", "trace=a,b")

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="no parameter"):
            parse_grid("storm", "warp=1,2")

    def test_malformed_axis_rejected(self):
        with pytest.raises(ConfigError, match="bad grid axis"):
            parse_grid("storm", "nodes")

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError, match="empty range"):
            parse_grid("storm", "seed=3..1")

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            parse_grid("storm", "seed=0 seed=1")


class TestSweepSpec:
    def test_expansion_is_declaration_ordered_row_major(self):
        # grid typed seed-first: expansion still iterates nodes (declared
        # first) as the slow axis
        spec = SweepSpec.from_grid("storm", "seed=0,1 nodes=2,4", TINY)
        combos = [
            (p.requested["nodes"], p.requested["seed"]) for p in spec.expand()
        ]
        assert combos == [(2, 0), (2, 1), (4, 0), (4, 1)]
        assert [p.index for p in spec.expand()] == [0, 1, 2, 3]

    def test_expansion_is_stable(self):
        spec = SweepSpec.from_grid("storm", "nodes=2,4 seed=0..1", TINY)
        assert [p.key for p in spec.expand()] == [p.key for p in spec.expand()]

    def test_derived_seeds_do_not_collide_across_axes(self):
        """(nodes=2, seed=0) and (nodes=4, seed=0) must not share a seed —
        nor any other pair in the grid."""
        spec = SweepSpec.from_grid("storm", "nodes=2,4,8 seed=0..4", TINY)
        points = spec.expand()
        seeds = {p.derived_seed for p in points}
        assert len(seeds) == len(points)
        assert all(p.params["seed"] == p.derived_seed for p in points)

    def test_derived_seed_only_when_declared(self):
        spec = SweepSpec("fig18", {"fabric": ["32GbIB"]})
        (point,) = spec.expand()
        assert point.derived_seed is None
        assert "seed" not in point.params

    def test_fixed_and_grid_overlap_rejected(self):
        with pytest.raises(ConfigError, match="both"):
            SweepSpec("storm", {"seed": [0]}, {"seed": 1})

    def test_aliases_canonicalised(self):
        spec = SweepSpec("tab03", {})
        assert spec.experiment == "fig14"

    def test_from_toml_file(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            'experiment = "storm"\n'
            "seeds = [0, 1]\n"
            "[grid]\nnodes = [2, 4]\n"
            "[params]\nvms_per_node = 1\n"
        )
        spec = SweepSpec.from_file(path)
        assert spec.grid == {"nodes": (2, 4), "seed": (0, 1)}
        assert spec.fixed == {"vms_per_node": 1}

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps(
                {
                    "experiment": "storm",
                    "grid": {"seed": [0, 1]},
                    "params": {"vms_per_node": 1},
                }
            )
        )
        spec = SweepSpec.from_file(path)
        assert spec.grid == {"seed": (0, 1)}

    def test_file_without_experiment_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text("{}")
        with pytest.raises(ConfigError, match="experiment"):
            SweepSpec.from_file(path)


def _tiny_spec(grid="nodes=2 seed=0,1"):
    return SweepSpec.from_grid("storm", grid, TINY)


class TestRunner:
    def test_serial_vs_parallel_byte_identical(self):
        serial = run_sweep(_tiny_spec(), workers=1, scale=4096.0)
        parallel = run_sweep(_tiny_spec(), workers=2, scale=4096.0)
        assert dumps_canonical(serial.to_dict()) == dumps_canonical(
            parallel.to_dict()
        )

    def test_to_dict_shares_point_results(self):
        result = run_sweep(_tiny_spec(), workers=1, scale=4096.0)
        payload = result.to_dict()
        assert dumps_canonical(payload) == dumps_canonical(
            ReportBase.to_dict(result)
        )
        for point, entry in zip(result.points, payload["points"], strict=True):
            assert entry["result"] is point["result"]

    def test_points_in_expansion_order(self):
        result = run_sweep(_tiny_spec("nodes=2,4 seed=0"), workers=2, scale=4096.0)
        assert [p["params"]["nodes"] for p in result.points] == [2, 4]

    def test_summary_aggregates_across_seeds(self):
        result = run_sweep(_tiny_spec(), workers=1, scale=4096.0)
        metric = "report.squirrel.latency.p50"
        assert metric in result.summary
        group = result.summary[metric]["nodes=2"]
        assert group["n"] == 2
        assert group["p50"] > 0

    def test_manifest_resume_runs_only_missing_points(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        spec = _tiny_spec("nodes=2 seed=0..2")
        full = run_sweep(spec, workers=1, manifest_path=str(manifest), scale=4096.0)
        lines = manifest.read_text().splitlines()
        assert len(lines) == 3
        # simulate a mid-run kill: keep two completed points + a torn line
        manifest.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])
        ran = []
        resumed = run_sweep(
            spec,
            workers=1,
            manifest_path=str(manifest),
            resume=True,
            scale=4096.0,
            progress=lambda point, status, elapsed: ran.append(
                (point.requested["seed"], status)
            ),
        )
        statuses = dict(ran)
        assert statuses == {0: "cached", 1: "cached", 2: "run"}
        assert dumps_canonical(resumed.to_dict()) == dumps_canonical(
            full.to_dict()
        )
        # the manifest is now complete again
        assert len(load_manifest(str(manifest), "storm")) == 3

    def test_resume_rejects_foreign_manifest(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        manifest.write_text(
            dumps_canonical(
                {"experiment": "fig18", "key": "{}", "index": 0, "result": {}}
            )
            + "\n"
        )
        with pytest.raises(ConfigError, match="fig18"):
            load_manifest(str(manifest), "storm")

    def test_resume_without_manifest_rejected(self):
        with pytest.raises(ConfigError, match="manifest"):
            run_sweep(_tiny_spec(), resume=True)

    def test_render_sweep_has_points_and_aggregates(self):
        result = run_sweep(_tiny_spec(), workers=1, scale=4096.0)
        text = render_sweep(result, metrics=registry.get("storm").metrics)
        assert "2 points" in text
        assert "squirrel.latency.p50" in text
        assert "aggregates across seeds" in text


class TestSweepCli:
    def test_cli_serial_vs_parallel_byte_identical(self, capsys):
        from repro.__main__ import main

        argv = [
            "sweep", "storm", "--grid", "nodes=2 seed=0,1",
            "--set", "vms_per_node=1", "--json",
        ]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        payload = json.loads(serial)
        assert payload["experiment"] == "storm"
        assert len(payload["points"]) == 2
        assert [p["params"]["seed"] for p in payload["points"]] == [0, 1]

    def test_cli_json_with_out_prints_the_stored_report(self, tmp_path, capsys):
        """``--out DIR --json`` prints the very bytes of ``report.json``,
        and they match a ``--json`` run without a store."""
        from repro.__main__ import main

        argv = [
            "sweep", "storm", "--grid", "nodes=2 seed=0,1",
            "--set", "vms_per_node=1", "--json",
        ]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--out", str(tmp_path / "store")]) == 0
        stored = capsys.readouterr().out
        assert stored == plain
        report = tmp_path / "store" / "report.json"
        assert report.read_text(encoding="utf-8") == stored

    def test_cli_resume(self, tmp_path, capsys):
        from repro.__main__ import main

        manifest = tmp_path / "m.jsonl"
        argv = [
            "sweep", "storm", "--grid", "nodes=2 seed=0,1",
            "--set", "vms_per_node=1", "--json",
        ]
        assert main(argv + ["--manifest", str(manifest)]) == 0
        full = capsys.readouterr().out
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:1]) + "\n")
        assert main(argv + ["--resume", str(manifest)]) == 0
        captured = capsys.readouterr()
        assert captured.out == full
        assert captured.err.count("resumed") == 1

    def test_cli_requires_grid_or_spec(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["sweep", "storm"])

    def test_cli_spec_file(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "sweep.toml"
        path.write_text(
            'experiment = "storm"\nseeds = [0]\n'
            "[params]\nvms_per_node = 1\nnodes = 2\n"
        )
        assert main(["sweep", "--spec", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 1


class TestUpFrontValidation:
    def test_all_validates_before_running_anything(self, capsys):
        """A bad option for a late experiment must fail before the first
        experiment runs — no timing lines on stderr, no partial output."""
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["all", "--json", "--fabric", "warp-drive"])
        captured = capsys.readouterr()
        assert "[" not in captured.out  # no partial results printed
        assert "fig02" not in captured.err  # no experiment ran

    def test_unknown_id_still_a_usage_error(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_single_experiment_rejects_undeclared_param(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig02", "--nodes", "4"])
        assert "does not accept" in capsys.readouterr().err


class TestRuntimeTrailer:
    """A profiled sweep appends a runtime trailer to the manifest; the
    trailer is telemetry only — resume and point bytes never see it."""

    def _profiled_sweep(self, manifest, spec, **kwargs):
        from repro.obs import runtime as obs_runtime

        profiler = obs_runtime.RuntimeProfiler()
        with obs_runtime.profiled(profiler):
            result = run_sweep(
                spec, workers=1, manifest_path=str(manifest),
                scale=4096.0, **kwargs,
            )
        return profiler, result

    def test_trailer_written_and_skipped_on_load(self, tmp_path):
        import json

        manifest = tmp_path / "sweep.jsonl"
        spec = _tiny_spec()
        profiler, _result = self._profiled_sweep(manifest, spec)
        lines = manifest.read_text().splitlines()
        assert len(lines) == 3  # 2 points + runtime trailer
        trailer = json.loads(lines[-1])
        assert trailer["manifest_version"] == 1
        assert trailer["runtime"]["schema"] == "repro.runtime/1"
        # one wall-time record per completed point made it into the block
        assert [p["label"] for p in trailer["runtime"]["points"]] == [
            "nodes=2 seed=0", "nodes=2 seed=1",
        ]
        assert len(load_manifest(str(manifest), "storm")) == 2

    def test_resume_over_trailer_replays_cleanly(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        spec = _tiny_spec()
        _profiler, full = self._profiled_sweep(manifest, spec)
        ran = []
        _again, resumed = self._profiled_sweep(
            manifest, spec, resume=True,
            progress=lambda point, status, elapsed: ran.append(status),
        )
        assert ran == ["cached", "cached"]
        assert dumps_canonical(resumed.to_dict()) == dumps_canonical(
            full.to_dict()
        )

    def test_unprofiled_sweep_writes_no_trailer(self, tmp_path):
        manifest = tmp_path / "sweep.jsonl"
        run_sweep(
            _tiny_spec(), workers=1, manifest_path=str(manifest), scale=4096.0
        )
        lines = manifest.read_text().splitlines()
        assert len(lines) == 2
        assert all("manifest_version" not in line for line in lines)
