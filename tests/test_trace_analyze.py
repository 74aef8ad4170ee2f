"""Trace analytics: critical-path extraction, flame export, trace diffing.

The contracts under test:

* the critical-path segments partition each boot exactly — per boot,
  ``critical_s + slack_s == latency`` (the chain twin of the attribution
  invariant), with deterministic last-finisher tie-breaking,
* the analyzer's wall buckets reconcile with the report's BootAttribution
  block on warm, cold and faulted runs,
* round-trip: parsing ``write_chrome_trace`` output reproduces the
  in-memory blame table byte-for-byte (all math happens in the chrome-µs
  float domain), and same-seed analyses are byte-identical — including
  through sweep stores built with different worker counts,
* ``trace diff`` aligns blame tables by span name, sorts the largest
  critical-seconds deltas first, and exit-1s on regression past tolerance,
* ``--trace`` is uniformly available on every registered experiment.
"""

import copy
import json

import pytest

from repro.common.report import dumps_canonical
from repro.faults import FaultPlan
from repro.obs import SpanTracer, dump_chrome_trace
from repro.obs.analyze import (
    TIERS,
    analyze_sources,
    analyze_tracers,
    boot_paths,
    diff_analyses,
    load_trace_sources,
    records_from_chrome,
    records_from_tracer,
    render_analysis,
    render_trace_diff,
)
from repro.obs.flame import folded_stacks
from repro.sim import Engine
from repro.vmi import DatasetConfig, LazyImageCatalog
from repro.workload import StormConfig, boot_storm


# -- unit: the last-finisher chain ----------------------------------------------------


def _build(script):
    """Run ``script(engine, tracer)`` (a generator) to completion."""
    engine = Engine(seed=0)
    tracer = SpanTracer(engine)
    engine.process(script(engine, tracer))
    engine.run()
    tracer.close_open_spans()
    return tracer


class TestCriticalChain:
    def test_gap_and_slack_partition_the_boot(self):
        def script(engine, tracer):
            root = tracer.span("boot", track="n0")
            yield engine.timeout(2.0)
            child = tracer.span("disk.read", parent=root)
            yield engine.timeout(6.0)
            child.end()
            yield engine.timeout(2.0)
            root.end()

        (path,) = boot_paths(records_from_tracer(_build(script)))
        assert path.latency_us == pytest.approx(10e6)
        assert path.critical_us == pytest.approx(6e6)  # the child
        assert path.slack_us == pytest.approx(4e6)  # lead-in + tail
        assert path.critical_us + path.slack_us == pytest.approx(
            path.latency_us, rel=1e-12
        )
        assert path.by_name_us["disk.read"] == pytest.approx(6e6)

    def test_last_finisher_wins_overlap(self):
        def script(engine, tracer):
            root = tracer.span("boot", track="n0")
            first = tracer.span("first", parent=root)
            yield engine.timeout(4.0)
            second = tracer.span("second", parent=root)
            yield engine.timeout(2.0)
            first.end()  # first: [0, 6]
            yield engine.timeout(4.0)
            second.end()  # second: [4, 10]
            root.end()

        (path,) = boot_paths(records_from_tracer(_build(script)))
        # second covers the frontier [4, 10]; first only [0, 4]
        assert path.by_name_us["second"] == pytest.approx(6e6)
        assert path.by_name_us["first"] == pytest.approx(4e6)
        assert path.slack_us == pytest.approx(0.0)

    def test_tie_breaks_toward_the_later_span(self):
        def script(engine, tracer):
            root = tracer.span("boot", track="n0")
            a = tracer.span("childA", parent=root)
            b = tracer.span("childB", parent=root)
            yield engine.timeout(1.0)
            a.end()
            b.end()
            root.end()

        (path,) = boot_paths(records_from_tracer(_build(script)))
        # identical [0, 1] intervals: the larger span_id (minted later) wins
        assert path.by_name_us == {"childB": pytest.approx(1e6)}

    def test_descends_into_grandchildren(self):
        def script(engine, tracer):
            root = tracer.span("boot", track="n0")
            fetch = tracer.span("gluster.fetch", parent=root)
            yield engine.timeout(1.0)
            nic = tracer.span("nic.transfer", parent=fetch)
            yield engine.timeout(3.0)
            nic.end()
            fetch.end()
            root.end()

        (path,) = boot_paths(records_from_tracer(_build(script)))
        assert path.by_name_us["nic.transfer"] == pytest.approx(3e6)
        assert path.by_name_us["gluster.fetch"] == pytest.approx(1e6)
        stacks = {names for _r, names, _a, _b in path.segments}
        assert ("boot", "gluster.fetch", "nic.transfer") in stacks

    def test_live_and_parsed_records_analyze_byte_identically(self):
        def script(engine, tracer):
            root = tracer.span("boot", track="n0")
            child = tracer.span("disk.read", parent=root)
            yield engine.timeout(0.123456789)
            child.end(service_s=0.1, queue_s=0.023456789)
            yield engine.timeout(0.7e-7)  # sub-µs tail: float-hostile
            root.end()

        tracer = _build(script)
        live = analyze_tracers({"p": tracer})
        parsed = analyze_sources(
            [records_from_chrome(json.loads(dump_chrome_trace({"p": tracer})))]
        )
        assert dumps_canonical(live) == dumps_canonical(parsed)


# -- storm-level: invariants, reconciliation, round-trip ------------------------------


def faulted_storm_config(**overrides):
    base = dict(
        n_nodes=16, vms_per_node=4, scale=1 / 4096, seed=3,
        faults=FaultPlan.parse(
            "crash:compute1@5+30,flap:compute2@8+10,brick:storage0@3+15"
        ),
    )
    base.update(overrides)
    return StormConfig(**base)


@pytest.fixture(scope="module")
def storm_dataset():
    return LazyImageCatalog(DatasetConfig(scale=1 / 4096))


@pytest.fixture(scope="module")
def storm_rig(tmp_path_factory, storm_dataset):
    """One faulted 16x4 storm: the report plus its exported trace file."""
    path = tmp_path_factory.mktemp("trace") / "storm.json"
    report = boot_storm(
        faulted_storm_config(), dataset=storm_dataset, trace_path=path
    )
    return report, path


class TestStormAnalysis:
    def test_per_boot_partition_invariant(self, storm_rig):
        _report, path = storm_rig
        (processes,) = load_trace_sources(path)
        for records in processes.values():
            paths = boot_paths(records)
            assert paths
            for boot in paths:
                assert boot.critical_us + boot.slack_us == pytest.approx(
                    boot.latency_us, rel=1e-9, abs=1e-3
                )
                assert sum(boot.tiers_us.values()) == pytest.approx(
                    boot.latency_us, rel=1e-9, abs=1e-3
                )
                assert sum(boot.buckets_us.values()) == pytest.approx(
                    boot.latency_us, rel=1e-9, abs=1e-3
                )

    def test_buckets_reconcile_with_attribution(self, storm_rig, storm_dataset):
        # warm + faulted (squirrel), cold + faulted (baseline) from the rig;
        # the pure warm/cold cases come from an unfaulted storm below
        report, path = storm_rig
        payload = analyze_sources(load_trace_sources(path))
        self._assert_reconciles(report, payload)

    def test_warm_and_cold_runs_reconcile(self, storm_dataset, tmp_path):
        path = tmp_path / "plain.json"
        report = boot_storm(
            faulted_storm_config(n_nodes=4, vms_per_node=2, faults=None),
            dataset=storm_dataset, trace_path=path,
        )
        payload = analyze_sources(load_trace_sources(path))
        self._assert_reconciles(report, payload)
        # the paper's claim, chain form: a warm full-replication storm has a
        # network-free critical path; the no-cache baseline does not
        assert payload["processes"]["squirrel"]["critical_shares"]["net_s"] == 0.0
        assert payload["processes"]["baseline"]["critical_shares"]["net_s"] > 0.3

    @staticmethod
    def _assert_reconciles(report, payload):
        for side_name in ("squirrel", "baseline"):
            side = getattr(report, side_name)
            block = payload["processes"][side_name]
            assert block["boots"] == side.boots
            tiers = side.attribution["tiers"]
            for bucket in TIERS:
                expected = tiers[bucket]["mean"] * tiers[bucket]["count"]
                assert block["buckets"][bucket] == pytest.approx(
                    expected, rel=1e-9, abs=1e-6
                )

    def test_blame_table_round_trips_exactly(self, storm_rig):
        """The analyzer reproduces the report's in-memory critical_path
        block byte-for-byte from the exported trace file."""
        report, path = storm_rig
        payload = analyze_sources(load_trace_sources(path))
        for side_name in ("squirrel", "baseline"):
            block = payload["processes"][side_name]
            compact = {
                "boots": block["boots"],
                "critical_s": block["critical_s"],
                "slack_s": block["slack_s"],
                "shares": block["critical_shares"],
                "blame": {
                    row["span"]: row["critical_s"] for row in block["blame"]
                },
            }
            embedded = getattr(report, side_name).critical_path
            assert dumps_canonical(embedded) == dumps_canonical(compact)

    def test_same_seed_analyses_are_byte_identical(
        self, storm_rig, storm_dataset, tmp_path
    ):
        _report, path = storm_rig
        again = tmp_path / "again.json"
        boot_storm(
            faulted_storm_config(), dataset=storm_dataset, trace_path=again
        )
        first = dumps_canonical(analyze_sources(load_trace_sources(path)))
        second = dumps_canonical(analyze_sources(load_trace_sources(again)))
        assert first == second
        for weight in ("wall", "critical"):
            assert folded_stacks(
                load_trace_sources(path), weight
            ) == folded_stacks(load_trace_sources(again), weight)

    def test_blame_shares_and_render(self, storm_rig):
        _report, path = storm_rig
        payload = analyze_sources(load_trace_sources(path))
        for block in payload["processes"].values():
            assert block["blame"] == sorted(
                block["blame"],
                key=lambda row: (-row["critical_s"], row["span"]),
            )
            for row in block["blame"]:
                assert 0 <= row["share"] <= 1
                assert 0 < row["boots"] <= block["boots"]
            shares = block["critical_shares"]
            assert sum(shares.values()) == pytest.approx(1.0, rel=1e-9)
        text = render_analysis(payload)
        assert "critical composition" in text
        assert "squirrel" in text and "baseline" in text


class TestFlame:
    def test_critical_totals_match_latency(self, storm_rig):
        _report, path = storm_rig
        sources = load_trace_sources(path)
        folded = folded_stacks(sources, "critical")
        lines = folded.splitlines()
        assert lines and all(" " in line for line in lines)
        totals = {}
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0
            process = stack.split(";", 1)[0]
            totals[process] = totals.get(process, 0) + int(value)
        payload = analyze_sources(sources)
        for process, block in payload["processes"].items():
            latency_us = block["latency_s"]["total"] * 1e6
            # per-stack integer rounding: within 1 µs per emitted stack
            assert abs(totals[process] - latency_us) <= len(lines)
        assert lines == sorted(lines)

    def test_wall_weight_counts_self_time_only(self):
        def script(engine, tracer):
            root = tracer.span("boot", track="n0")
            child = tracer.span("work", parent=root)
            yield engine.timeout(3.0)
            child.end()
            yield engine.timeout(1.0)
            root.end()

        folded = folded_stacks(
            [{"p": records_from_tracer(_build(script))}], "wall"
        )
        assert folded.splitlines() == [
            "p;boot 1000000", "p;boot;work 3000000",
        ]

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            folded_stacks([], weight="flames")


class TestTraceDiff:
    def test_identical_payloads_diff_clean(self, storm_rig):
        _report, path = storm_rig
        payload = analyze_sources(load_trace_sources(path))
        rows = diff_analyses(payload, payload, tolerance=0.05)
        assert rows == []
        assert "no regressions" in render_trace_diff(rows, tolerance=0.05)

    def test_inflation_sorts_largest_delta_first(self, storm_rig):
        _report, path = storm_rig
        old = analyze_sources(load_trace_sources(path))
        new = copy.deepcopy(old)
        for block in new["processes"].values():
            block["critical_s"] *= 10
            block["latency_s"]["total"] *= 10
            for row in block["blame"]:
                row["critical_s"] *= 10
        rows = diff_analyses(old, new, tolerance=0.05)
        assert rows
        deltas = [abs(row["delta_s"]) for row in rows]
        assert deltas == sorted(deltas, reverse=True)
        assert all(
            row["regression"] for row in rows if row["metric"] == "blame"
        )

    def test_new_span_regresses_from_zero_baseline(self, storm_rig):
        _report, path = storm_rig
        old = analyze_sources(load_trace_sources(path))
        new = copy.deepcopy(old)
        new["processes"]["squirrel"]["blame"].append({
            "span": "surprise.span", "critical_s": 1.5, "share": 0.1,
            "boots": 1, "share_p50": 0.1, "share_p95": 0.1, "share_max": 0.1,
        })
        (row,) = [
            r for r in diff_analyses(old, new, tolerance=0.05)
            if r["span"] == "surprise.span"
        ]
        assert row["regression"] and row["rel"] is None
        assert "from 0" in render_trace_diff([row], tolerance=0.05)


# -- CLI ------------------------------------------------------------------------------


class TestTraceCLI:
    def run_cli(self, argv, capsys):
        from repro.__main__ import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out

    def test_analyze_json_is_deterministic(self, storm_rig, capsys):
        _report, path = storm_rig
        code, out = self.run_cli(["trace", "analyze", str(path), "--json"], capsys)
        assert code == 0
        code2, out2 = self.run_cli(["trace", "analyze", str(path), "--json"], capsys)
        assert out == out2
        payload = json.loads(out)
        assert payload["schema"] == "repro.trace-analyze/1"
        assert payload["processes"]["squirrel"]["boots"] == 64

    def test_flame_writes_folded_output(self, storm_rig, tmp_path, capsys):
        _report, path = storm_rig
        out_file = tmp_path / "storm.folded"
        code, _ = self.run_cli(
            ["trace", "flame", str(path), "--out", str(out_file),
             "--weight", "critical"],
            capsys,
        )
        assert code == 0
        assert out_file.read_text().splitlines()

    def test_diff_gate_exit_codes(self, storm_rig, tmp_path, capsys):
        _report, path = storm_rig
        code, _ = self.run_cli(
            ["trace", "diff", str(path), str(path)], capsys
        )
        assert code == 0
        inflated = tmp_path / "inflated.json"
        trace = json.loads(path.read_text())
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                event["ts"] *= 10.0
                event["dur"] *= 10.0
        inflated.write_text(json.dumps(trace))
        code, out = self.run_cli(
            ["trace", "diff", str(path), str(inflated), "--json"], capsys
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_bad_path_is_a_cli_error(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "analyze", "/no/such/trace.json"])
        assert excinfo.value.code == 2

    def test_sweep_trace_requires_a_store(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "storm", "--grid", "seed=0,1", "--trace"])
        assert excinfo.value.code == 2


# -- sweep stores ---------------------------------------------------------------------


class TestSweepTraces:
    def _sweep(self, workers, trace_dir):
        from repro.sweep import SweepSpec, run_sweep

        spec = SweepSpec.from_grid(
            "storm", "seed=0,1", {"nodes": 2, "vms_per_node": 1}
        )
        return run_sweep(
            spec, workers=workers, scale=4096.0, quick=4,
            trace_dir=trace_dir,
        )

    def test_worker_count_invariance_and_store_analysis(self, tmp_path):
        dir1, dir2 = tmp_path / "w1" / "traces", tmp_path / "w2" / "traces"
        r1 = self._sweep(1, dir1)
        r2 = self._sweep(2, dir2)
        assert dumps_canonical(r1.to_dict()) == dumps_canonical(r2.to_dict())
        names = sorted(p.name for p in dir1.glob("*.json"))
        assert names == ["point-0000.json", "point-0001.json"]
        for name in names:
            assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
        # `trace analyze` accepts the store dir (traces/ inside) and the
        # traces dir itself, byte-identically across worker counts
        a1 = dumps_canonical(analyze_sources(load_trace_sources(tmp_path / "w1")))
        a2 = dumps_canonical(analyze_sources(load_trace_sources(dir2)))
        assert a1 == a2
        assert json.loads(a1)["totals"]["boots"] == 8  # 2 seeds x 2 boots x 2 sides

    def test_trace_dir_does_not_change_report_bytes(self, tmp_path):
        with_traces = self._sweep(1, tmp_path / "traces")
        without = self._sweep(1, None)
        assert dumps_canonical(with_traces.to_dict()) == dumps_canonical(
            without.to_dict()
        )


# -- uniform --trace across the registry ----------------------------------------------


from repro.experiments import registry  # noqa: E402


@pytest.mark.parametrize("exp_id", sorted(registry.all_experiments()))
def test_every_experiment_accepts_trace(exp_id, tmp_path):
    exp = registry.get(exp_id)
    spec = exp.param("trace")
    assert spec.type is str and not spec.gridable
    params = exp.validate({"trace": str(tmp_path / "t.json")})
    assert params["trace"] == str(tmp_path / "t.json")


def test_untimed_experiment_writes_a_loadable_empty_trace(tmp_path):
    from repro.experiments import ExperimentConfig, ExperimentContext

    ctx = ExperimentContext(ExperimentConfig(scale=1 / 4096, quick=16))
    exp = registry.get("tab02")
    path = tmp_path / "tab02.json"
    exp.run(ctx, **exp.validate({"trace": str(path)}))
    payload = analyze_sources(load_trace_sources(path))
    assert payload["totals"]["boots"] == 0
    assert payload["processes"]["tab02"]["blame"] == []
