"""Fleet metrics: instruments, sampler cadence, deterministic exports,
and the persistent result store.

The contracts under test are the PR's acceptance criteria: same-seed runs
export byte-identical Prometheus/JSONL files, the boot-latency histogram
accounts for every completed boot, the sampler keeps its cadence through
node crashes, stored sweeps round-trip, and ``--workers N`` leaves every
stored byte identical to ``--workers 1``.
"""

import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.report import dumps_canonical, to_jsonable
from repro.experiments import registry
from repro.faults import FaultPlan
from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sampler,
    TimeSeriesStore,
    collect_metric_blocks,
    export_name,
    format_number,
    metrics_block,
    prometheus_text,
    series_jsonl,
    write_run_exports,
)
from repro.metrics.summarize import rollup, summarize_path
from repro.sim import Engine
from repro.sweep import SweepSpec, load_manifest, persist_sweep, run_sweep
from repro.workload import StormConfig, boot_storm


# -- instruments ----------------------------------------------------------------------


class TestCounter:
    def test_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrement(self):
        with pytest.raises(ConfigError, match=">= 0"):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_read(self):
        g = Gauge()
        g.set(7)
        assert g.read() == 7.0

    def test_callback_evaluates_at_read_time(self):
        state = {"v": 1.0}
        g = Gauge()
        g.set_function(lambda: state["v"])
        assert g.read() == 1.0
        state["v"] = 9.0
        assert g.read() == 9.0

    def test_set_clears_callback(self):
        g = Gauge()
        g.set_function(lambda: 5.0)
        g.set(2.0)
        assert g.read() == 2.0


class TestHistogram:
    def test_bucket_invariants(self):
        h = Histogram((1.0, 5.0, 10.0))
        for value in (0.5, 0.5, 3.0, 7.0, 50.0):
            h.observe(value)
        # per-bucket counts sum to the total observation count
        assert sum(h.bucket_counts) == h.count == 5
        rows = h.cumulative()
        # cumulative counts are monotone and end at (+Inf, count)
        assert [cum for _, cum in rows] == sorted(cum for _, cum in rows)
        assert rows[-1] == ("+Inf", 5)
        assert h.sum == pytest.approx(61.0)

    def test_boundary_lands_in_le_bucket(self):
        h = Histogram((1.0, 5.0))
        h.observe(1.0)  # le="1" is inclusive, Prometheus-style
        assert h.cumulative()[0] == ("1", 1)

    @pytest.mark.parametrize("bounds", [(), (1.0, 1.0), (5.0, 1.0),
                                        (float("inf"),)])
    def test_rejects_bad_layouts(self, bounds):
        with pytest.raises(ConfigError):
            Histogram(bounds)


class TestFormatNumber:
    def test_integral_floats_render_without_fraction(self):
        assert format_number(5.0) == "5"
        assert format_number(0.0) == "0"

    def test_non_integral_uses_repr(self):
        assert format_number(0.25) == "0.25"
        assert format_number(1e18) == "1e+18"


class TestRegistry:
    def test_redeclare_identical_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("boots_total", labels=("node",))
        b = reg.counter("boots_total", labels=("node",))
        assert a is b

    def test_redeclare_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ConfigError, match="re-declared"):
            reg.gauge("x_total")
        reg.histogram("lat", buckets=(1.0, 2.0))
        with pytest.raises(ConfigError, match="re-declared"):
            reg.histogram("lat", buckets=(1.0, 3.0))

    def test_label_schema_enforced(self):
        family = MetricsRegistry().counter("y_total", labels=("node",))
        with pytest.raises(ConfigError, match="takes labels"):
            family.labels(tier="t1")

    def test_invalid_names_rejected(self):
        with pytest.raises(ConfigError, match="invalid metric name"):
            MetricsRegistry().counter("bad name")
        with pytest.raises(ConfigError, match="invalid label name"):
            MetricsRegistry().counter("ok_total", labels=("bad-label",))

    def test_families_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz_total")
        reg.gauge("aa")
        assert [f.name for f in reg.families()] == ["aa", "zz_total"]


# -- time-series store ----------------------------------------------------------------


def get(store, name: str, **labels: str) -> dict | None:
    """The one series of ``store`` named ``name`` with exactly ``labels``."""
    found = [
        one for one in store.series()
        if one["name"] == name and one["labels"] == labels
    ]
    assert len(found) <= 1
    return found[0] if found else None


class DequeStore:
    """Reference oracle: one pair of bounded deques per series, each
    dropping its own oldest sample."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._series: dict[tuple, list] = {}

    def append(self, name, labels, t, values) -> None:
        t = float(t)
        for one, value in zip(labels, values):
            key = (name, tuple(sorted(one)))
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [
                    deque(maxlen=self.capacity), deque(maxlen=self.capacity), 0,
                ]
            if len(series[0]) == self.capacity:
                series[2] += 1
            series[0].append(t)
            series[1].append(float(value))

    def series(self) -> list[dict]:
        return [
            {"name": name, "labels": dict(labels), "t": list(t), "v": list(v),
             "dropped": dropped}
            for (name, labels), (t, v, dropped) in sorted(self._series.items())
        ]


#: a value of every kind a gauge may read: ints and bools round through
#: float() exactly as floats and numpy scalars do
VALUES = st.one_of(
    st.floats(allow_nan=False, width=64),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
)


@st.composite
def growing_columns(draw):
    """A run of appends to two families: each family's column only ever
    gains series, in any series order and label order, and is passed
    again either as the same object or as an equal copy."""
    keys = [(("node", f"c{i}"), ("zone", f"z{i % 2}")) for i in range(5)]
    members: dict[str, list] = {}
    columns: dict[str, tuple] = {}
    appends = []
    for step in range(draw(st.integers(1, 14))):
        name = draw(st.sampled_from(["a", "b"]))
        held = members.setdefault(name, [])
        if name not in columns or draw(st.integers(0, 3)) == 0:
            grow = draw(st.integers(0 if held else 1, len(keys) - len(held)))
            held += [key for key in keys if key not in held][:grow]
            columns[name] = tuple(
                tuple(draw(st.permutations(key)))
                for key in draw(st.permutations(held))
            )
        elif draw(st.booleans()):
            columns[name] = tuple(tuple(one) for one in columns[name])
        column = columns[name]
        values = draw(st.lists(VALUES, min_size=len(column), max_size=len(column)))
        appends.append((name, column, step * 0.5, values))
    return appends


class TestTimeSeriesStore:
    def test_round_trip(self):
        store = TimeSeriesStore(capacity=8)
        store.append("u", ((("node", "c0"),),), 0.0, [1.0])
        store.append("u", ((("node", "c0"),),), 5.0, [2.0])
        series = get(store, "u", node="c0")
        assert series["t"] == [0.0, 5.0]
        assert series["v"] == [1.0, 2.0]
        assert series["dropped"] == 0

    def test_label_order_is_normalised(self):
        store = TimeSeriesStore()
        store.append("u", ((("b", "2"), ("a", "1")),), 0.0, [1.0])
        store.append("u", ((("a", "1"), ("b", "2")),), 1.0, [2.0])
        assert len(store.series()) == 1
        assert get(store, "u", a="1", b="2")["v"] == [1.0, 2.0]

    def test_ring_drops_oldest_and_counts(self):
        store = TimeSeriesStore(capacity=3)
        for t in range(5):
            store.append("u", ((),), float(t), [float(t)])
        series = get(store, "u")
        assert series["t"] == [2.0, 3.0, 4.0]
        assert series["dropped"] == 2

    def test_series_sorted(self):
        store = TimeSeriesStore()
        store.append("z", ((),), 0.0, [0.0])
        store.append("a", ((("node", "c1"),),), 0.0, [0.0])
        # c0 joins after c1 and still sorts first
        store.append("a", ((("node", "c1"),), (("node", "c0"),)), 0.0, [0.0, 0.0])
        names = [(s["name"], s["labels"]) for s in store.series()]
        assert names == [("a", {"node": "c0"}), ("a", {"node": "c1"}),
                         ("z", {})]

    def test_column_appends_one_sample_per_series(self):
        store = TimeSeriesStore(capacity=2)
        column = ((("node", "c0"),), (("node", "c1"),))
        for t in range(3):
            store.append("u", column, float(t), [t, 10 * t])
        # a new child joins the family: the column grows
        grown = column + ((("node", "c2"),),)
        store.append("u", grown, 3.0, [3.0, 30.0, 300.0])
        assert get(store, "u", node="c0") == {
            "name": "u", "labels": {"node": "c0"}, "t": [2.0, 3.0],
            "v": [2.0, 3.0], "dropped": 2,
        }
        assert get(store, "u", node="c1")["v"] == [20.0, 30.0]
        assert get(store, "u", node="c2")["t"] == [3.0]
        assert get(store, "u", node="c2")["dropped"] == 0
        with pytest.raises(ConfigError):
            store.append("u", grown, 4.0, [1.0])
        assert get(store, "u", node="c0")["t"] == [2.0, 3.0]

    def test_shrinking_column_is_refused(self):
        store = TimeSeriesStore(capacity=4)
        column = ((("node", "c0"),), (("node", "c1"),))
        store.append("u", column, 0.0, [1.0, 2.0])
        before = store.series()
        with pytest.raises(ConfigError, match="drops a series"):
            store.append("u", ((("node", "c1"),),), 1.0, [3.0])
        # swapping a series for another drops one too
        with pytest.raises(ConfigError, match="drops a series"):
            store.append(
                "u", ((("node", "c1"),), (("node", "c2"),)), 1.0, [3.0, 4.0]
            )
        assert store.series() == before
        with pytest.raises(ConfigError, match="twice"):
            store.append("u", column + ((("node", "c0"),),), 1.0, [1.0] * 3)
        assert store.series() == before

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            TimeSeriesStore(capacity=0)

    @given(appends=growing_columns(), capacity=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_series_deques(self, appends, capacity):
        store, oracle = TimeSeriesStore(capacity=capacity), DequeStore(capacity)
        for name, column, t, values in appends:
            store.append(name, column, t, values)
            oracle.append(name, column, t, values)
        got, want = store.series(), oracle.series()
        assert got == want
        for one in got:
            assert all(type(x) is float for x in one["t"] + one["v"])
            assert type(one["dropped"]) is int
        # the floats are bit-identical too (0.0 and -0.0 compare equal)
        assert dumps_canonical(got) == dumps_canonical(want)


# -- sampler --------------------------------------------------------------------------


class TestSampler:
    def _rig(self, interval_s=5.0):
        engine = Engine(seed=0)
        reg = MetricsRegistry()
        reg.gauge("clock").set_function(lambda: engine.now)
        store = TimeSeriesStore()
        sampler = Sampler(engine, reg, store, interval_s=interval_s)
        return engine, store, sampler

    def test_scrapes_on_cadence_and_terminates(self):
        engine, store, sampler = self._rig()

        def workload():
            yield engine.timeout(12.0)

        engine.process(workload())
        sampler.start()
        engine.run()
        series = get(store, "clock")
        # t=0 start scrape, 5, 10, then the queue-drained final snapshot
        assert series["t"] == [0.0, 5.0, 10.0, 15.0]
        assert series["v"] == series["t"]  # callback saw live sim time
        assert sampler.scrapes == 4

    def test_children_added_mid_run_join_the_next_scrape(self):
        engine, store, sampler = self._rig()
        family = sampler.registry.gauge("depth", labels=("node",))
        family.labels(node="c1").set(1.0)

        def workload():
            yield engine.timeout(7.0)
            # sorts before c1: the family's column is re-resolved in order
            family.labels(node="c0").set_function(lambda: engine.now)
            yield engine.timeout(5.0)

        engine.process(workload())
        sampler.start()
        engine.run()
        assert get(store, "depth", node="c1")["t"] == [0.0, 5.0, 10.0, 15.0]
        assert get(store, "depth", node="c1")["v"] == [1.0] * 4
        assert get(store, "depth", node="c0")["t"] == [10.0, 15.0]
        assert get(store, "depth", node="c0")["v"] == [10.0, 15.0]

    def test_idle_engine_gets_exactly_one_snapshot(self):
        engine, store, sampler = self._rig()
        sampler.start()
        engine.run()
        assert get(store, "clock")["t"] == [0.0]
        assert sampler.scrapes == 1

    def test_rejects_nonpositive_interval(self):
        engine = Engine(seed=0)
        with pytest.raises(ConfigError):
            Sampler(engine, MetricsRegistry(), TimeSeriesStore(),
                    interval_s=0.0)


# -- exporters ------------------------------------------------------------------------


def _toy_block():
    reg = MetricsRegistry()
    reg.counter("boots_total", "Boots", labels=("node",))
    reg.family("boots_total").labels(node="c0").inc(3)
    reg.gauge("arc_p", "ARC p").set(0.25)
    reg.histogram("lat_seconds", "Latency", buckets=(1.0, 5.0))
    reg.family("lat_seconds").observe(0.5)
    reg.family("lat_seconds").observe(9.0)
    store = TimeSeriesStore()
    store.append("arc_p", ((),), 0.0, [0.1])
    store.append("arc_p", ((),), 5.0, [0.25])
    return metrics_block(reg, store, interval_s=5.0, scrapes=2)


class TestExporters:
    def test_block_shape(self):
        block = _toy_block()
        assert sorted(block) == ["instruments", "interval_s", "scrapes",
                                 "series"]
        by_name = {fam["name"]: fam for fam in block["instruments"]}
        assert by_name["boots_total"]["samples"][0] == {
            "labels": {"node": "c0"}, "value": 3.0,
        }
        hist = by_name["lat_seconds"]["samples"][0]
        assert hist["buckets"] == [["1", 1], ["5", 1], ["+Inf", 2]]
        assert hist["count"] == 2

    def test_prometheus_text(self):
        text = prometheus_text(_toy_block())
        assert "# TYPE boots_total counter" in text
        assert 'boots_total{node="c0"} 3' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text
        assert "arc_p 0.25" in text
        assert text.endswith("\n")

    def test_series_jsonl_parses(self):
        lines = series_jsonl(_toy_block()).splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["arc_p"]
        assert json.loads(lines[0])["v"] == [0.1, 0.25]

    def test_exports_are_pure_functions_of_the_block(self):
        a, b = _toy_block(), _toy_block()
        assert prometheus_text(a) == prometheus_text(b)
        assert dumps_canonical(a) == dumps_canonical(b)

    def test_collect_metric_blocks_finds_nested(self):
        block = _toy_block()
        payload = {"report": {"squirrel": {"metrics": block}, "boots": 8}}
        found = collect_metric_blocks(payload)
        assert list(found) == ["report.squirrel.metrics"]

    @pytest.mark.parametrize("path,stem", [
        ("report.squirrel.metrics", "squirrel"),
        ("report.metrics", "run"),
        ("result.report.baseline.metrics", "baseline"),
    ])
    def test_export_name(self, path, stem):
        assert export_name(path) == stem


# -- faulted-storm metrics (the acceptance-criteria scenario) -------------------------


def _storm_config(**overrides):
    base = dict(
        n_nodes=4, vms_per_node=2, scale=1 / 4096, seed=3,
        faults=FaultPlan.parse("crash:compute1@5+30"),
    )
    base.update(overrides)
    return StormConfig(**base)


@pytest.fixture(scope="module")
def storm_report():
    return boot_storm(_storm_config())


class TestStormMetrics:
    def test_block_rides_the_report(self, storm_report):
        for side in (storm_report.squirrel, storm_report.baseline):
            block = side.metrics
            assert block["scrapes"] > 0
            assert block["interval_s"] == 5.0
            assert block["series"]  # the sampler stored trajectories

    def test_boot_histogram_totals_match_completed_boots(self, storm_report):
        for side in (storm_report.squirrel, storm_report.baseline):
            by_name = {f["name"]: f for f in side.metrics["instruments"]}
            hist = by_name["squirrel_boot_latency_seconds"]["samples"][0]
            assert hist["count"] == side.boots == 8
            assert hist["buckets"][-1] == ["+Inf", side.boots]
            boots = sum(
                s["value"]
                for s in by_name["squirrel_boots_total"]["samples"]
            )
            assert boots == side.boots

    def test_sampler_cadence_survives_the_crash(self, storm_report):
        block = storm_report.squirrel.metrics
        down = next(
            s for s in block["series"] if s["name"] == "faults_nodes_down"
        )
        # the outage (5s..35s) is visible, and sampling continued past it
        assert max(down["v"]) == 1.0
        assert down["v"][0] == 0.0 and down["v"][-1] == 0.0
        deltas = [b - a for a, b in zip(down["t"], down["t"][1:])]
        assert all(d == pytest.approx(5.0) for d in deltas[:-1])

    def test_timeline_gauges_surface_in_summary(self, storm_report):
        gauges = storm_report.squirrel.summary["gauges"]
        assert any(name.startswith("arc_p:") for name in gauges)

    def test_same_seed_exports_are_byte_identical(self, storm_report,
                                                  tmp_path):
        again = boot_storm(_storm_config())
        a = write_run_exports(tmp_path / "a", storm_report)
        b = write_run_exports(tmp_path / "b", again)
        assert sorted(a) == sorted(b)
        for name in a:
            assert a[name].read_bytes() == b[name].read_bytes()

    def test_seed_changes_the_series(self, storm_report):
        other = boot_storm(_storm_config(seed=4))
        assert (to_jsonable(other.squirrel.metrics)
                != to_jsonable(storm_report.squirrel.metrics))

    def test_export_files_and_summarizer(self, storm_report, tmp_path):
        written = write_run_exports(tmp_path, storm_report)
        assert sorted(written) == [
            "baseline.jsonl", "baseline.prom", "report.json",
            "squirrel.jsonl", "squirrel.prom",
        ]
        rollups = summarize_path(tmp_path)
        assert sorted(rollups) == ["baseline", "squirrel"]
        assert rollups["squirrel"]["boots"] == 8
        assert rollups["squirrel"]["peak_nodes_down"]["value"] == 1.0

    def test_rollup_fields(self, storm_report):
        roll = rollup(storm_report.squirrel.metrics)
        assert roll["boot_latency"]["count"] == 8
        assert roll["scrapes"] == storm_report.squirrel.metrics["scrapes"]
        assert 0.0 <= roll["peak_link_utilization"]["value"] <= 1.0

    def test_summarize_path_rejects_missing(self, tmp_path):
        with pytest.raises(ConfigError):
            summarize_path(tmp_path / "nope")

    def test_node_detail_cap_folds_large_fleets(self):
        from repro.workload.timed import METRICS_NODE_DETAIL

        n = METRICS_NODE_DETAIL + 6
        report = boot_storm(
            _storm_config(n_nodes=n, vms_per_node=1, faults=None)
        )
        side = report.squirrel
        by_name = {f["name"]: f for f in side.metrics["instruments"]}
        boot_nodes = {
            s["labels"]["node"]
            for s in by_name["squirrel_boots_total"]["samples"]
        }
        # exactly the detail set plus the fold child — never one series
        # per node of a large fleet
        assert len(boot_nodes) == METRICS_NODE_DETAIL + 1
        assert "_other" in boot_nodes
        # fleet totals stay exact across the fold
        boots = sum(
            s["value"] for s in by_name["squirrel_boots_total"]["samples"]
        )
        assert boots == side.boots == n
        other = next(
            s for s in by_name["squirrel_boots_total"]["samples"]
            if s["labels"]["node"] == "_other"
        )
        assert other["value"] == n - METRICS_NODE_DETAIL
        # dropped per-node gauges are replaced by one _fleet aggregate
        ddt_nodes = {
            s["labels"]["node"]
            for s in by_name["zfs_ddt_entries"]["samples"]
        }
        assert "_fleet" in ddt_nodes
        assert len(ddt_nodes) == METRICS_NODE_DETAIL + 2  # detail+storage+fleet

    def test_node_detail_cap_leaves_small_fleets_alone(self, storm_report):
        by_name = {
            f["name"]: f
            for f in storm_report.squirrel.metrics["instruments"]
        }
        nodes = {
            s["labels"]["node"]
            for s in by_name["squirrel_boots_total"]["samples"]
        }
        assert nodes == {f"compute{i}" for i in range(4)}


# -- promoted experiments -------------------------------------------------------------


class TestPromotedExperiments:
    @pytest.mark.parametrize("exp_id", ["day", "churn"])
    def test_registered_with_gridable_params(self, exp_id):
        exp = registry.get(exp_id)
        gridable = {spec.name for spec in exp.params if spec.gridable}
        assert {"nodes", "seed"} <= gridable
        assert {"faults", "trace", "metrics"} <= {
            spec.name for spec in exp.params
        }

    def test_day_runs_and_exports(self, tmp_path):
        exp = registry.get("day")
        result = exp.run(None, nodes=4, boots=20, tenants=4,
                         registrations=2, seed=0,
                         metrics=str(tmp_path / "day"))
        assert result.report.boots > 0
        assert (tmp_path / "day" / "run.prom").exists()
        assert "Steady-state day" in exp.render(result)

    def test_churn_runs_under_faults(self):
        exp = registry.get("churn")
        result = exp.run(
            None, nodes=4, days=0.25, registrations_per_day=8.0,
            downtimes_per_node=1.0, seed=1,
        )
        assert result.report.registrations > 0
        blocks = collect_metric_blocks(to_jsonable(result.to_dict()))
        assert blocks  # the metrics block rides the churn report too
        assert "Registration churn" in exp.render(result)


# -- sweep store + manifest header ----------------------------------------------------


def _tiny_sweep():
    return SweepSpec.from_grid("storm", "nodes=2 seed=0,1",
                               {"vms_per_node": 1})


class TestSweepStore:
    def test_workers_do_not_change_stored_bytes(self, tmp_path):
        spec = _tiny_sweep()
        serial = run_sweep(spec, workers=1, scale=4096.0)
        parallel = run_sweep(spec, workers=2, scale=4096.0)
        a = persist_sweep(tmp_path / "w1", spec, serial)
        b = persist_sweep(tmp_path / "w2", spec, parallel)
        for name in ("spec.json", "report.json", "metrics.jsonl"):
            assert a[name].read_bytes() == b[name].read_bytes()

    def test_store_round_trip(self, tmp_path):
        spec = _tiny_sweep()
        result = run_sweep(spec, workers=1, scale=4096.0)
        written = persist_sweep(tmp_path, spec, result)
        stored = json.loads(written["report.json"].read_text())
        assert stored == to_jsonable(result.to_dict())
        lines = written["metrics.jsonl"].read_text().splitlines()
        assert len(lines) == len(result.points)
        first = json.loads(lines[0])
        assert first["index"] == 0 and first["metrics"]
        # the stored sweep feeds the summarizer directly
        rollups = summarize_path(tmp_path)
        assert any(key.startswith("point0.") for key in rollups)

    def test_manifest_header_written_and_skipped(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        spec = _tiny_sweep()
        run_sweep(spec, workers=1, manifest_path=str(manifest),
                  scale=4096.0, header={"spec_file": None, "out": None})
        lines = manifest.read_text().splitlines()
        assert len(lines) == 3  # header + two points
        head = json.loads(lines[0])
        assert head["manifest_version"] == 1
        assert head["experiment"] == "storm"
        completed = load_manifest(str(manifest), "storm")
        assert len(completed) == 2  # the header is not a point
        resumed = run_sweep(
            spec, workers=1, manifest_path=str(manifest), resume=True,
            scale=4096.0, header={"spec_file": None, "out": None},
        )
        assert to_jsonable(resumed.to_dict())["points"]

    def test_no_header_keeps_manifest_points_only(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        run_sweep(_tiny_sweep(), workers=1, manifest_path=str(manifest),
                  scale=4096.0)
        lines = manifest.read_text().splitlines()
        assert len(lines) == 2
        assert all("manifest_version" not in json.loads(l) for l in lines)

    def test_cli_store_anchors_on_spec_file(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.__main__ import main

        spec_file = tmp_path / "sweeps" / "tiny.toml"
        spec_file.parent.mkdir()
        spec_file.write_text(
            'experiment = "storm"\nseeds = [0]\n'
            "[params]\nvms_per_node = 1\nnodes = 2\n"
        )
        monkeypatch.chdir(tmp_path)  # results must NOT land in the CWD
        assert main(["sweep", "--spec", str(spec_file),
                     "--store", "tiny"]) == 0
        capsys.readouterr()
        store = spec_file.parent / "benchmarks" / "results" / "tiny"
        for name in ("spec.json", "report.json", "metrics.jsonl",
                     "manifest.jsonl"):
            assert (store / name).exists(), name
        head = json.loads(
            (store / "manifest.jsonl").read_text().splitlines()[0]
        )
        assert head["manifest_version"] == 1
        assert head["spec_file"] == str(spec_file.resolve())
        assert head["out"] == str(store)


class TestSamplerRearmEdges:
    """Re-arm edge cases: horizons, zero-length work, sole survivor."""

    def _rig(self, interval_s=5.0):
        engine = Engine(seed=0)
        reg = MetricsRegistry()
        reg.gauge("clock").set_function(lambda: engine.now)
        store = TimeSeriesStore()
        sampler = Sampler(engine, reg, store, interval_s=interval_s)
        return engine, store, sampler

    def test_until_horizon_pauses_and_resumes_the_cadence(self):
        engine, store, sampler = self._rig()

        def workload():
            yield engine.timeout(12.0)

        engine.process(workload())
        sampler.start()
        engine.run(until=7.0)  # stop mid-cadence: re-arm still queued
        assert engine.now == 7.0
        assert not engine.drained
        assert get(store, "clock")["t"] == [0.0, 5.0]
        engine.run()  # resume: cadence continues, then final snapshot
        assert get(store, "clock")["t"] == [0.0, 5.0, 10.0, 15.0]
        assert engine.drained

    def test_zero_length_workload_still_rearms_once(self):
        engine, store, sampler = self._rig()

        def workload():
            yield engine.timeout(0.0)

        engine.process(workload())
        sampler.start()
        engine.run()
        # the t=0 scrape sees the pending zero-timeout, so one re-arm
        # happens before the drained tick takes the final snapshot
        assert get(store, "clock")["t"] == [0.0, 5.0]
        assert sampler.scrapes == 2

    def test_sampler_as_sole_process_exits_immediately(self):
        engine, store, sampler = self._rig()
        sampler.start()
        engine.run()
        assert engine.drained
        assert get(store, "clock")["t"] == [0.0]
        assert sampler.scrapes == 1
        # a second run finds nothing queued and moves no clock
        assert engine.run() == 0.0
        assert sampler.scrapes == 1


class TestRuntimeBlockStaysOutOfExports:
    """runtime.json appears only for profiled runs and never changes the
    canonical export bytes."""

    def test_no_profiler_no_runtime_file(self, tmp_path, storm_report):
        written = write_run_exports(tmp_path / "plain", storm_report)
        assert "runtime.json" not in written
        assert not (tmp_path / "plain" / "runtime.json").exists()

    def test_profiled_run_adds_runtime_json_without_touching_reports(
        self, tmp_path, storm_report
    ):
        from repro.obs import runtime as obs_runtime

        plain = write_run_exports(tmp_path / "plain", storm_report)
        with obs_runtime.profiled(obs_runtime.RuntimeProfiler()):
            profiled = write_run_exports(tmp_path / "profiled", storm_report)
        assert "runtime.json" in profiled
        block = json.loads(profiled["runtime.json"].read_text())
        assert block["schema"] == "repro.runtime/1"
        for name in plain:
            assert plain[name].read_bytes() == profiled[name].read_bytes()
