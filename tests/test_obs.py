"""Observability: deterministic span tracing, Chrome trace export, and
latency attribution.

The contracts under test:

* span ids / exports are a pure function of the seed — two same-seed runs
  serialise to byte-identical trace files,
* every child span nests inside its parent's ``[start, end]`` interval,
* per boot, ``cache_s + net_s + disk_s + wait_s`` equals the end-to-end
  boot latency (the buckets partition the boot, they don't estimate it) —
  on hit-dominated, cold-cache and faulted runs alike.
"""

import json

import pytest

from repro.core import IaaSCluster, Squirrel
from repro.faults import FaultInjector, FaultPlan
from repro.obs import (
    ARC_COUNTERS,
    BUCKETS,
    BootAttribution,
    SpanTracer,
    attribution_block,
    chrome_trace,
    dump_chrome_trace,
)
from repro.sim import Engine, Timeline
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator
from repro.workload import StormConfig, TimedSquirrel, boot_storm

BLOCK = 65536


# -- span tracer ----------------------------------------------------------------------


class TestSpanTracer:
    def test_ids_are_dense_and_in_start_order(self):
        tracer = SpanTracer()
        spans = [tracer.span(f"s{i}") for i in range(3)]
        assert [s.span_id for s in spans] == [1, 2, 3]
        assert tracer.get(2) is spans[1]

    def test_child_inherits_parent_track(self):
        tracer = SpanTracer()
        root = tracer.span("boot", track="compute0")
        child = tracer.span("disk.read", parent=root)
        assert child.parent_id == root.span_id
        assert child.track == "compute0"
        orphan = tracer.span("gc")
        assert orphan.parent_id is None
        assert orphan.track == "gc"

    def test_end_is_idempotent_and_annotates(self):
        engine = Engine(seed=0)
        tracer = SpanTracer(engine)
        span = tracer.span("work", n=1)

        def proc():
            yield engine.timeout(2.0)
            span.end(outcome="ok")
            yield engine.timeout(5.0)
            span.end(outcome="late")  # must not move end_s

        engine.process(proc())
        engine.run()
        assert span.end_s == 2.0
        assert span.attrs == {"n": 1, "outcome": "late"}
        assert not span.open

    def test_close_open_spans_flags_unfinished(self):
        tracer = SpanTracer()
        tracer.span("a").end()
        dangling = tracer.span("b")
        assert tracer.close_open_spans() == 1
        assert dangling.attrs.get("unfinished") is True
        assert tracer.close_open_spans() == 0

    def test_summary_is_sorted_by_name(self):
        tracer = SpanTracer()
        for name in ("zeta", "alpha", "zeta"):
            tracer.span(name).end()
        summary = tracer.summary()
        assert list(summary) == ["alpha", "zeta"]
        assert summary["zeta"]["count"] == 2


# -- chrome export --------------------------------------------------------------------


class TestChromeTrace:
    def make_tracer(self):
        engine = Engine(seed=0)
        tracer = SpanTracer(engine)

        def proc():
            root = tracer.span("boot", track="compute0", image_id=3)
            yield engine.timeout(1.0)
            child = tracer.span("disk.read", parent=root, n_bytes=512)
            yield engine.timeout(0.5)
            child.end()
            root.end()

        engine.process(proc())
        engine.run()
        return tracer

    def test_events_carry_metadata_and_args(self):
        trace = chrome_trace({"squirrel": self.make_tracer()})
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        root = next(e for e in complete if e["name"] == "boot")
        child = next(e for e in complete if e["name"] == "disk.read")
        assert root["args"]["image_id"] == 3
        assert child["args"]["parent_id"] == root["args"]["span_id"]
        assert child["ts"] == pytest.approx(1e6)
        assert child["dur"] == pytest.approx(0.5e6)

    def test_dump_is_deterministic(self):
        assert dump_chrome_trace({"p": self.make_tracer()}) == dump_chrome_trace(
            {"p": self.make_tracer()}
        )

    def test_pids_follow_sorted_process_names(self):
        trace = chrome_trace(
            {"zeta": self.make_tracer(), "alpha": self.make_tracer()}
        )
        names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["name"] == "process_name"
        }
        assert names == {1: "alpha", 2: "zeta"}


# -- attribution ----------------------------------------------------------------------


class TestBootAttribution:
    def test_charges_partition_elapsed_time(self):
        engine = Engine(seed=0)
        timeline = Timeline(engine)
        recorded = {}

        def proc():
            att = BootAttribution(engine)
            yield engine.timeout(2.0)
            att.charge("net_s")
            yield engine.timeout(3.0)
            att.charge_split(1.0, "disk_s")  # 1 s service, 2 s queued
            yield engine.timeout(0.5)
            att.observe(timeline)  # residual -> wait_s
            recorded.update(att.buckets)

        engine.process(proc())
        engine.run()
        assert recorded["net_s"] == pytest.approx(2.0)
        assert recorded["disk_s"] == pytest.approx(1.0)
        assert recorded["wait_s"] == pytest.approx(2.5)
        assert recorded["cache_s"] == 0.0
        assert sum(recorded.values()) == pytest.approx(5.5)
        assert timeline.stats("attr_net_s").count == 1

    def test_charge_split_clamps_service_to_elapsed(self):
        engine = Engine(seed=0)
        att = BootAttribution(engine)
        att.charge_split(10.0, "disk_s")  # nothing elapsed: nothing charged
        assert att.buckets["disk_s"] == 0.0
        assert att.buckets["wait_s"] == 0.0

    def test_attribution_block_shape(self):
        timeline = Timeline()
        timeline.count("arc_t1_hits", 3)
        timeline.count("arc_misses", 1)
        for bucket in BUCKETS:
            timeline.observe(f"attr_{bucket}", 1.0)
        block = attribution_block(timeline)
        assert set(block["arc"]) == set(ARC_COUNTERS)
        assert block["hit_tier_fractions"]["t1"] == pytest.approx(0.75)
        assert block["hit_tier_fractions"]["miss"] == pytest.approx(0.25)
        assert block["tiers"]["cache_s"]["count"] == 1


# -- instrumented boot path -----------------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    return LazyImageCatalog(DatasetConfig(scale=1 / 2048))


def make_rig(dataset, n_compute=4, seed=0):
    cluster = IaaSCluster.build(n_compute=n_compute, n_storage=4, block_size=BLOCK)
    squirrel = Squirrel(
        cluster=cluster,
        estimator=make_estimator("gzip6", (BLOCK,), samples_per_point=2),
    )
    engine = Engine(seed=seed)
    timeline = Timeline(engine)
    return squirrel, engine, timeline, TimedSquirrel(squirrel, dataset, engine, timeline)


def run_boots(dataset, *, faults=None, force_cold=False, repeats=3):
    """A small rig booting each of four images ``repeats`` times per node;
    returns the rig after the run (the first boot populates the node's ARC,
    the second hits T1, the third hits T2)."""
    squirrel, engine, timeline, timed = make_rig(dataset)
    for spec in dataset.specs[:4]:
        squirrel.register(spec)
    if faults is not None:
        FaultInjector(timed, FaultPlan.parse(faults)).start()

    def vm(at, image_id, node_name):
        yield engine.timeout(at)
        yield timed.boot(image_id, node_name, force_cold=force_cold)

    for repeat in range(repeats):
        for i, spec in enumerate(dataset.specs[:4]):
            engine.process(
                vm(2.0 * repeat + 0.3 * i, spec.image_id, f"compute{i % 4}")
            )
    engine.run()
    timed.tracer.close_open_spans()
    return squirrel, engine, timeline, timed


class TestAttributionInvariant:
    def assert_partition(self, timeline):
        latencies = timeline.observations("boot_latency_s")
        buckets = [timeline.observations(f"attr_{b}") for b in BUCKETS]
        assert latencies, "no boots ran"
        for series in buckets:
            assert len(series) == len(latencies)
        for index, latency in enumerate(latencies):
            total = sum(series[index] for series in buckets)
            assert total == pytest.approx(latency, rel=1e-9, abs=1e-9)

    def test_hit_dominated_run(self, dataset):
        _, _, timeline, _ = run_boots(dataset)
        assert timeline.counter("cache_hits") == 12
        assert timeline.counter("arc_t1_hits") > 0  # second boots from memory
        assert timeline.counter("arc_t2_hits") > 0  # third boots from T2
        self.assert_partition(timeline)

    def test_cold_cache_run(self, dataset):
        _, _, timeline, _ = run_boots(dataset, force_cold=True)
        assert timeline.counter("cache_hits") == 0
        self.assert_partition(timeline)

    def test_faulted_run(self, dataset):
        _, _, timeline, _ = run_boots(
            dataset, faults="crash:compute1@1+20,flap:compute2@1+5"
        )
        assert timeline.counter("boot_interrupts") >= 1
        self.assert_partition(timeline)

    def test_arc_counters_surface_in_timeline(self, dataset):
        _, _, timeline, timed = run_boots(dataset)
        lookups = (
            timeline.counter("arc_t1_hits")
            + timeline.counter("arc_t2_hits")
            + timeline.counter("arc_misses")
        )
        assert lookups > 0
        assert timeline.gauge_series("arc_p:compute0")
        block = attribution_block(timeline)
        assert block["hit_tier_fractions"]["t2"] > 0.0

    def test_node_crash_wipes_the_arc(self, dataset):
        _, engine, _, timed = make_rig(dataset)
        timed.arc["compute1"].put(("warm", 0), True, 1024)
        FaultInjector(timed, FaultPlan.parse("crash:compute1@1+10")).start()
        engine.run()
        assert timed.arc["compute1"].resident_bytes == 0


class TestSpanNesting:
    def test_every_child_nests_inside_its_parent(self, dataset):
        _, _, _, timed = run_boots(
            dataset, faults="crash:compute1@1+20,brick:storage0@1+10"
        )
        spans = timed.tracer.spans()
        assert spans
        for span in spans:
            assert not span.open
            if span.parent_id is not None:
                assert timed.tracer.get(span.parent_id).encloses(span)

    def test_interrupted_spans_record_their_killer(self, dataset):
        _, _, timeline, timed = run_boots(dataset, faults="crash:compute1@1+20")
        assert timeline.counter("boot_interrupts") >= 1
        killed = [
            s for s in timed.tracer.spans()
            if s.attrs.get("interrupted") == "node-crash"
        ]
        assert killed

    def test_fault_spans_cover_the_outage(self, dataset):
        _, _, _, timed = run_boots(dataset, faults="crash:compute1@1+20")
        (crash,) = timed.tracer.spans("fault.crash")
        assert crash.start_s == pytest.approx(1.0)
        assert crash.end_s >= 21.0  # outage + resync before the span closes


# -- storm-level determinism ----------------------------------------------------------


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


class TestStormTraces:
    def test_same_seed_traces_are_byte_identical(self, tmp_path, storm_dataset):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            boot_storm(
                faulted_storm_config(), dataset=storm_dataset, trace_path=path
            )
        first, second = (path.read_bytes() for path in paths)
        assert first == second

        trace = json.loads(first)
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete
        # the JSON view preserves nesting too (per process, in microseconds)
        for pid in {e["pid"] for e in complete}:
            by_id = {
                e["args"]["span_id"]: e for e in complete if e["pid"] == pid
            }
            for event in by_id.values():
                parent = by_id.get(event["args"].get("parent_id"))
                if parent is not None:
                    assert parent["ts"] <= event["ts"] + 1e-6
                    assert (
                        event["ts"] + event["dur"]
                        <= parent["ts"] + parent["dur"] + 1e-6
                    )

    def test_report_carries_attribution_and_spans(self, storm_dataset):
        report = boot_storm(
            faulted_storm_config(n_nodes=4, vms_per_node=2),
            dataset=storm_dataset,
        )
        for side in (report.squirrel, report.baseline):
            tiers = side.attribution["tiers"]
            total = sum(tiers[bucket]["mean"] for bucket in BUCKETS)
            assert total == pytest.approx(side.latency.mean, rel=1e-9)
            assert side.spans["boot"]["count"] == side.boots
        payload = report.to_dict()
        assert set(payload["squirrel"]["attribution"]["arc"]) == set(ARC_COUNTERS)


# -- runtime telemetry ----------------------------------------------------------------


from repro.obs import runtime as obs_runtime
from repro.obs.runtime import ProgressReporter, RuntimeProfiler


def _ticking_workload(engine, n=50):
    def proc():
        for _ in range(n):
            yield engine.timeout(1.0)

    engine.process(proc(), label="ticker")


class TestRuntimeProfiler:
    def test_engine_observer_counts_events_and_sim_time(self):
        profiler = RuntimeProfiler()
        engine = Engine(seed=0)
        engine.observer = profiler
        _ticking_workload(engine, n=50)
        engine.run()
        stats = profiler.engine_stats()
        assert stats["runs"] == 1
        assert stats["events"] == engine.events_processed > 0
        assert stats["sim_s"] == pytest.approx(50.0)
        assert stats["wall_s"] > 0
        assert stats["events_per_s"] > 0

    def test_observer_does_not_change_the_trace(self):
        def run(observer):
            engine = Engine(seed=7, trace=True)
            if observer:
                engine.observer = RuntimeProfiler()
            _ticking_workload(engine, n=20)
            engine.run()
            return engine.trace

        assert run(False) == run(True)

    def test_tick_fires_on_the_declared_cadence(self):
        class CountingProfiler(RuntimeProfiler):
            tick_every = 10
            ticks = 0

            def tick(self, engine):
                type(self).ticks += 1
                super().tick(engine)

        profiler = CountingProfiler()
        engine = Engine(seed=0)
        engine.observer = profiler
        _ticking_workload(engine, n=95)
        engine.run()
        # ~1 event per timeout plus process start/end bookkeeping
        assert CountingProfiler.ticks == engine.events_processed // 10

    def test_phases_accumulate_by_name(self):
        clock = iter(float(i) for i in range(100))
        profiler = RuntimeProfiler(clock=lambda: next(clock))
        with profiler.phase("setup"):
            pass
        with profiler.phase("setup"):
            pass
        block = profiler.block()
        assert block["schema"] == "repro.runtime/1"
        assert block["phases"]["setup"]["count"] == 2
        assert block["phases"]["setup"]["wall_s"] == pytest.approx(2.0)

    def test_active_registry_attaches_and_detaches(self):
        engine = Engine(seed=0)
        obs_runtime.attach(engine)
        assert engine.observer is None  # no active profiler -> no-op
        profiler = RuntimeProfiler()
        with obs_runtime.profiled(profiler):
            assert obs_runtime.current() is profiler
            inner = Engine(seed=0)
            obs_runtime.attach(inner)
            assert inner.observer is profiler
        assert obs_runtime.current() is None

    def test_block_shape_is_stable(self):
        profiler = RuntimeProfiler()
        profiler.point("seed=0", 0.25)
        block = profiler.block()
        assert set(block) == {
            "schema", "wall_s", "phases", "engine",
            "rss_high_water_bytes", "points",
        }
        assert block["points"] == [
            {"label": "seed=0", "status": "run", "wall_s": 0.25}
        ]
        assert block["rss_high_water_bytes"] is None or (
            block["rss_high_water_bytes"] > 0
        )


class TestProgressReporter:
    def _reporter(self, stream):
        # a fake clock that advances 1 s per call defeats the throttle
        clock = iter(float(i) for i in range(1000))
        return ProgressReporter(stream, clock=lambda: next(clock))

    def test_heartbeat_goes_to_the_stream_only(self):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream)
        profiler = RuntimeProfiler(progress=reporter)
        profiler.tick_every = 10
        engine = Engine(seed=0)
        engine.observer = profiler
        _ticking_workload(engine, n=60)
        with profiler.phase("storm.run"):
            engine.run()
        lines = stream.getvalue().splitlines()
        assert reporter.emitted == len(lines) > 0
        assert all(line.startswith("[progress] ") for line in lines)
        assert any("storm.run" in line and "ev/s" in line for line in lines)

    def test_fraction_enables_percent_and_eta(self):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream)
        profiler = RuntimeProfiler(progress=reporter)
        profiler.tick_every = 10
        engine = Engine(seed=0)
        engine.observer = profiler
        _ticking_workload(engine, n=60)
        reporter.phase("storm.run")
        reporter.set_fraction(lambda: engine.now / 60.0)
        engine.run()
        text = stream.getvalue()
        assert "%" in text and "eta" in text

    def test_point_done_reports_progress_and_eta(self):
        import io

        stream = io.StringIO()
        reporter = self._reporter(stream)
        reporter.point_done(2, 4, 10.0, workers=2)
        line = stream.getvalue()
        assert "sweep 2/4 points" in line
        assert "avg 5.0s/pt" in line
        assert "eta 5s" in line
