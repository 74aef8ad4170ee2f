"""Tests for the discrete-event kernel: clock, processes, contention, metrics."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Engine, Pipe, Resource, Timeline


class TestEngineBasics:
    def test_clock_starts_at_zero_and_advances(self):
        engine = Engine()
        assert engine.now == 0.0
        engine.timeout(5.0)
        assert engine.run() == 5.0

    def test_timeout_delivers_value(self):
        engine = Engine()
        seen = []

        def proc():
            value = yield engine.timeout(1.0, "payload")
            seen.append((engine.now, value))

        engine.process(proc())
        engine.run()
        assert seen == [(1.0, "payload")]

    def test_process_return_value_becomes_event_value(self):
        engine = Engine()

        def inner():
            yield engine.timeout(2.0)
            return 42

        def outer():
            result = yield engine.process(inner())
            return result + 1

        proc = engine.process(outer())
        engine.run()
        assert proc.value == 43

    def test_all_of_gathers_values_in_input_order(self):
        engine = Engine()
        events = [engine.timeout(3.0, "slow"), engine.timeout(1.0, "fast")]
        gathered = engine.all_of(events)
        engine.run()
        assert gathered.value == ["slow", "fast"]
        assert engine.now == 3.0

    def test_run_until_stops_the_clock(self):
        engine = Engine()
        engine.timeout(10.0)
        assert engine.run(until=4.0) == 4.0
        assert engine.peek() == 10.0

    def test_yielding_non_event_is_an_error(self):
        engine = Engine()

        def proc():
            yield 17

        engine.process(proc())
        with pytest.raises(SimulationError, match="may only yield Event"):
            engine.run()

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.timeout(-1.0)

    def test_double_trigger_rejected(self):
        engine = Engine()
        event = engine.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()


class TestEngineDeterminism:
    @staticmethod
    def _race(seed: int) -> list[tuple[float, str]]:
        """Many processes all waking at the same instants."""
        engine = Engine(seed=seed, trace=True)

        def proc(i):
            yield engine.timeout(1.0, label=f"wake:{i}")
            yield engine.timeout(1.0, label=f"again:{i}")

        for i in range(20):
            engine.process(proc(i), label=f"proc:{i}")
        engine.run()
        return engine.trace

    def test_same_seed_same_total_order(self):
        assert self._race(7) == self._race(7)

    def test_different_seeds_differ_on_ties(self):
        assert self._race(7) != self._race(8)


class TestResource:
    def test_grants_in_request_order(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        order = []

        def worker(i):
            yield resource.request()
            order.append(i)
            yield engine.timeout(1.0)
            resource.release()

        def spawner():
            # sequential requests: i arrives strictly before i+1
            for i in range(3):
                engine.process(worker(i))
                yield engine.timeout(0.1)

        engine.process(spawner())
        engine.run()
        assert order == [0, 1, 2]
        assert resource.total_grants == 3
        assert resource.queue_length == 0

    def test_capacity_bounds_concurrency(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)
        peak = [0]
        active = [0]

        def worker():
            yield resource.request()
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield engine.timeout(1.0)
            active[0] -= 1
            resource.release()

        for _ in range(6):
            engine.process(worker())
        engine.run()
        assert peak[0] == 2

    def test_release_of_idle_resource_is_an_error(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()


class TestPipe:
    def test_lone_transfer_takes_bytes_over_rate(self):
        engine = Engine()
        pipe = Pipe(engine, 100.0, latency_s=0.5)
        done = pipe.transfer(200)
        engine.run()
        assert done.triggered
        assert engine.now == pytest.approx(2.5)  # 200/100 + latency

    def test_fair_sharing_halves_the_rate(self):
        engine = Engine()
        pipe = Pipe(engine, 100.0)
        finish = {}

        def flow(name, n):
            yield pipe.transfer(n)
            finish[name] = engine.now

        engine.process(flow("a", 100))
        engine.process(flow("b", 100))
        engine.run()
        # both flows share the pipe the whole way: each sees 50 B/s
        assert finish["a"] == pytest.approx(2.0)
        assert finish["b"] == pytest.approx(2.0)

    def test_late_joiner_slows_the_first_flow(self):
        engine = Engine()
        pipe = Pipe(engine, 100.0)
        finish = {}

        def flow(name, n, delay):
            yield engine.timeout(delay)
            yield pipe.transfer(n)
            finish[name] = engine.now

        engine.process(flow("early", 100, 0.0))
        engine.process(flow("late", 100, 0.5))
        engine.run()
        # early: 50 B alone (0.5 s), 50 B shared (1.0 s) -> 1.5 s total
        assert finish["early"] == pytest.approx(1.5)
        # late: 50 B shared (1.0 s), 50 B alone (0.5 s) -> finishes at 2.0 s
        assert finish["late"] == pytest.approx(2.0)

    def test_zero_byte_transfer_costs_only_latency(self):
        engine = Engine()
        pipe = Pipe(engine, 100.0, latency_s=0.25)
        pipe.transfer(0)
        assert engine.run() == pytest.approx(0.25)

    def test_many_equal_flows_all_depart(self):
        """The float-residue regression: equal flows must not stall replans."""
        engine = Engine()
        pipe = Pipe(engine, 1e9)
        events = [pipe.transfer(123_456_789) for _ in range(32)]
        engine.run()
        assert all(e.triggered for e in events)
        assert pipe.active_flows == 0

    def test_accounting(self):
        engine = Engine()
        pipe = Pipe(engine, 100.0)
        pipe.transfer(100)
        pipe.transfer(300)
        engine.run()
        assert pipe.total_bytes == 400
        assert pipe.total_flows == 2
        assert pipe.busy_seconds == pytest.approx(4.0)


class TestTimeline:
    def test_counters_gauges_histograms(self):
        engine = Engine()
        timeline = Timeline(engine)
        timeline.count("boots")
        timeline.count("boots", 2)
        timeline.gauge("queue", 5)
        for v in (1.0, 2.0, 3.0, 4.0):
            timeline.observe("latency", v)
        assert timeline.counter("boots") == 3
        assert timeline.gauge_series("queue") == [(0.0, 5.0)]
        stats = timeline.stats("latency")
        assert stats.count == 4
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p50 == pytest.approx(2.5)
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum

    def test_empty_histogram_is_all_zero(self):
        stats = Timeline().stats("nothing")
        assert stats.count == 0
        assert stats.p99 == 0.0

    def test_summary_keys_are_sorted(self):
        timeline = Timeline()
        timeline.count("zulu")
        timeline.count("alpha")
        summary = timeline.summary()
        assert list(summary["counters"]) == ["alpha", "zulu"]

    def test_render_mentions_percentiles(self):
        timeline = Timeline()
        timeline.observe("latency", 1.0)
        assert "p95" in timeline.summary()["histograms"]["latency"]

    def test_render_includes_gauges(self):
        """Every gauge sample lands in the summary, in time order."""
        engine = Engine()
        timeline = Timeline(engine)
        timeline.gauge("arc_p:compute0", 128.0)
        timeline.gauge("arc_p:compute0", 256.0)
        assert timeline.summary()["gauges"]["arc_p:compute0"] == (
            (0.0, 128.0), (0.0, 256.0),
        )
