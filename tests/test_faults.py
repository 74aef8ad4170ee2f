"""Fault injection: preemption semantics, degraded reads, rejoin catch-up,
and deterministic recovery reporting."""

import json

import pytest

from repro.common.errors import ConfigError, NetworkError, SimulationError
from repro.core import IaaSCluster, Squirrel
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.net import GlusterVolume, Node, NodeKind, TransferLedger
from repro.sim import Engine, Interrupted, Pipe, Resource, Timeline
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator
from repro.workload import (
    ChurnConfig,
    DayConfig,
    StormConfig,
    TimedSquirrel,
    boot_storm,
    register_churn,
    shard_storm,
    steady_state_day,
)

BLOCK = 65536


# -- fault plans ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_round_trips(self):
        text = "crash:compute1@40+30,flap:compute2@50+10,brick:storage0@60+20"
        plan = FaultPlan.parse(text)
        assert plan.render() == text
        assert [f.kind for f in plan] == [
            FaultKind.NODE_CRASH, FaultKind.LINK_FLAP, FaultKind.BRICK_FAIL,
        ]

    def test_specs_sorted_by_start_time(self):
        plan = FaultPlan.parse("flap:b@9+1,crash:a@3+1")
        assert [f.at_s for f in plan] == [3.0, 9.0]

    @pytest.mark.parametrize(
        "bad",
        ["", "explode:compute1@4+5", "crash:compute1@4", "crash:compute1@-1+5",
         "crash:compute1@4+0"],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ConfigError):
            FaultPlan.parse(bad)

    def test_exponential_is_deterministic_and_bounded(self):
        kwargs = dict(
            seed=7, horizon_s=3600.0, targets=["compute0", "compute1"],
            mtbf_s=600.0, mttr_s=60.0,
        )
        a = FaultPlan.exponential(**kwargs)
        b = FaultPlan.exponential(**kwargs)
        assert a == b
        assert len(a) > 0
        assert all(f.at_s + f.duration_s < 3600.0 for f in a)
        assert FaultPlan.exponential(**{**kwargs, "seed": 8}) != a

    def test_exponential_rejects_bad_rates(self):
        with pytest.raises(ConfigError):
            FaultPlan.exponential(seed=0, horizon_s=0, targets=["a"],
                                  mtbf_s=1, mttr_s=1)


# -- engine preemption ----------------------------------------------------------------


class TestInterrupt:
    def test_interrupt_runs_handler_at_current_yield(self):
        engine = Engine(seed=0)
        seen = []

        def worker():
            try:
                yield engine.timeout(100.0)
                seen.append("finished")
            except Interrupted as exc:
                seen.append((engine.now, exc.cause))

        proc = engine.process(worker())

        def saboteur():
            yield engine.timeout(5.0)
            proc.interrupt("node-crash")

        engine.process(saboteur())
        engine.run()
        assert seen == [(5.0, "node-crash")]

    def test_interrupted_process_can_retry(self):
        engine = Engine(seed=0)
        done_at = []

        def worker():
            for _ in range(2):
                try:
                    yield engine.timeout(10.0)
                    break
                except Interrupted:
                    continue
            done_at.append(engine.now)

        proc = engine.process(worker())

        def saboteur():
            yield engine.timeout(4.0)
            proc.interrupt()

        engine.process(saboteur())
        engine.run()
        assert done_at == [14.0]  # restarted the 10 s wait at t=4

    def test_interrupt_before_first_step_is_noop(self):
        engine = Engine(seed=0)
        ran = []

        def worker():
            ran.append(engine.now)
            yield engine.timeout(1.0)

        proc = engine.process(worker())
        proc.interrupt()  # still queued for its start event
        engine.run()
        assert ran == [0.0]

    def test_interrupt_finished_process_is_noop(self):
        engine = Engine(seed=0)

        def worker():
            yield engine.timeout(1.0)

        proc = engine.process(worker())
        engine.run()
        proc.interrupt()  # no error
        assert proc.triggered


class TestResourceCancel:
    def test_cancel_waiting_request_leaves_queue(self):
        engine = Engine(seed=0)
        cpu = Resource(engine, capacity=1)
        first = cpu.request()
        second = cpu.request()
        assert cpu.queue_length == 1
        cpu.cancel(second)
        assert cpu.queue_length == 0
        engine.run()
        assert first.triggered
        assert not second.triggered

    def test_cancel_granted_request_releases_slot(self):
        engine = Engine(seed=0)
        cpu = Resource(engine, capacity=1)
        grant = cpu.request()
        cpu.cancel(grant)
        assert cpu.in_use == 0
        regrant = cpu.request()  # slot is available again
        assert cpu.in_use == 1
        engine.run()
        assert regrant.triggered


class TestPipeFaults:
    def _finish_time(self, engine, event):
        done = []
        event._wait(lambda e: done.append(engine.now))
        engine.run()
        assert done, "transfer never completed"
        return done[0]

    def test_set_rate_midflight_rescales_completion(self):
        engine = Engine(seed=0)
        pipe = Pipe(engine, 100.0)
        done = pipe.transfer(100)

        def slow_down():
            yield engine.timeout(0.5)
            pipe.set_rate(50.0)

        engine.process(slow_down())
        # 50 bytes at 100 B/s, then 50 bytes at 50 B/s
        assert self._finish_time(engine, done) == pytest.approx(1.5)

    def test_block_stalls_and_unblock_resumes(self):
        engine = Engine(seed=0)
        pipe = Pipe(engine, 100.0)
        done = pipe.transfer(100)

        def flap():
            yield engine.timeout(0.2)
            pipe.block()
            assert pipe.blocked
            yield engine.timeout(0.5)
            pipe.unblock()

        engine.process(flap())
        assert self._finish_time(engine, done) == pytest.approx(1.5)

    def test_blocks_nest(self):
        engine = Engine(seed=0)
        pipe = Pipe(engine, 100.0)
        pipe.block()
        pipe.block()
        pipe.unblock()
        assert pipe.blocked  # the outer fault still holds the link down
        pipe.unblock()
        assert not pipe.blocked and pipe.rate == 100.0

    def test_unblock_of_unblocked_raises(self):
        engine = Engine(seed=0)
        pipe = Pipe(engine, 100.0)
        with pytest.raises(SimulationError):
            pipe.unblock()

    def test_stalled_pipe_is_not_busy(self):
        engine = Engine(seed=0)
        pipe = Pipe(engine, 100.0)
        pipe.transfer(50)

        def flap():
            yield engine.timeout(0.1)
            pipe.block()
            yield engine.timeout(10.0)
            pipe.unblock()

        engine.process(flap())
        engine.run()
        assert pipe.busy_seconds == pytest.approx(0.5)  # 50 bytes / 100 B/s

    def test_cancel_returns_bandwidth_to_survivors(self):
        engine = Engine(seed=0)
        pipe = Pipe(engine, 100.0)
        victim = pipe.transfer(100)
        survivor = pipe.transfer(100)

        def preempt():
            yield engine.timeout(1.0)  # both have drained 50 bytes
            assert pipe.cancel(victim)
            assert not pipe.cancel(victim)  # already gone

        engine.process(preempt())
        assert self._finish_time(engine, survivor) == pytest.approx(1.5)
        assert not victim.triggered


# -- degraded glusterfs reads ---------------------------------------------------------


def storage_nodes(n=4):
    return [Node(f"st{i}", NodeKind.STORAGE) for i in range(n)]


@pytest.fixture
def volume():
    return GlusterVolume(storage_nodes(), stripe_count=2, replica_count=2,
                         ledger=TransferLedger())


class TestDegradedReads:
    def test_dead_brick_leaves_read_rotation(self, volume):
        victim = volume.groups[0][0].name
        volume.fail_node(victim)
        assert volume.degraded
        for offset in range(0, 16 * volume.stripe_unit, volume.stripe_unit):
            assert volume.serving_node(offset).name != victim

    def test_read_plan_excludes_dead_brick(self, volume):
        volume.create_file("vmi-1", 8 << 20)
        victim = volume.groups[0][0].name
        volume.fail_node(victim)
        _moved, plan = volume.read_with_plan("vmi-1", 0, 8 << 20, reader="c0")
        assert victim not in {node.name for node, _ in plan}

    def test_lost_stripe_group_raises(self, volume):
        for node in volume.groups[0]:
            volume.fail_node(node.name)
        with pytest.raises(NetworkError, match="lost"):
            for offset in range(0, 4 * volume.stripe_unit, volume.stripe_unit):
                volume.serving_node(offset)

    def test_restore_rejoins_rotation(self, volume):
        victim = volume.groups[0][0].name
        volume.fail_node(victim)
        volume.restore_node(victim)
        assert not volume.degraded
        served = {
            volume.serving_node(offset).name
            for offset in range(0, 32 * volume.stripe_unit, volume.stripe_unit)
        }
        assert victim in served

    def test_unknown_node_rejected(self, volume):
        with pytest.raises(NetworkError):
            volume.fail_node("nope")
        with pytest.raises(NetworkError):
            volume.is_alive("nope")

    def test_primary_fails_over(self):
        cluster = IaaSCluster.build(n_compute=2, n_storage=4, block_size=BLOCK)
        first = cluster.storage.primary.name
        cluster.storage.gluster.fail_node(first)
        assert cluster.storage.primary.name != first


# -- crash / rejoin on the timed rig --------------------------------------------------


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


class TestInjectorValidation:
    def test_unknown_targets_rejected(self, dataset):
        _squirrel, _engine, _timeline, timed = make_rig(dataset)
        for text in ("crash:compute9@1+1", "crash:storage0@1+1",
                     "brick:compute0@1+1", "flap:nowhere@1+1"):
            with pytest.raises(ConfigError):
                FaultInjector(timed, FaultPlan.parse(text))

    def test_overlapping_crash_skipped(self, dataset):
        _squirrel, engine, timeline, timed = make_rig(dataset)
        plan = FaultPlan.fixed([
            FaultSpec(FaultKind.NODE_CRASH, "compute1", 1.0, 20.0),
            FaultSpec(FaultKind.NODE_CRASH, "compute1", 5.0, 20.0),
        ])
        FaultInjector(timed, plan).start()
        engine.run()
        assert timeline.counter("node_crashes") == 1
        assert timeline.counter("faults_skipped") == 1


class TestRejoinCatchUp:
    def test_registrations_during_downtime_replay_on_rejoin(self, dataset):
        squirrel, engine, timeline, timed = make_rig(dataset)
        squirrel.register(dataset.specs[0])  # synced baseline for everyone
        FaultInjector(timed, FaultPlan.parse("crash:compute1@10+40")).start()

        def late_registrations():
            for offset, spec in enumerate(dataset.specs[1:3]):
                yield engine.timeout(12.0 + offset)  # while compute1 is dark
                yield timed.register(spec)

        engine.process(late_registrations())
        engine.run()
        assert timeline.counter("node_rejoins") == 1
        assert timeline.counter("incremental_resyncs") == 1
        # catch-up replayed the missed snapshots: the rejoined node now
        # serves both late registrations straight from its local cache
        for spec in dataset.specs[1:3]:
            outcome = squirrel.boot(spec.image_id, "compute1")
            assert outcome.cache_hit

    def test_boot_on_crashed_node_waits_for_rejoin(self, dataset):
        squirrel, engine, timeline, timed = make_rig(dataset)
        spec = dataset.specs[0]
        squirrel.register(spec)
        FaultInjector(timed, FaultPlan.parse("crash:compute1@1+30")).start()

        def vm():
            yield engine.timeout(5.0)
            yield timed.boot(spec.image_id, "compute1")

        engine.process(vm())
        engine.run()
        assert timeline.counter("boots") == 1
        assert timeline.counter("boots_delayed") == 1
        stats = timeline.stats("boot_latency_s")
        assert stats.count == 1
        assert stats.p50 > 25.0  # queued behind the rejoin at t=31
        assert timeline.stats("node_recovery_s").p50 >= 30.0


# -- faulted storms -------------------------------------------------------------------


def faulted_storm_config(**overrides):
    base = dict(
        n_nodes=4, vms_per_node=2, scale=1 / 4096, seed=3,
        faults=FaultPlan.parse("crash:compute1@5+30,flap:compute2@8+10"),
    )
    base.update(overrides)
    return StormConfig(**base)


class TestFaultedStorm:
    def test_every_boot_completes_with_recovery_stats(self):
        report = boot_storm(faulted_storm_config())
        for side in (report.squirrel, report.baseline):
            assert side.boots == 8
            assert side.latency.count == 8  # nothing lost to the crash
        assert report.squirrel.node_recovery.count == 1
        assert report.squirrel.node_recovery.p50 >= 30.0

    def test_same_seed_is_bit_identical(self):
        a = boot_storm(faulted_storm_config()).to_dict()
        b = boot_storm(faulted_storm_config()).to_dict()
        assert a == b

    def test_seed_changes_the_timeline(self):
        a = boot_storm(faulted_storm_config()).to_dict()
        b = boot_storm(faulted_storm_config(seed=4)).to_dict()
        assert a != b

    def test_brick_failure_storm_completes(self):
        config = faulted_storm_config(
            faults=FaultPlan.parse("brick:storage0@2+20")
        )
        report = boot_storm(config)
        assert report.baseline.latency.count == 8
        assert report.baseline.summary["counters"].get("brick_failures") == 1


class TestServedAccountingOnTimedRuns:
    """Each storm side, the shards run's global-domain side, the day run
    and the churn run cross-check the bricks' served tallies against the
    ledger once the engine drains."""

    @staticmethod
    def day():
        return steady_state_day(
            DayConfig(
                n_nodes=4, n_boots=40, n_initial_images=8,
                n_new_registrations=2, scale=1 / 1024,
                faults=FaultPlan.parse("brick:storage0@3600+600"),
            )
        )

    @staticmethod
    def storm():
        return boot_storm(faulted_storm_config(
            faults=FaultPlan.parse("crash:compute1@5+30,brick:storage0@2+20")
        ))

    @staticmethod
    def shards():
        # both grouped sides, then the global-domain side
        return shard_storm(
            faulted_storm_config(
                faults=FaultPlan.parse("crash:compute1@5+30,brick:storage0@2+20")
            ),
            shards=2,
        )

    @staticmethod
    def churn():
        # the brick is down for the first four of the day's eight
        # registration-boot reads, up for the last four
        return register_churn(
            ChurnConfig(
                n_nodes=4, horizon_days=1.0, registrations_per_day=8.0,
                scale=1 / 1024,
                faults=FaultPlan.parse("brick:storage0@600+43200"),
            )
        )

    @pytest.mark.parametrize("run", ["storm", "shards", "day", "churn"])
    def test_faulted_runs_pass(self, run):
        getattr(self, run)()

    @pytest.mark.parametrize("run", ["storm", "shards", "day", "churn"])
    def test_stray_read_record_trips_the_check(self, run, monkeypatch):
        # every brick read also books one byte nobody served, under the
        # read's own purpose (boot-read on a cold boot, registration-boot
        # on a registration)
        real = GlusterVolume.read_with_plan

        def drifting(volume, name, offset, length, *, reader, purpose="boot-read"):
            served = real(
                volume, name, offset, length, reader=reader, purpose=purpose
            )
            volume.ledger.record(volume.groups[0][0].name, "stray", 1, purpose)
            return served

        monkeypatch.setattr(GlusterVolume, "read_with_plan", drifting)
        with pytest.raises(NetworkError, match="diverge"):
            getattr(self, run)()


class TestJsonCli:
    def run_cli(self, capsys):
        from repro.__main__ import main

        argv = [
            "storm", "--nodes", "4", "--vms-per-node", "2", "--seed", "3",
            "--faults", "crash:compute1@5+30,flap:compute2@8+10", "--json",
        ]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_json_output_is_deterministic(self, capsys):
        first = self.run_cli(capsys)
        second = self.run_cli(capsys)
        assert first == second
        payload = json.loads(first)
        side = payload["report"]["squirrel"]
        for key in ("boots", "latency", "recovery", "node_recovery",
                    "interrupted_boots", "delayed_boots"):
            assert key in side

    def test_bad_fault_plan_is_a_usage_error(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["storm", "--faults", "explode:compute1@1+1"])


class TestRegistry:
    def test_duplicate_id_rejected(self):
        from repro.experiments.registry import register

        with pytest.raises(ConfigError):
            register("fig02", "duplicate")(lambda ctx=None: None)

    def test_duplicate_alias_rejected(self):
        from repro.experiments.registry import register

        with pytest.raises(ConfigError):
            register("figXX", "dup alias", aliases=("fig15",))(
                lambda ctx=None: None
            )

    def test_alias_resolution_and_unknown(self):
        from repro.experiments.registry import get

        assert get("tab03").exp_id == "fig14"
        with pytest.raises(ConfigError):
            get("fig99")
