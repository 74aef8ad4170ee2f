"""Faulted boot storm: the recovery-time acceptance bar.

The headline fault scenario: the 64x8 flash crowd loses ``compute1`` for
45 s mid-storm while ``compute3``'s NIC flaps — and still completes every
boot. Asserts full completion on both sides, populated recovery
percentiles, exactly one crash/rejoin cycle, and bit-identical reports on
a same-seed re-run.
"""

import time

from repro.experiments import registry
from repro.workload import boot_storm

#: the faulted storm, reached with its declared defaults (DEFAULT_FAULTS)
exp = registry.get("recovery")


def test_recovery_timeline(benchmark, record_result):
    started = time.perf_counter()
    result = benchmark.pedantic(
        exp.run, args=(None,), kwargs=exp.validate({}), rounds=1
    )
    wall = time.perf_counter() - started
    record_result(exp.exp_id, exp.render(result))
    report = result.report

    assert wall < 60.0, f"faulted 64x8 storm took {wall:.1f}s wall-clock"
    # every boot completes despite the crash and the flap
    for side in (report.squirrel, report.baseline):
        assert side.boots == 512
        assert side.latency.count == 512
    # one crash, one rejoin, and the recovery ladder is populated
    for side in (report.squirrel, report.baseline):
        counters = side.summary["counters"]
        assert counters["node_crashes"] == 1
        assert counters["node_rejoins"] == 1
        assert side.node_recovery.count == 1
        assert side.node_recovery.p50 >= 45.0  # downtime + catch-up
    # boots were actually disturbed (the crash lands mid-crowd)
    disturbed = (
        report.baseline.interrupted_boots + report.baseline.delayed_boots
    )
    assert disturbed > 0
    assert report.baseline.recovery.count == disturbed

    # same seed, fresh rig: bit-identical report including recovery stats
    again = boot_storm(result.config)
    assert again.squirrel.summary == report.squirrel.summary
    assert again.baseline.summary == report.baseline.summary


def test_recovery_smoke_4node(record_result):
    """CI-sized smoke: 4 nodes, one crash + one flap, seconds of wall clock."""
    from repro.experiments.storm_timeline import StormTimelineResult
    from repro.faults import FaultPlan
    from repro.workload import StormConfig

    config = StormConfig(
        n_nodes=4, vms_per_node=2, ramp_s=10.0, seed=3,
        faults=FaultPlan.parse("crash:compute1@5+30,flap:compute2@8+10"),
    )
    report = boot_storm(config)
    record_result(
        "recovery_smoke",
        exp.render(StormTimelineResult(config=config, report=report)),
    )
    assert report.squirrel.boots == report.squirrel.latency.count == 8
    assert report.baseline.boots == report.baseline.latency.count == 8
    assert report.squirrel.summary["counters"]["node_rejoins"] == 1
