"""The timed rig's instrument table is its only declaration point.

Each rig kind exports exactly the metric families of the table rows its
gates enable, every row's family is exported by at least one rig kind,
and every Timeline counter a run writes is a table fact.
"""

import pytest

from repro.experiments import storm_timeline
from repro.workload.timed import (
    ALWAYS,
    FAULTS,
    INSTRUMENTS,
    PLACEMENT,
    SHARDING,
)

#: every fault kind, plus an overlapping crash the injector skips
FAULT_PLAN = (
    "crash:compute1@5+30,crash:compute1@8+5,flap:compute2@8+10,"
    "brick:storage0@3+15"
)

#: rig kind -> (the Squirrel side of one small run, the gates it attaches)
RIGS = {
    "storm": (
        lambda: storm_timeline.run(
            nodes=4, vms_per_node=2, faults=FAULT_PLAN
        ).report.squirrel,
        {ALWAYS, FAULTS},
    ),
    "placement": (
        lambda: storm_timeline.run_placement(
            policy="top_k", nodes=4, vms_per_node=2
        ).report.squirrel,
        {ALWAYS, PLACEMENT},
    ),
    "shards": (
        lambda: storm_timeline.run_shards(
            shards=4, nodes=4, vms_per_node=2
        ).report.squirrel,
        {ALWAYS, SHARDING},
    ),
}


@pytest.fixture(scope="module")
def sides():
    return {kind: run() for kind, (run, _gates) in RIGS.items()}


def _exported(side) -> set[str]:
    return {family["name"] for family in side.metrics["instruments"]}


@pytest.mark.parametrize("kind", sorted(RIGS))
def test_rig_exports_exactly_its_gated_rows(sides, kind):
    gates = RIGS[kind][1]
    expected = {
        row.family
        for row in INSTRUMENTS
        if row.family is not None and row.gate in gates
    }
    assert _exported(sides[kind]) == expected


def test_every_row_is_exported_by_some_rig(sides):
    exported = set().union(*(_exported(side) for side in sides.values()))
    missing = {
        row.family
        for row in INSTRUMENTS
        if row.family is not None and row.family not in exported
    }
    assert not missing


def test_timeline_counters_are_table_facts(sides):
    keys = {row.timeline for row in INSTRUMENTS if row.kind == "counter"}
    for side in sides.values():
        assert set(side.summary["counters"]) <= keys
