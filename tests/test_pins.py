"""Byte pins of whole experiment results.

Each case runs one small experiment and pins the sha256 of its canonical
result (reports, Timeline summaries, metric instrument snapshots and
sampled series together), so any refactor of the timed rig that changes
a single recorded byte fails here. The cases cover the instrumented
surfaces between them: placement redirects, adoptions and reseeds under a
crash; the faulted storm; the diurnal day; the node-detail cap's
``_other``/``_fleet`` children; registration churn under every fault kind
(including a skipped overlap); and the sharded storm.
"""

import hashlib

import pytest

from repro.common.report import dumps_canonical
from repro.experiments import (
    churn_timeline,
    day_timeline,
    placement_storm,
    recovery_timeline,
    shard_storm,
    storm_timeline,
)
from repro.workload.timed import METRICS_NODE_DETAIL

#: a crash (plus an overlapping one that is skipped), a flap and a brick
#: failure inside a four-day churn horizon
CHURN_FAULTS = (
    "crash:compute1@3600+7200,crash:compute1@5000+100,"
    "flap:compute2@7200+600,brick:storage0@100+3600"
)

CASES = {
    # 15 peer redirects and 15 adoptions at seed 0
    "placement": (
        lambda: placement_storm.run(
            policy="top_k", nodes=8, vms_per_node=4, adopt_budget_mb=64,
            faults="crash:compute1@5+30",
        ),
        "8ee93d02b2054e5bab125f913598f657efc215efd59e680205478b30be1b42e9",
    ),
    "recovery": (
        lambda: recovery_timeline.run(nodes=8, vms_per_node=4),
        "b3c93c8c9817d802dcb48bec582ba55ac2dbbf530ce3c286e6f768cbde4ddcee",
    ),
    "day": (
        lambda: day_timeline.run(nodes=4, boots=200),
        "6a4fc4a410f29165c7efaf4202ffa0a1bb40e521839fac70782858069682313f",
    ),
    "capped-storm": (
        lambda: storm_timeline.run(
            nodes=METRICS_NODE_DETAIL + 6, vms_per_node=1
        ),
        "73eeba10c1a3b6767a077a02c0202eef078da67aaf0a0bd3cd021a90bd838368",
    ),
    "churn": (
        lambda: churn_timeline.run(nodes=4, days=4.0, faults=CHURN_FAULTS),
        "c5c9c6ef38bbd12eebd79d21f9c64d4e36e4c4f2fe6422837614419802623e70",
    ),
    # defaults: 8x4, seed 0, shards=4, tenant grouping, quota 256 MiB
    "shards": (
        lambda: shard_storm.run(),
        "43ff9b4c0ddc823d3c9e7790fe1097d4ff5637af5c507c903d0aa02ad839f526",
    ),
}


class TestResultDigests:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_canonical_result_is_byte_stable(self, case):
        run, expected = CASES[case]
        text = dumps_canonical(run().to_dict())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected
