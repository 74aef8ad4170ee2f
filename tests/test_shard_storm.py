"""The shards experiment's contracts: shards=1 is byte-identical to the
plain storm, the grouped-vs-global blocks are shaped and consistent, the
per-shard/per-tenant families respect the node-detail cap, and sweep
merges stay byte-identical at any worker count."""

import pytest

from repro.common.errors import ConfigError
from repro.common.report import dumps_canonical
from repro.experiments import registry, storm_timeline
from repro.experiments.params import validate_params
from repro.shard import ShardPlan
from repro.sweep import SweepSpec, run_sweep
from repro.workload import timed
from repro.zfs import AdaptiveReplacementCache

#: small enough for unit tests, large enough for tenants to collide
SMALL = {"nodes": 8, "vms_per_node": 2}


@pytest.fixture(scope="module")
def sharded():
    return storm_timeline.run_shards(shards=4, grouping="tenant", quota_mb=256, **SMALL)


class TestRegistration:
    def test_registered_with_params_and_metrics(self):
        exp = registry.get("shards")
        assert exp.exp_id == storm_timeline.SHARDS_ID
        names = {spec.name for spec in exp.params}
        assert {"shards", "grouping", "quota_mb", "nodes", "seed"} <= names
        assert "sharding.victim.delta" in exp.metrics

    def test_grouping_choices_enforced(self):
        exp = registry.get("shards")
        with pytest.raises(ConfigError, match="not in"):
            exp.validate({"grouping": "alphabetical"})

    def test_shards_below_one_rejected(self):
        specs = registry.get("shards").params
        assert validate_params(specs, {"shards": 1})["shards"] == 1
        with pytest.raises(ConfigError, match="'shards'"):
            validate_params(specs, {"shards": 0})

    def test_negative_quota_rejected(self):
        specs = registry.get("shards").params
        assert validate_params(specs, {"quota_mb": 0})["quota_mb"] == 0
        with pytest.raises(ConfigError, match="'quota_mb'"):
            validate_params(specs, {"quota_mb": -1})


class TestUnshardedAnchor:
    def test_shards1_report_matches_storm_run(self):
        """shards=1 attaches no router: the embedded report must be
        byte-for-byte the storm experiment's at the same config."""
        one = storm_timeline.run_shards(shards=1, **SMALL)
        storm = storm_timeline.run(**SMALL)
        assert dumps_canonical(one.report.to_dict()) == dumps_canonical(
            storm.report.to_dict()
        )
        assert one.sharding == {} and one.global_side == {}

    def test_shards1_render_names_the_baseline(self):
        one = storm_timeline.run_shards(shards=1, **SMALL)
        assert "unsharded baseline" in storm_timeline.render_shards(one)


class TestNodeArc:
    def test_one_shard_slice_reports_what_a_plain_arc_does(self):
        """One shard takes the plain ARC; a one-slice partitioned ARC fed
        the same lookups must report identical numbers."""
        plain = AdaptiveReplacementCache(4096)
        sliced = timed._ShardedNodeArc(
            ShardPlan("tenant", ("s00",)),
            {"s00": AdaptiveReplacementCache(4096)},
        )
        # a hot set revisited between cold scans: hits, ghosts, evictions
        keys = [
            (0, i % 4) if i % 3 else (1, i) for i in range(200)
        ]
        for index, key in enumerate(keys):
            for arc in (plain, sliced):
                if arc.get(key) is None:
                    arc.put(key, True, 256 + 128 * (index % 3))
        assert sliced.stats == plain.stats
        assert sliced.stats.hits > 0 and sliced.stats.t1_evictions > 0
        assert (sliced.p, sliced.resident_bytes) == (
            plain.p, plain.resident_bytes
        )


class TestShardingBlock:
    def test_block_shape(self, sharded):
        block = sharded.sharding
        assert block["shards"] == 4 and block["grouping"] == "tenant"
        assert set(block["grouped"]["scvolume"]) == {
            "s00", "s01", "s02", "s03"
        }
        assert set(block["global"]["scvolume"]) == {"s00"}
        for stats in block["grouped"]["scvolume"].values():
            assert stats["quota_bytes"] > 0
            assert 0.0 <= stats["quota_pressure"]

    def test_tenant_entries_keyed_and_counted(self, sharded):
        grouped = sharded.sharding["grouped"]["tenants"]
        assert all(key.startswith("t") for key in grouped)
        boots = sum(entry["boots"] for entry in grouped.values())
        assert boots == sharded.report.squirrel.boots

    def test_victim_is_consistent(self, sharded):
        victim = sharded.sharding["victim"]
        assert victim["tenant"] is not None
        assert victim["delta"] == pytest.approx(
            victim["grouped_hit_rate"] - victim["global_hit_rate"]
        )
        key = f"t{victim['tenant']:02d}"
        grouped = sharded.sharding["grouped"]["tenants"][key]
        assert grouped["hit_rate"] == victim["grouped_hit_rate"]

    def test_global_side_summary(self, sharded):
        side = sharded.global_side
        assert side["boots"] == sharded.report.squirrel.boots
        assert side["latency_p95"] >= side["latency_p50"] > 0

    def test_tiny_quota_forces_evictions(self):
        result = storm_timeline.run_shards(shards=2, quota_mb=1, **SMALL)
        stats = result.sharding["grouped"]["scvolume"]
        assert sum(s["evictions"] for s in stats.values()) > 0

    def test_render_mentions_the_victim(self, sharded):
        text = storm_timeline.render_shards(sharded)
        assert "victim tenant" in text
        assert "dedup loss" in text


class TestDetailCapFold:
    def test_shard_and_tenant_families_fold(self, monkeypatch):
        """With the detail cap below the fleet/tenant count, labelled
        shard families keep exact sums through ``_other``/``_fleet``
        children instead of one series per node or tenant."""
        monkeypatch.setattr(timed, "METRICS_NODE_DETAIL", 2)
        result = storm_timeline.run_shards(shards=2, quota_mb=64, **SMALL)
        side = result.report.squirrel
        by_name = {f["name"]: f for f in side.metrics["instruments"]}

        tenants = {
            s["labels"]["tenant"]
            for s in by_name["squirrel_tenant_boots_total"]["samples"]
        }
        assert "_other" in tenants
        assert len(tenants) == 3  # 2 detail tenants + the fold child
        boots = sum(
            s["value"]
            for s in by_name["squirrel_tenant_boots_total"]["samples"]
        )
        assert boots == side.boots

        arc_nodes = {
            s["labels"]["node"]
            for s in by_name["zfs_shard_arc_hits_total"]["samples"]
        }
        assert "_other" in arc_nodes and len(arc_nodes) == 3

        resident_nodes = {
            s["labels"]["node"]
            for s in by_name["zfs_shard_arc_resident_bytes"]["samples"]
        }
        assert "_fleet" in resident_nodes
        assert len(resident_nodes) == 3  # 2 detail nodes + fleet aggregate
        # the tenant hit-rate gauge only carries detail children
        rates = {
            s["labels"]["tenant"]
            for s in by_name["squirrel_tenant_hit_rate"]["samples"]
        }
        assert len(rates) == 2 and "_other" not in rates

    def test_small_fleets_uncapped(self, sharded):
        side = sharded.report.squirrel
        by_name = {f["name"]: f for f in side.metrics["instruments"]}
        tenants = {
            s["labels"]["tenant"]
            for s in by_name["squirrel_tenant_boots_total"]["samples"]
        }
        assert "_other" not in tenants
        assert len(tenants) == 32  # StormConfig.n_tenants default


class TestSweepDeterminism:
    def _spec(self):
        return SweepSpec.from_grid(
            "shards",
            "shards=1,4 quota_mb=0,64",
            {"nodes": 4, "vms_per_node": 1},
        )

    def test_workers_do_not_change_bytes(self):
        serial = run_sweep(self._spec(), workers=1, scale=4096.0)
        parallel = run_sweep(self._spec(), workers=2, scale=4096.0)
        assert dumps_canonical(serial.to_dict()) == dumps_canonical(
            parallel.to_dict()
        )

    def test_summary_skips_absent_sharding_paths(self):
        result = run_sweep(self._spec(), workers=1, scale=4096.0)
        summary = result.to_dict()["summary"]
        assert "report.squirrel.latency.p95" in summary
        # sharded points contribute victim metrics; shards=1 points don't
        groups = summary["sharding.victim.delta"]
        assert groups and all("shards=4" in key for key in groups)
