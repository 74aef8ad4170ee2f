"""The shards experiment's contracts: shards=1 is byte-identical to the
plain storm, the grouped-vs-global blocks are shaped and consistent, the
per-shard/per-tenant families respect the node-detail cap, and sweep
merges stay byte-identical at any worker count."""

import pytest

from repro.common.errors import ConfigError
from repro.common.report import dumps_canonical
from repro.experiments import registry, storm_timeline
from repro.experiments.params import validate_params
from repro.metrics import Sampler
from repro.sweep import SweepSpec, run_sweep
from repro.vmi import catalog_at
from repro.workload import StormConfig, storm_arrivals, timed
from repro.workload.sharding import TENANT_FACTS, shard_storm

#: small enough for unit tests, large enough for tenants to collide
SMALL = {"nodes": 8, "vms_per_node": 2}
MiB = 1 << 20


@pytest.fixture(scope="module")
def sharded():
    return storm_timeline.run_shards(shards=4, grouping="tenant", quota_mb=256, **SMALL)


@pytest.fixture(scope="module")
def outcome():
    """The workload-level run behind ``sharded``, which keeps both sides'
    metrics blocks."""
    config = StormConfig.from_params(**SMALL)
    return shard_storm(config, shards=4, grouping="tenant", quota_mb=256)


def _rigs_of(monkeypatch) -> list:
    """Collect every TimedSquirrel built while the test runs."""
    rigs = []
    raw_init = timed.TimedSquirrel.__init__

    def init(self, *args, **kwargs):
        raw_init(self, *args, **kwargs)
        rigs.append(self)

    monkeypatch.setattr(timed.TimedSquirrel, "__init__", init)
    return rigs


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


class TestNodeArcSlices:
    def test_node_gauges_pool_the_slices_a_warm_read_keeps_apart(
        self, monkeypatch
    ):
        """On a 3-shard storm (and its one-slice global side), every
        scrape's per-node ARC gauges are the sums of the node's slices
        (the hit rate: pooled hits over pooled lookups), the "_fleet"
        gauges past the detail cap are the sums over every node (per shard
        too, over the shard's own dedup domain or the global DDT), and a
        warm read touches only the slice of its image's shard."""
        rigs, reads = _rigs_of(monkeypatch), []
        scraped = {"nodes": 0, "multi_slice": 0, "fleet": 0}
        raw_warm_read = timed.TimedSquirrel._warm_read
        raw_scrape = Sampler.scrape

        def warm_read(self, image_id, node_name, bt, tenant=None):
            slices = self.arcs[node_name]
            before = {shard: arc.stats.as_dict() for shard, arc in slices.items()}
            steps = raw_warm_read(self, image_id, node_name, bt, tenant)
            # every lookup runs before the read's first wait, a timeout
            # whose value it ignores (no fault can interrupt it here)
            first = next(steps)
            after = {shard: arc.stats.as_dict() for shard, arc in slices.items()}
            reads.append(
                (self.squirrel.cvolume.chain_of(image_id).name, before, after)
            )
            yield first
            return (yield from steps)

        def scrape(self):
            raw_scrape(self)
            rig = next(r for r in rigs if r.engine is self.engine)
            family = rig.metrics.family
            for node in rig._axes["node"]:
                slices = list(rig.arcs[node].values())
                hits = sum(arc.stats.hits for arc in slices)
                lookups = hits + sum(arc.stats.misses for arc in slices)
                gauges = {
                    name: family(name).labels(node=node).read()
                    for name in (
                        "zfs_arc_resident_bytes", "zfs_arc_p_bytes",
                        "zfs_arc_hit_rate",
                    )
                }
                assert gauges == {
                    "zfs_arc_resident_bytes":
                        sum(arc.resident_bytes for arc in slices),
                    "zfs_arc_p_bytes": sum(arc.p for arc in slices),
                    "zfs_arc_hit_rate": hits / lookups if lookups else 0.0,
                }
                scraped["nodes"] += 1
                resident = [arc.resident_bytes for arc in slices]
                scraped["multi_slice"] += sum(map(bool, resident)) > 1
            if rig.squirrel.sharding is None:
                return  # the cacheless baseline declares no shard families
            nodes = rig.arcs.values()
            fleet = [(
                "zfs_arc_resident_bytes", {},
                sum(arc.resident_bytes
                    for slices in nodes for arc in slices.values()),
            )]
            for shard, chain in rig.squirrel.cvolume.chains.items():
                fleet += [
                    ("zfs_shard_arc_resident_bytes", {"shard": shard},
                     sum(slices[shard].resident_bytes for slices in nodes)),
                    ("zfs_shard_node_ddt_core_bytes", {"shard": shard},
                     sum(timed._node_shard_ddt_core(node, chain.domain)
                         for node in rig.squirrel.cluster.compute)),
                ]
            for name, labels, value in fleet:
                assert family(name).labels(node="_fleet", **labels).read() == value
            scraped["fleet"] += 1

        monkeypatch.setattr(timed, "METRICS_NODE_DETAIL", 2)
        monkeypatch.setattr(timed.TimedSquirrel, "_warm_read", warm_read)
        monkeypatch.setattr(Sampler, "scrape", scrape)
        storm_timeline.run_shards(shards=3, nodes=4, vms_per_node=6)

        # the grouped side's three slices per node, one on the other sides
        assert {len(next(iter(r.arcs.values()))) for r in rigs} == {3, 1}
        assert scraped["nodes"] > 0 and scraped["multi_slice"] > 0
        assert scraped["fleet"] > 0
        assert reads
        touched_busy_neighbour = 0
        for shard, before, after in reads:
            assert after[shard] != before[shard]
            for other in before.keys() - {shard}:
                assert after[other] == before[other]
                touched_busy_neighbour += any(before[other].values())
        # the isolation was tested against slices that had seen lookups
        assert touched_busy_neighbour > 0


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

    @pytest.mark.parametrize("side", ["grouped", "global"])
    def test_tenant_entries_are_the_counter_children(self, outcome, side):
        """Each side's tenant block lists exactly the tenants its
        ``squirrel_tenant_boots_total`` children saw boot, with that side's
        counter values and the hit-rate gauge's last sample."""
        storm_side = (
            outcome.report.squirrel if side == "grouped" else outcome.global_side
        )
        metrics = storm_side.metrics
        by_name = {f["name"]: f for f in metrics["instruments"]}
        children = {
            fact: {
                s["labels"]["tenant"]: s["value"]
                for s in by_name[f"squirrel_tenant_{fact}_total"]["samples"]
            }
            for fact in TENANT_FACTS
        }
        last_rate = {
            series["labels"]["tenant"]: series["v"][-1]
            for series in metrics["series"]
            if series["name"] == "squirrel_tenant_hit_rate"
        }
        tenants = outcome.sharding[side]["tenants"]
        assert set(tenants) == {
            label for label, n in children["boots"].items() if n >= 1
        }
        assert sum(entry["boots"] for entry in tenants.values()) == (
            storm_side.boots
        )
        for label, entry in tenants.items():
            for fact in TENANT_FACTS:
                assert entry[fact] == children[fact][label]
                assert isinstance(entry[fact], int)
            assert entry["hit_rate"] == last_rate[label]

    def test_victim_is_consistent(self, sharded):
        victim = sharded.sharding["victim"]
        assert victim["tenant"] is not None
        assert victim["delta"] == pytest.approx(
            victim["grouped_hit_rate"] - victim["global_hit_rate"]
        )
        key = f"t{victim['tenant']:02d}"
        grouped = sharded.sharding["grouped"]["tenants"][key]
        assert grouped["hit_rate"] == victim["grouped_hit_rate"]

    @pytest.mark.parametrize("quota_mb", [64, 0])
    def test_arc_slices_follow_the_quota(self, monkeypatch, quota_mb):
        """Every grouped slice is the per-shard quota, the global side's
        one slice the sum over the shards; unquota'd, each slice is an even
        split of the node budget (one slice holds it all)."""
        rigs = _rigs_of(monkeypatch)
        storm_timeline.run_shards(shards=3, quota_mb=quota_mb, **SMALL)
        sharded_rigs = [r for r in rigs if r.squirrel.sharding is not None]
        assert len(sharded_rigs) == 2  # grouped, then global
        sizes = [
            {arc.capacity for arcs in r.arcs.values() for arc in arcs.values()}
            for r in sharded_rigs
        ]
        if quota_mb:
            expected = [{quota_mb * MiB}, {3 * quota_mb * MiB}]
        else:
            expected = [
                {timed.ARC_BYTES_PER_NODE // 3}, {timed.ARC_BYTES_PER_NODE}
            ]
        assert sizes == expected
        assert [len(next(iter(r.arcs.values()))) for r in sharded_rigs] == [3, 1]

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
        """With the detail cap below the fleet count, labelled shard
        families keep exact sums through ``_other``/``_fleet`` children
        instead of one series per node. The tenant axis is bounded by the
        tenant list, not the fleet: it keeps one child per tenant, and the
        grouped tenant block lists every tenant that booted."""
        monkeypatch.setattr(timed, "METRICS_NODE_DETAIL", 2)
        result = storm_timeline.run_shards(shards=2, quota_mb=64, **SMALL)
        side = result.report.squirrel
        by_name = {f["name"]: f for f in side.metrics["instruments"]}

        every_tenant = {f"t{t:02d}" for t in range(result.config.n_tenants)}
        for family in (
            *(f"squirrel_tenant_{fact}_total" for fact in TENANT_FACTS),
            "squirrel_tenant_hit_rate",
        ):
            labels = [s["labels"]["tenant"] for s in by_name[family]["samples"]]
            assert len(labels) == 32 and set(labels) == every_tenant
        boots = sum(
            s["value"]
            for s in by_name["squirrel_tenant_boots_total"]["samples"]
        )
        assert boots == side.boots
        arrivals = storm_arrivals(result.config, catalog_at(result.config.scale))
        booted = {f"t{tenant:02d}" for *_, tenant in arrivals.plan}
        assert set(result.sharding["grouped"]["tenants"]) == booted

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
