"""Shard plans and similarity weights: deterministic, mode-correct,
and total (every image id resolves to a shard, planned or not)."""

import pytest

from repro.common.errors import ConfigError
from repro.shard import (
    GROUPING_MODES,
    ShardPlan,
    SimilarityGraph,
    build_plan,
    hoard_grains,
    shard_name,
    weight,
)
from repro.vmi import DatasetConfig, LazyImageCatalog

TINY = 1 / 2048


@pytest.fixture(scope="module")
def all_specs():
    return list(LazyImageCatalog(DatasetConfig(scale=TINY)))


@pytest.fixture(scope="module")
def specs(all_specs):
    return all_specs[:48]


class TestSimilarityWeights:
    def test_self_weight_is_one(self, specs):
        for spec in specs[:4]:
            assert weight(spec, spec) == 1.0

    def test_symmetric_and_bounded(self, specs):
        for a in specs[:6]:
            for b in specs[:6]:
                w = weight(a, b)
                assert w == pytest.approx(weight(b, a))
                assert 0.0 <= w <= 1.0

    def test_same_release_beats_strangers(self, all_specs):
        by_release = {}
        for spec in all_specs:
            by_release.setdefault(spec.release.name, []).append(spec)
        siblings = next(v for v in by_release.values() if len(v) >= 2)
        a, b = siblings[:2]
        stranger = next(
            s for s in all_specs if s.release.family != a.release.family
        )
        assert weight(a, b) > weight(a, stranger)

    def test_hoard_grains_positive(self, specs):
        assert all(hoard_grains(spec) > 0 for spec in specs)

    def test_graph_edges_respect_threshold(self, specs):
        graph = SimilarityGraph(specs[:8])
        assert len(graph) == 8
        edges = graph.edges(threshold=0.3)
        assert all(w >= 0.3 for _i, _j, w in edges)
        # graph weights agree with the pairwise function
        for i, j, w in edges[:5]:
            assert w == weight(specs[i], specs[j])


class TestBuildPlan:
    def test_trivial_plan_for_one_shard(self, specs):
        plan = build_plan(specs, 1)
        assert plan.names == ("s00",)
        assert set(plan.assignment.values()) == {"s00"}
        assert len(plan.assignment) == len(specs)

    @pytest.mark.parametrize("mode", GROUPING_MODES)
    def test_plans_deterministic(self, specs, mode):
        owners = {spec.image_id: spec.image_id % 7 for spec in specs}
        a = build_plan(specs, 4, mode, owners=owners)
        b = build_plan(specs, 4, mode, owners=owners)
        assert a.assignment == b.assignment
        assert a.names == b.names == tuple(shard_name(i) for i in range(4))

    def test_similarity_plan_is_weight_coherent(self, specs):
        """Intra-shard pairs are on average more similar than cross-shard
        pairs — the whole point of similarity grouping."""
        plan = build_plan(specs, 4, "similarity")
        intra, cross = [], []
        for i, a in enumerate(specs):
            for b in specs[i + 1:]:
                side = (
                    intra
                    if plan.shard_of(a.image_id) == plan.shard_of(b.image_id)
                    else cross
                )
                side.append(weight(a, b))
        assert intra and cross
        assert sum(intra) / len(intra) > sum(cross) / len(cross)

    def test_similarity_threshold_changes_grouping(self, specs):
        loose = build_plan(specs, 8, "similarity", threshold=0.01)
        tight = build_plan(specs, 8, "similarity", threshold=0.99)
        # a near-one threshold rejects every anchor, opening all 8 groups;
        # a near-zero threshold merges everything into the first group
        used_loose = {s for s in loose.assignment.values()}
        used_tight = {s for s in tight.assignment.values()}
        assert len(used_loose) < len(used_tight)

    def test_tenant_mode_follows_owners(self, specs):
        owners = {spec.image_id: spec.image_id % 5 for spec in specs}
        plan = build_plan(specs, 3, "tenant", owners=owners)
        for spec in specs:
            expected = shard_name(owners[spec.image_id] % 3)
            assert plan.shard_of(spec.image_id) == expected

    def test_tenant_mode_requires_owners(self, specs):
        with pytest.raises(ConfigError, match="owner"):
            build_plan(specs, 3, "tenant")

    def test_bad_modes_and_counts_rejected(self, specs):
        with pytest.raises(ConfigError, match="grouping"):
            build_plan(specs, 2, "alphabetical")
        with pytest.raises(ConfigError, match="shard"):
            build_plan(specs, 0)


class TestShardPlanLookup:
    def test_unplanned_image_gets_modular_home(self):
        plan = ShardPlan(
            mode="tenant", names=("s00", "s01", "s02"), assignment={0: "s02"}
        )
        assert plan.shard_of(0) == "s02"
        assert plan.shard_of(100) == shard_name(100 % 3)
        assert plan.shard_of(101) == shard_name(101 % 3)

    def test_members_sorted_per_shard(self, specs):
        owners = {spec.image_id: spec.image_id % 2 for spec in specs}
        plan = build_plan(specs, 2, "tenant", owners=owners)
        for shard in plan.names:
            members = plan.members(shard)
            assert members == sorted(members)
        assert sum(len(plan.members(s)) for s in plan.names) == len(specs)

    def test_to_dict_reports_group_sizes(self, specs):
        plan = build_plan(specs, 4, "similarity")
        payload = plan.to_dict()
        assert payload["mode"] == "similarity"
        assert payload["images"] == len(specs)
        assert sum(payload["group_sizes"].values()) == len(specs)
