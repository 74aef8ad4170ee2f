"""Unit tests for placement policies: determinism, floors, membership."""

import pytest

from repro.common.errors import ConfigError
from repro.placement import (
    POLICY_NAMES,
    FullPolicy,
    PlacementContext,
    PlacementPolicy,
    TenantAffinePolicy,
    TopKPolicy,
    ZipfWeightedPolicy,
    make_policy,
)

NODES = tuple(f"compute{i}" for i in range(8))


def ctx(popularity, nodes=NODES, owners=(), tenant_weights=()):
    return PlacementContext(
        nodes=nodes,
        popularity=tuple(popularity),
        owners=tuple(owners),
        tenant_weights=tuple(tenant_weights),
    )


def skewed(n=12, exponent=1.0):
    """Zipf(``exponent``) pmf over ``n`` images, image 0 hottest."""
    raw = [rank**-exponent for rank in range(1, n + 1)]
    return tuple(w / sum(raw) for w in raw)


class TestFull:
    def test_every_node_holds_every_image(self):
        placement = FullPolicy().place(ctx(skewed(5)))
        assert set(placement) == set(range(5))
        assert all(holders == NODES for holders in placement.values())


class TestTopK:
    def test_hot_set_is_fleet_wide_tail_gets_floor(self):
        popularity = skewed(10, 1.2)
        policy = TopKPolicy(top_k=3, replica_floor=2)
        placement = policy.place(ctx(popularity))
        # zipf popularity is descending in image id, so hot = {0, 1, 2}
        for image_id in range(3):
            assert placement[image_id] == NODES
        for image_id in range(3, 10):
            assert len(placement[image_id]) == 2
            assert set(placement[image_id]) <= set(NODES)

    def test_tail_replicas_strictly_fewer_nodes(self):
        placement = TopKPolicy(top_k=1, replica_floor=2).place(ctx(skewed(6)))
        assert sum(len(h) for h in placement.values()) < 6 * len(NODES)

    def test_deterministic_across_instances(self):
        a = TopKPolicy(top_k=2, replica_floor=2).place(ctx(skewed(9)))
        b = TopKPolicy(top_k=2, replica_floor=2).place(ctx(skewed(9)))
        assert a == b

    def test_scatter_keyed_on_fleet_size(self):
        small = TopKPolicy(top_k=0, replica_floor=2).place(ctx(skewed(4)))
        large = TopKPolicy(top_k=0, replica_floor=2).place(
            ctx(skewed(4), nodes=tuple(f"compute{i}" for i in range(16)))
        )
        assert any(small[i] != large[i] for i in range(4))

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigError, match="non-negative"):
            TopKPolicy(top_k=-1).place(ctx(skewed(3)))
        with pytest.raises(ConfigError, match="floor"):
            TopKPolicy(replica_floor=0).place(ctx(skewed(3)))


class TestZipfWeighted:
    def test_replicas_monotone_in_popularity(self):
        placement = ZipfWeightedPolicy(replica_floor=1).place(
            ctx(skewed(10, 1.3))
        )
        counts = [len(placement[i]) for i in range(10)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        # the hottest image saturates the fleet, the tail does not
        assert counts[0] == len(NODES)
        assert counts[-1] < len(NODES)

    def test_floor_respected(self):
        placement = ZipfWeightedPolicy(replica_floor=3).place(
            ctx(skewed(10, 2.0))
        )
        assert all(len(h) >= 3 for h in placement.values())


class TestTenantAffine:
    def test_images_of_one_tenant_colocate(self):
        popularity = skewed(6)
        owners = (0, 0, 1, 1, 2, 2)
        weights = (0.5, 0.3, 0.2)
        placement = TenantAffinePolicy(replica_floor=2).place(
            ctx(popularity, owners=owners, tenant_weights=weights)
        )
        assert placement[0] == placement[1]
        assert placement[2] == placement[3]
        # heavier tenants get larger affinity sets
        assert len(placement[0]) >= len(placement[4])

    def test_requires_tenancy_inputs(self):
        with pytest.raises(ConfigError, match="tenant_affine"):
            TenantAffinePolicy().place(ctx(skewed(4)))


class TestMakePolicy:
    def test_all_names_construct(self):
        for name in POLICY_NAMES:
            policy = make_policy(name, top_k=4, replica_floor=2)
            assert isinstance(policy, PlacementPolicy)
            assert policy.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown placement policy"):
            make_policy("hoard_everything")


class TestFleetPopularity:
    def test_matches_tenant_population_mixture(self):
        """The pmf storms place by (``placement_context`` reads it)."""
        from repro.workload import TenantPopulation

        population = TenantPopulation(4, 10, seed=7, zipf_exponent=0.9)
        pmf = population.expected_popularity()
        assert abs(sum(pmf) - 1.0) < 1e-9
        assert len(pmf) == 10
