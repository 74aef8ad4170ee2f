"""Tests for the cache-aware VM scheduling comparison."""

import pytest

from repro.common.errors import NetworkError
from repro.core import (
    SCHEDULING_POLICIES,
    SchedulerConfig,
    generate_arrivals,
    simulate_policy,
)
from repro.vmi import DatasetConfig, LazyImageCatalog


@pytest.fixture(scope="module")
def dataset():
    return LazyImageCatalog(DatasetConfig(scale=1 / 2048))


@pytest.fixture(scope="module")
def events(dataset):
    return generate_arrivals(dataset, n_vms=1500, horizon_ticks=800)


class TestArrivals:
    def test_deterministic(self, dataset):
        a = generate_arrivals(dataset, n_vms=100)
        b = generate_arrivals(dataset, n_vms=100)
        assert a == b

    def test_sorted_by_start(self, events):
        starts = [e.start for e in events]
        assert starts == sorted(starts)

    def test_popularity_skewed(self, dataset, events):
        from collections import Counter

        counts = Counter(e.image_id for e in events)
        top = counts.most_common(1)[0][1]
        assert top > 5 * (len(events) / len(dataset))

    def test_durations_positive(self, events):
        assert all(e.duration >= 1 for e in events)


class TestPolicies:
    def test_unknown_policy_rejected(self, dataset, events):
        with pytest.raises(NetworkError):
            simulate_policy(dataset, events, "clairvoyant")

    def test_squirrel_always_hits(self, dataset, events):
        outcome = simulate_policy(dataset, events, "squirrel")
        assert outcome.hit_rate == 1.0
        assert outcome.miss_network_bytes == 0

    def test_cache_aware_beats_random_on_hits(self, dataset, events):
        """Steering to warm nodes must pay off in hit rate..."""
        config = SchedulerConfig(cache_budget_bytes=max(
            spec.cache_bytes for spec in dataset) * 40)
        random_outcome = simulate_policy(dataset, events, "random", config)
        aware_outcome = simulate_policy(dataset, events, "cache-aware", config)
        assert aware_outcome.hit_rate > random_outcome.hit_rate

    def test_every_policy_places_the_same_demand(self, dataset, events):
        placed = {
            policy: simulate_policy(dataset, events, policy).placed +
                    simulate_policy(dataset, events, policy).rejected
            for policy in SCHEDULING_POLICIES
        }
        assert len(set(placed.values())) == 1

    def test_squirrel_balances_load_at_least_as_well(self, dataset, events):
        """Squirrel's placement is pure load-balancing; cache-aware couples
        placement to locality and cannot beat it on balance."""
        aware = simulate_policy(dataset, events, "cache-aware")
        squirrel = simulate_policy(dataset, events, "squirrel")
        assert squirrel.load_imbalance <= aware.load_imbalance + 1e-9

    def test_miss_traffic_only_for_lru_policies(self, dataset, events):
        for policy in ("random", "cache-aware"):
            outcome = simulate_policy(dataset, events, policy)
            assert outcome.miss_network_bytes > 0

    def test_outcome_accounting_consistent(self, dataset, events):
        outcome = simulate_policy(dataset, events, "random")
        assert outcome.placed + outcome.rejected == len(events)
        assert 0 <= outcome.cache_hits <= outcome.placed
