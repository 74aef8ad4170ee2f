"""Unit tests for the LRU cache-replacement baseline."""

import pytest

from repro.core import LruCacheNode, ZipfBootWorkload, run_policy_comparison
from repro.vmi import DatasetConfig, LazyImageCatalog


class TestLruCacheNode:
    def test_first_boot_misses(self):
        node = LruCacheNode(1000)
        assert not node.boot(1, 100)
        assert node.miss_bytes == 100

    def test_second_boot_hits(self):
        node = LruCacheNode(1000)
        node.boot(1, 100)
        assert node.boot(1, 100)
        assert node.hits == 1

    def test_lru_eviction_order(self):
        node = LruCacheNode(250)
        node.boot(1, 100)
        node.boot(2, 100)
        node.boot(1, 100)  # refresh image 1
        node.boot(3, 100)  # evicts 2 (LRU), not 1
        assert node.boot(1, 100)  # still resident
        assert not node.boot(2, 100)  # was evicted
        assert node.evictions >= 1

    def test_budget_never_exceeded(self):
        node = LruCacheNode(500)
        for image_id in range(20):
            node.boot(image_id, 120)
            assert node.resident_bytes <= 500

    def test_oversized_cache_never_admitted(self):
        node = LruCacheNode(100)
        node.boot(1, 500)
        assert node.resident_images == 0

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            LruCacheNode(0)


class TestWorkload:
    def test_zipf_skew(self):
        workload = ZipfBootWorkload(n_boots=5000, zipf_exponent=1.0)
        draws = workload.draw(100)
        counts = sorted(
            [int((draws == i).sum()) for i in range(100)], reverse=True
        )
        # the top image is requested far more often than the median one
        assert counts[0] > 5 * max(1, counts[50])

    def test_deterministic(self):
        workload = ZipfBootWorkload(n_boots=100)
        assert (workload.draw(50) == workload.draw(50)).all()


class TestComparison:
    @pytest.fixture(scope="class")
    def dataset(self):
        return LazyImageCatalog(DatasetConfig(scale=1 / 2048))

    @pytest.fixture(scope="class")
    def cache_total(self, dataset):
        return sum(spec.cache_bytes for spec in dataset.specs)

    def test_squirrel_always_hits(self, dataset, cache_total):
        result = run_policy_comparison(
            dataset, squirrel_footprint_bytes=cache_total // 8
        )
        assert result.squirrel.hit_rate == 1.0
        assert result.squirrel.miss_network_bytes == 0

    def test_lru_misses_on_the_tail(self, dataset, cache_total):
        """With Squirrel's (small) footprint as raw LRU budget, the long
        tail of a multi-tenant workload keeps missing — the motivation for
        scatter hoarding."""
        result = run_policy_comparison(
            dataset, squirrel_footprint_bytes=cache_total // 8
        )
        assert result.lru.hit_rate < 1.0
        assert result.lru.miss_network_bytes > 0

    def test_bigger_budget_fewer_misses(self, dataset, cache_total):
        small = run_policy_comparison(
            dataset, squirrel_footprint_bytes=cache_total // 16
        )
        large = run_policy_comparison(
            dataset, squirrel_footprint_bytes=cache_total // 2
        )
        assert large.lru.hit_rate > small.lru.hit_rate
