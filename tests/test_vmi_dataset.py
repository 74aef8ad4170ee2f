"""Dataset-level tests: census, totals, scale invariance, stream shapes."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.units import GiB
from repro.vmi import (
    AZURE_CENSUS,
    PAPER_TOTALS,
    DatasetConfig,
    LazyImageCatalog,
    block_view,
    cache_stream,
)

TINY = 1 / 2048
SMALL = 1 / 512


@pytest.fixture(scope="module")
def tiny():
    return LazyImageCatalog(DatasetConfig(scale=TINY))


class TestCensus:
    def test_reproduces_table2(self, tiny):
        census = tiny.census()
        for name, count in AZURE_CENSUS.items():
            assert census[name] == count

    def test_607_images(self, tiny):
        assert len(tiny) == 607

    def test_ids_unique_and_sequential(self, tiny):
        ids = [spec.image_id for spec in tiny]
        assert ids == list(range(607))


class TestTotals:
    def test_totals_match_paper_at_scale(self, tiny):
        assert sum(spec.raw_bytes for spec in tiny.specs) == pytest.approx(
            PAPER_TOTALS["raw_bytes"] * TINY, rel=0.02
        )
        assert sum(spec.nonzero_bytes for spec in tiny.specs) == pytest.approx(
            PAPER_TOTALS["nonzero_bytes"] * TINY, rel=0.02
        )
        assert sum(spec.cache_bytes for spec in tiny.specs) == pytest.approx(
            PAPER_TOTALS["cache_bytes"] * TINY, rel=0.02
        )

    def test_scaled_up_reporting(self, tiny):
        scaled = tiny.scaled_up(sum(spec.cache_bytes for spec in tiny.specs))
        assert scaled == pytest.approx(78.5 * GiB, rel=0.02)

    def test_per_image_ordering(self, tiny):
        for spec in tiny:
            assert spec.cache_bytes <= spec.nonzero_bytes <= spec.raw_bytes


class TestScale:
    @pytest.mark.parametrize("scale", [0.0, -1 / 512, float("nan"), float("inf")])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ConfigError, match="dataset scale"):
            DatasetConfig(scale=scale)


class TestDeterminism:
    def test_same_config_same_dataset(self):
        a = LazyImageCatalog(DatasetConfig(scale=TINY))
        b = LazyImageCatalog(DatasetConfig(scale=TINY))
        assert [s.seed for s in a] == [s.seed for s in b]
        assert [s.cache_bytes for s in a] == [s.cache_bytes for s in b]

    def test_different_seed_different_sizes(self):
        a = LazyImageCatalog(DatasetConfig(scale=TINY, seed=1))
        b = LazyImageCatalog(DatasetConfig(scale=TINY, seed=2))
        assert [s.cache_bytes for s in a] != [s.cache_bytes for s in b]


def _cache_dedup(ds, block_size):
    views = [block_view(cache_stream(s), block_size) for s in ds]
    sigs = np.concatenate([v.signatures[~v.is_hole] for v in views])
    return sigs.size / np.unique(sigs).size


class TestPaperShapes:
    """The headline mechanisms must emerge at any scale."""

    @pytest.fixture(scope="class")
    def small(self):
        return LazyImageCatalog(DatasetConfig(scale=SMALL))

    def test_cache_dedup_decreases_with_block_size(self, small):
        d1 = _cache_dedup(small, 1024)
        d16 = _cache_dedup(small, 16 * 1024)
        d128 = _cache_dedup(small, 128 * 1024)
        assert d1 >= d16 >= d128 > 1.0

    def test_cache_dedup_levels(self, small):
        """Figure 2 bands (loose: small scale thins the statistics)."""
        assert 2.5 < _cache_dedup(small, 1024) < 7.0
        assert 1.3 < _cache_dedup(small, 128 * 1024) < 3.5

    def test_dedup_ratio_roughly_scale_invariant(self, small):
        """Dedup is an intensive metric: doubling the scale moves it by well
        under 2x (finite-size effects shrink as caches grow relative to
        mutation regions, so only a loose band holds at test-sized scales)."""
        bigger = LazyImageCatalog(DatasetConfig(scale=2 * SMALL))
        a = _cache_dedup(small, 4096)
        b = _cache_dedup(bigger, 4096)
        assert abs(a - b) / a < 0.40

    def test_caches_dedup_better_than_images(self, small):
        from repro.vmi import image_stream

        sample = small.specs[::13]  # subsample for speed
        img_views = [block_view(image_stream(s), 16 * 1024) for s in sample]
        img_sigs = np.concatenate([v.signatures[~v.is_hole] for v in img_views])
        img_dedup = img_sigs.size / np.unique(img_sigs).size
        cache_views = [block_view(cache_stream(s), 16 * 1024) for s in sample]
        c_sigs = np.concatenate([v.signatures[~v.is_hole] for v in cache_views])
        cache_dedup = c_sigs.size / np.unique(c_sigs).size
        assert cache_dedup > img_dedup


class TestBlockView:
    def test_signatures_count(self, tiny):
        spec = tiny.specs[0]
        stream = cache_stream(spec)
        view = block_view(stream, 4096)
        assert view.n_blocks == -(-stream.size // 4)

    def test_class_fractions_rows_sum_to_one_for_dense_blocks(self, tiny):
        stream = cache_stream(tiny.specs[0])
        view = block_view(stream, 4096)
        dense = view.class_fractions[:-1]  # last block may be padded
        assert np.allclose(dense.sum(axis=1), 1.0)

    def test_hole_detection(self):
        stream = np.zeros(8, dtype=np.uint64)
        view = block_view(stream, 4096)
        assert view.is_hole.all()
        assert view.nonzero_lsize == 0

    def test_short_tail_lsize(self):
        stream = np.full(5, (1 << 3) | 1, dtype=np.uint64)
        view = block_view(stream, 4096)
        assert view.lsizes[-1] == 1024
        assert view.lsizes[0] == 4096

    def test_rejects_non_grain_multiple(self):
        with pytest.raises(ValueError):
            block_view(np.zeros(4, dtype=np.uint64), 1500)

    def test_psizes_capped_by_lsize(self, tiny):
        from repro.vmi import make_estimator

        est = make_estimator("gzip6", (4096,), samples_per_point=2)
        stream = cache_stream(tiny.specs[0])
        view = block_view(stream, 4096)
        ps = view.psizes(est)
        assert (ps <= view.lsizes).all()
        assert (ps[~view.is_hole] > 0).all()
