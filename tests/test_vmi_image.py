"""Unit tests for image specs and stream synthesis."""

import numpy as np
import pytest

from repro.vmi import DatasetConfig, LazyImageCatalog
from repro.vmi.distro import Release
from repro.vmi.image import ImageSpec, MutationProfile, cache_stream, image_stream


def make_spec(image_id=0, seed=123, cache_kb=512, nonzero_kb=4096, **overrides):
    defaults = dict(
        image_id=image_id,
        release=Release("ubuntu", "12.04", 0.5, 6),
        seed=seed,
        raw_bytes=64 << 20,
        nonzero_bytes=nonzero_kb * 1024,
        cache_bytes=cache_kb * 1024,
        base_fraction=0.5,
        package_fraction=0.3,
        mutation=MutationProfile(
            boot_rate=0.3, body_rate=0.2, region_mean_grains=64, region_sigma=1.5
        ),
        boot_span_grains=1024,
    )
    defaults.update(overrides)
    return ImageSpec(**defaults)


class TestSpecProperties:
    def test_grain_counts(self):
        spec = make_spec(cache_kb=512, nonzero_kb=4096)
        assert spec.cache_grains == 512
        assert spec.nonzero_grains == 4096
        assert spec.body_grains == 4096 - 512
        assert spec.base_body_grains + spec.user_grains == spec.body_grains

    def test_cache_never_exceeds_nonzero(self):
        spec = make_spec(cache_kb=100, nonzero_kb=100)
        assert spec.body_grains == 0


class TestCacheStream:
    def test_length(self):
        spec = make_spec()
        assert cache_stream(spec).size == spec.cache_grains

    def test_deterministic(self):
        spec = make_spec()
        assert np.array_equal(cache_stream(spec), cache_stream(spec))

    def test_mutation_rate_in_expected_band(self):
        spec = make_spec(cache_kb=8192, nonzero_kb=65536)
        master_like = make_spec(
            seed=999,
            cache_kb=8192,
            nonzero_kb=65536,
            mutation=MutationProfile(0.0, 0.0, 64, 1.5),
        )
        mutated = cache_stream(spec)
        pristine = cache_stream(master_like)
        diverged = (mutated != pristine).mean()
        # clustered Poisson coverage of a 0.3 target: wide but bounded band
        assert 0.05 < diverged < 0.55

    def test_zero_mutation_equals_master(self):
        a = make_spec(seed=1, mutation=MutationProfile(0.0, 0.0, 64, 1.5))
        b = make_spec(seed=2, mutation=MutationProfile(0.0, 0.0, 64, 1.5))
        assert np.array_equal(cache_stream(a), cache_stream(b))

    def test_two_images_same_release_share_content(self):
        a = cache_stream(make_spec(image_id=1, seed=1))
        b = cache_stream(make_spec(image_id=2, seed=2))
        shared = (a == b).mean()
        assert shared > 0.3  # same master, independent mutations

    def test_no_hole_grains_in_cache(self):
        assert (cache_stream(make_spec()) != 0).all()


class TestImageStream:
    def test_cache_is_prefix_of_image(self):
        spec = make_spec()
        img = image_stream(spec)
        assert np.array_equal(img[: spec.cache_grains], cache_stream(spec))

    def test_hole_padding_to_boot_span(self):
        spec = make_spec(cache_kb=512, boot_span_grains=1024)
        img = image_stream(spec)
        assert (img[512:1024] == 0).all()
        assert (img[1024 : 1024 + 10] != 0).all()

    def test_nonzero_grain_count_matches_spec(self):
        spec = make_spec()
        img = image_stream(spec)
        assert int((img != 0).sum()) == spec.nonzero_grains

    def test_deterministic(self):
        spec = make_spec()
        assert np.array_equal(image_stream(spec), image_stream(spec))

    def test_base_body_aligned_across_siblings(self):
        """Two images of one release share base-body content at identical
        stream positions (the alignment property behind large-block dedup)."""
        a_spec = make_spec(image_id=1, seed=1, cache_kb=400)
        b_spec = make_spec(image_id=2, seed=2, cache_kb=700)
        a, b = image_stream(a_spec), image_stream(b_spec)
        start, span = 1024, 1024
        shared = (a[start : start + span] == b[start : start + span]).mean()
        assert shared > 0.4


class TestDatasetIntegration:
    @pytest.fixture(scope="class")
    def tiny(self):
        return LazyImageCatalog(DatasetConfig(scale=1 / 2048))

    def test_boot_span_is_release_constant(self, tiny):
        spans = {}
        for spec in tiny:
            key = (spec.release.family, spec.release.name)
            spans.setdefault(key, set()).add(spec.boot_span_grains)
        assert all(len(v) == 1 for v in spans.values())

    def test_boot_span_covers_every_cache(self, tiny):
        for spec in tiny:
            assert spec.boot_span_grains >= spec.cache_grains

    def test_boot_span_block_aligned(self, tiny):
        for spec in tiny:
            assert spec.boot_span_grains % 1024 == 0
