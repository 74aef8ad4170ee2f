"""Tests for the image catalog: consumer surface, budget, byte-identity.

The contract that keeps every pinned experiment honest: synthesis is a
pure function of the spec, so the catalog — including one that evicted
and re-synthesised an entry, and the process-wide one that earlier runs
left warm — yields streams and views bit-identical to inline synthesis
from the spec.
"""

import numpy as np
import pytest

import repro.vmi.catalog
import repro.workload.rig
from repro.common.errors import ConfigError
from repro.common.report import dumps_canonical
from repro.sweep import SweepSpec, run_sweep
from repro.vmi import (
    DatasetConfig,
    LazyImageCatalog,
    block_view,
    cache_stream,
    catalog_at,
    image_stream,
)
from repro.vmi.content import PoolKind
from repro.vmi.dataset import _build_images
from repro.workload import StormConfig, boot_storm

TINY = DatasetConfig(scale=1 / 4096)


@pytest.fixture(scope="module")
def catalog():
    return LazyImageCatalog(TINY)


class TestProtocol:
    """What consumers read: specs, spec lookup, the budget keyword."""

    def test_specs_match_build_images(self, catalog):
        built = _build_images(TINY)
        assert len(catalog) == len(built)
        for lazy_spec, built_spec in zip(catalog.specs, built):
            assert lazy_spec == built_spec

    def test_spec_lookup(self, catalog):
        spec = catalog.spec(3)
        assert spec.image_id == 3
        with pytest.raises(ConfigError):
            catalog.spec(10_000)

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigError):
            LazyImageCatalog(TINY, budget_bytes=0)


class TestByteIdentity:
    def test_streams_match_inline_synthesis(self, catalog):
        for image_id in (0, 5, 100):
            spec = catalog.spec(image_id)
            np.testing.assert_array_equal(
                catalog.grain_stream(image_id, "caches"), cache_stream(spec)
            )
            np.testing.assert_array_equal(
                catalog.grain_stream(image_id, "images"), image_stream(spec)
            )

    def test_views_match_inline_synthesis(self, catalog):
        spec = catalog.spec(7)
        lazy = catalog.block_view(7, 4096, "caches")
        inline = block_view(cache_stream(spec), 4096)
        np.testing.assert_array_equal(lazy.signatures, inline.signatures)
        np.testing.assert_array_equal(lazy.lsizes, inline.lsizes)
        np.testing.assert_array_equal(lazy.is_hole, inline.is_hole)

    def test_memo_returns_same_object(self, catalog):
        assert catalog.grain_stream(9) is catalog.grain_stream(9)
        assert catalog.block_view(9, 8192) is catalog.block_view(9, 8192)

    def test_eviction_resynthesises_bit_identical(self):
        tight = LazyImageCatalog(TINY, budget_bytes=1)
        first = tight.grain_stream(0).copy()
        tight.grain_stream(1)  # evicts image 0 (budget of 1 byte)
        assert ("caches", 0) not in tight._memo
        np.testing.assert_array_equal(tight.grain_stream(0), first)


class TestBudget:
    def test_resident_bounded_by_budget(self):
        budget = 64 << 10
        tight = LazyImageCatalog(TINY, budget_bytes=budget)
        for spec in tight.specs[:50]:
            tight.grain_stream(spec.image_id)
            tight.block_view(spec.image_id, 4096)
        # the bound is budget OR a single entry, whichever is larger
        largest = max(tight._memo_bytes.values())
        assert tight.resident_bytes <= max(budget, largest)
        assert tight.peak_resident_bytes >= tight.resident_bytes

    def test_never_evicts_sole_entry(self):
        tight = LazyImageCatalog(TINY, budget_bytes=1)
        stream = tight.grain_stream(0)
        assert tight.grain_stream(0) is stream  # still memoised


class TestReleaseMasters:
    """Each release's master window is built once per catalog and sliced."""

    @pytest.fixture(scope="class")
    def scale_2048(self):
        return LazyImageCatalog(DatasetConfig(scale=1 / 2048))

    def test_every_stream_matches_memo_free_synthesis(self, scale_2048):
        for spec in scale_2048.specs:
            for subject, build in (("caches", cache_stream), ("images", image_stream)):
                stream = scale_2048.grain_stream(spec.image_id, subject)
                assert stream.dtype == np.uint64
                assert stream.tobytes() == build(spec).tobytes()
        releases = {spec.release for spec in scale_2048.specs}
        masters = [key for key in scale_2048._memo if key[0] == "masters"]
        assert len(masters) == 2 * len(releases)

    def test_shorter_image_of_a_release_first(self):
        fresh = LazyImageCatalog(TINY)
        by_release = {}
        for spec in fresh.specs:
            by_release.setdefault(spec.release, []).append(spec)
        siblings = max(by_release.values(), key=len)
        shortest = min(siblings, key=lambda spec: spec.nonzero_grains)
        longest = max(siblings, key=lambda spec: spec.nonzero_grains)
        assert shortest.cache_grains < longest.cache_grains
        assert shortest.base_body_grains < longest.base_body_grains
        for spec in (shortest, longest):
            np.testing.assert_array_equal(
                fresh.grain_stream(spec.image_id, "images"), image_stream(spec)
            )
            np.testing.assert_array_equal(
                fresh.grain_stream(spec.image_id, "caches"), cache_stream(spec)
            )

    def test_streams_own_their_grains(self):
        fresh = LazyImageCatalog(TINY)
        stream = fresh.grain_stream(0)
        window = fresh._memo[("masters", fresh.spec(0).release, PoolKind.BOOT)]
        assert stream.flags.owndata and not window.flags.writeable
        assert not np.shares_memory(stream, window)

    def test_windows_count_in_resident_bytes_and_get_evicted(self):
        fresh = LazyImageCatalog(TINY)
        stream = fresh.grain_stream(0, "images")
        windows = [key for key in fresh._memo if key[0] == "masters"]
        assert len(windows) == 2
        window_bytes = sum(fresh._memo[key].nbytes for key in windows)
        assert fresh.resident_bytes == stream.nbytes + window_bytes
        # a budget that fits only the stream evicts both (older) windows
        tight = LazyImageCatalog(TINY, budget_bytes=stream.nbytes)
        assert tight.grain_stream(0, "images").tobytes() == stream.tobytes()
        assert list(tight._memo) == [("images", 0)]
        assert tight.resident_bytes == stream.nbytes


class TestProcessWideCatalog:
    """``catalog_at`` keeps one catalog per scale for the whole process:
    later runs re-read what earlier runs folded, and nothing they do can
    change the bytes."""

    def test_one_catalog_per_scale(self):
        assert catalog_at(1 / 4096) is catalog_at(1 / 4096)
        assert catalog_at(1 / 4096) is not catalog_at(1 / 2048)
        assert catalog_at(1 / 4096).config == TINY

    def test_memoised_arrays_are_read_only(self):
        catalog = catalog_at(TINY.scale)
        view = catalog.block_view(0, 4096)
        arrays = (
            catalog.grain_stream(0), view.signatures, view.class_fractions,
            view.lsizes, view.is_hole,
        )
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0
        # what the next reader gets is what the first one folded
        assert catalog.block_view(0, 4096) is view

    @pytest.mark.usefixtures("cold_catalogs")
    def test_warm_runs_fold_once_and_match_cold_bytes(self, monkeypatch):
        storms = [StormConfig(n_nodes=8, vms_per_node=4, seed=s) for s in (0, 1)]
        churn = SweepSpec.from_grid(
            "churn", "seed=0,1",
            {"nodes": 4, "days": 0.25, "registrations_per_day": 8.0},
        )
        requested: set[tuple] = set()
        calls, folds = [], []
        raw_view = LazyImageCatalog.block_view
        raw_fold = repro.vmi.catalog.block_view

        def view(self, image_id, block_size, subject="caches"):
            calls.append(image_id)
            requested.add((id(self), image_id, block_size, subject))
            return raw_view(self, image_id, block_size, subject)

        def fold(stream, block_size):
            folds.append(block_size)
            return raw_fold(stream, block_size)

        def run_all(dataset=None):
            return [
                dumps_canonical(boot_storm(config, dataset=dataset).to_dict())
                for config in storms
            ] + [dumps_canonical(run_sweep(churn, workers=1).to_dict())]

        with monkeypatch.context() as patch:
            patch.setattr(LazyImageCatalog, "block_view", view)
            patch.setattr(repro.vmi.catalog, "block_view", fold)
            warm = run_all()
        # one catalog served every run, and it folded each view once
        assert len({key[0] for key in requested}) == 1
        assert len(folds) == len(requested) > 0
        assert len(calls) > len(folds)  # the later runs hit the memo

        cold = []
        for config in storms:
            catalog_at.cache_clear()
            cold.append(dumps_canonical(boot_storm(config).to_dict()))
        catalog_at.cache_clear()
        cold.append(dumps_canonical(run_sweep(churn, workers=1).to_dict()))
        assert cold == warm

        # a private catalog that evicts every entry after its use
        private = LazyImageCatalog(
            DatasetConfig(scale=storms[0].scale), budget_bytes=1
        )
        monkeypatch.setattr(repro.workload.rig, "catalog_at", lambda _: private)
        assert run_all(dataset=private) == warm
