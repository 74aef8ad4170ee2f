"""Equivalence + unit tests for the vectorised pool accountant."""

import numpy as np
import pytest

from repro.analysis import PoolAccountant
from repro.vmi import (
    DatasetConfig,
    LazyImageCatalog,
    block_view,
    cache_stream,
    make_estimator,
)
from repro.zfs import ZPool


@pytest.fixture(scope="module")
def estimator():
    return make_estimator("gzip6", (65536,), samples_per_point=2)


@pytest.fixture(scope="module")
def views(estimator):
    dataset = LazyImageCatalog(DatasetConfig(scale=1 / 2048))
    return [block_view(cache_stream(spec), 65536) for spec in dataset.specs[:40]]


class TestEquivalenceWithObjectPipeline:
    def test_matches_real_pool_exactly(self, estimator, views):
        """The accountant must agree with the ZIO/DDT object pipeline on
        DDT entries, allocated bytes, disk, and memory."""
        accountant = PoolAccountant(estimator)
        pool = ZPool(capacity=1 << 40)
        vol = pool.create_dataset("cc", record_size=65536)
        for index, view in enumerate(views):
            psizes = view.psizes(estimator)
            vol.write_file_virtual(
                f"f{index}",
                zip(
                    view.signatures.tolist(),
                    view.lsizes.tolist(),
                    psizes.tolist(),
                    view.is_hole.tolist(),
                ),
            )
            snap = accountant.add_view(view)
            assert snap.ddt_entries == pool.ddt.entry_count
            assert snap.data_bytes == pool.data_bytes
            assert snap.ddt_disk_bytes == pool.ddt.on_disk_bytes
            assert snap.memory_used_bytes == pool.ddt.in_core_bytes


class TestAccountantBehaviour:
    def test_duplicate_view_adds_no_data(self, estimator, views):
        accountant = PoolAccountant(estimator)
        first = accountant.add_view(views[0])
        second = accountant.add_view(views[0])
        assert second.data_bytes == first.data_bytes
        assert second.ddt_entries == first.ddt_entries
        assert second.files == 2

    def test_disjoint_views_add_linearly(self, estimator):
        accountant = PoolAccountant(estimator)
        a = block_view(np.asarray([(i << 3) | 2 for i in range(1, 65)],
                                  dtype=np.uint64), 65536)
        b = block_view(np.asarray([(i << 3) | 2 for i in range(100, 164)],
                                  dtype=np.uint64), 65536)
        snap_a = accountant.add_view(a)
        snap_ab = accountant.add_view(b)
        assert snap_ab.ddt_entries == 2 * snap_a.ddt_entries

    def test_holes_cost_nothing(self, estimator):
        accountant = PoolAccountant(estimator)
        holes = block_view(np.zeros(256, dtype=np.uint64), 65536)
        snap = accountant.add_view(holes)
        assert snap.data_bytes == 0
        assert snap.ddt_entries == 0

    def test_memory_zero_when_empty(self, estimator):
        accountant = PoolAccountant(estimator)
        assert accountant.snapshot().memory_used_bytes == 0
