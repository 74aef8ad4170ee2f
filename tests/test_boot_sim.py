"""Integration tests for the boot simulator (Figure 11's machinery)."""

import numpy as np
import pytest

from repro.boot import BootSimulator, ZfsCostModel
from repro.common.errors import BootError
from repro.vmi import (
    DatasetConfig,
    LazyImageCatalog,
    block_view,
    cache_stream,
    make_estimator,
)
from repro.zfs import ZPool

SCALE = 1 / 512


@pytest.fixture(scope="module")
def dataset():
    return LazyImageCatalog(DatasetConfig(scale=SCALE))


@pytest.fixture(scope="module")
def sample(dataset):
    return dataset.specs[::101][:5]


def build_cvolume(dataset, block_size):
    est = make_estimator("gzip6", (block_size,), samples_per_point=3)
    pool = ZPool(capacity=1 << 40)
    vol = pool.create_dataset("ccvol", record_size=block_size)
    for spec in dataset:
        view = block_view(cache_stream(spec), block_size)
        psizes = view.psizes(est)
        vol.write_file_virtual(
            f"cache-{spec.image_id}",
            zip(
                view.signatures.tolist(),
                view.lsizes.tolist(),
                psizes.tolist(),
                view.is_hole.tolist(),
            ),
        )
    return pool, vol


@pytest.fixture(scope="module")
def cvolume_64k(dataset):
    return build_cvolume(dataset, 65536)


class TestPlainConfigs:
    def test_unknown_config_rejected(self, sample):
        sim = BootSimulator(io_scale=SCALE)
        with pytest.raises(BootError):
            sim.boot_plain(sample[0], "warm-zfs")

    def test_boot_times_in_plausible_range(self, sample):
        sim = BootSimulator(io_scale=SCALE)
        for config in ("qcow2-xfs", "warm-xfs", "cold-xfs"):
            for spec in sample:
                result = sim.boot_plain(spec, config)
                assert 8.0 < result.total_seconds < 60.0

    def test_warm_cache_beats_baseline(self, sample):
        """The paper's headline boot claim: warm caches boot faster than the
        VMI on local disk."""
        sim = BootSimulator(io_scale=SCALE)
        warm = np.mean(
            [sim.boot_plain(s, "warm-xfs").total_seconds for s in sample]
        )
        base = np.mean(
            [sim.boot_plain(s, "qcow2-xfs").total_seconds for s in sample]
        )
        assert warm < base
        assert (base - warm) / base > 0.05  # >5% faster on average

    def test_cold_cache_costs_more_than_warm(self, sample):
        sim = BootSimulator(io_scale=SCALE)
        cold = np.mean(
            [sim.boot_plain(s, "cold-xfs").total_seconds for s in sample]
        )
        warm = np.mean(
            [sim.boot_plain(s, "warm-xfs").total_seconds for s in sample]
        )
        assert cold > warm

    def test_cpu_identical_across_configs(self, sample):
        sim = BootSimulator(io_scale=SCALE)
        spec = sample[0]
        cpus = {
            config: sim.boot_plain(spec, config).cpu_seconds
            for config in ("qcow2-xfs", "warm-xfs", "cold-xfs")
        }
        assert len({round(c, 6) for c in cpus.values()}) == 1


class TestCVolumeBoots:
    def test_boot_reads_blocks(self, sample, cvolume_64k):
        _, vol = cvolume_64k
        sim = BootSimulator(io_scale=SCALE)
        result = sim.boot_from_cvolume(sample[0], vol, f"cache-{sample[0].image_id}")
        assert result.blocks_read > 0
        assert result.config == "warm-zfs"

    def test_zfs_boot_competitive_at_64k(self, sample, cvolume_64k):
        """Section 4.2.4: dedup+gzip cVolume boots ~as fast as plain storage
        at 64 KB — the compression overhead is masked."""
        _, vol = cvolume_64k
        sim = BootSimulator(io_scale=SCALE)
        zfs = np.mean(
            [
                sim.boot_from_cvolume(s, vol, f"cache-{s.image_id}").total_seconds
                for s in sample
            ]
        )
        base = np.mean(
            [sim.boot_plain(s, "qcow2-xfs").total_seconds for s in sample]
        )
        assert zfs < base * 1.05

    def test_small_blocks_boot_slower(self, dataset, sample):
        """Figure 11's left edge: tiny block sizes degrade boot sharply."""
        _, vol_small = build_cvolume(dataset, 2048)
        _, vol_large = build_cvolume(dataset, 65536)
        sim = BootSimulator(io_scale=SCALE)
        small = np.mean(
            [
                sim.boot_from_cvolume(s, vol_small, f"cache-{s.image_id}").total_seconds
                for s in sample
            ]
        )
        large = np.mean(
            [
                sim.boot_from_cvolume(s, vol_large, f"cache-{s.image_id}").total_seconds
                for s in sample
            ]
        )
        assert small > large * 1.2

    def test_custom_cost_model_respected(self, sample, cvolume_64k):
        _, vol = cvolume_64k
        slow = ZfsCostModel(per_block_cpu_s=5e-3)
        fast = ZfsCostModel(per_block_cpu_s=1e-6)
        spec = sample[0]
        t_slow = BootSimulator(io_scale=SCALE, zfs_costs=slow).boot_from_cvolume(
            spec, vol, f"cache-{spec.image_id}"
        )
        t_fast = BootSimulator(io_scale=SCALE, zfs_costs=fast).boot_from_cvolume(
            spec, vol, f"cache-{spec.image_id}"
        )
        assert t_slow.io_seconds > t_fast.io_seconds
