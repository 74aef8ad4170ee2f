"""Unit tests for the boot storage backends (XFS file, cVolume)."""

import pytest

from repro.boot.backends import CVolumeBackend, XfsFileBackend, ZfsCostModel
from repro.boot.pagecache import PageCache
from repro.common.errors import BootError
from repro.disk import DAS4_RAID0, MultiStreamDisk
from repro.zfs import ZPool


def make_disk():
    return MultiStreamDisk(DAS4_RAID0, span_bytes=1 << 40)


class TestXfsFileBackend:
    def test_first_read_costs_disk_time(self):
        backend = XfsFileBackend("f", 1 << 20, make_disk(), PageCache(1 << 22))
        assert backend.read_range(0, 65536) > 0.0
        assert backend.disk_reads == 1

    def test_cached_read_is_free(self):
        backend = XfsFileBackend("f", 1 << 20, make_disk(), PageCache(1 << 22))
        backend.read_range(0, 65536)
        assert backend.read_range(0, 65536) == 0.0

    def test_out_of_bounds_rejected(self):
        backend = XfsFileBackend("f", 1000, make_disk(), PageCache(1 << 22))
        with pytest.raises(BootError):
            backend.read_range(900, 200)

    def test_span_offset_places_file_on_platter(self):
        disk = make_disk()
        near = XfsFileBackend("a", 1 << 20, disk, PageCache(1 << 22), span_offset=0)
        far = XfsFileBackend(
            "b", 1 << 20, disk, PageCache(1 << 22), span_offset=500 << 30
        )
        near.read_range(0, 4096)
        cost_far = far.read_range(0, 4096)  # long seek from near's position
        assert cost_far > 0.003


def build_volume(block_size=65536, n_files=3, blocks_per_file=16):
    pool = ZPool(capacity=1 << 32)
    volume = pool.create_dataset("cc", record_size=block_size)
    for f in range(n_files):
        volume.write_file_virtual(
            f"cache-{f}",
            [
                ((f * 1000 + i) << 3 | 2, block_size, block_size // 3, False)
                for i in range(blocks_per_file)
            ],
        )
    return volume


class TestCVolumeBackend:
    def test_read_charges_per_block_costs(self):
        volume = build_volume()
        costs = ZfsCostModel(per_block_cpu_s=1e-3, prefetch_hide_fraction=1.0)
        backend = CVolumeBackend(volume, "cache-0", make_disk(), costs)
        elapsed = backend.read_range(0, 4 * 65536)
        assert elapsed >= 4 * 1e-3
        assert backend.blocks_read == 4

    def test_arc_hit_is_free(self):
        volume = build_volume()
        backend = CVolumeBackend(volume, "cache-0", make_disk())
        first = backend.read_range(0, 65536)
        second = backend.read_range(0, 65536)
        assert first > 0.0
        assert second == 0.0

    def test_hole_blocks_cost_nothing(self):
        pool = ZPool(capacity=1 << 30)
        volume = pool.create_dataset("cc", record_size=65536)
        volume.write_file_virtual("f", [(0, 65536, 0, True)])
        backend = CVolumeBackend(volume, "f", make_disk())
        assert backend.read_range(0, 65536) == 0.0
        assert backend.blocks_read == 0

    def test_decompression_charged_for_compressed_blocks(self):
        volume = build_volume()
        backend = CVolumeBackend(volume, "cache-0", make_disk())
        backend.read_range(0, 2 * 65536)
        assert backend.bytes_decompressed == 2 * 65536

    def test_ddt_pressure_raises_cost(self):
        volume = build_volume(n_files=6, blocks_per_file=64)
        cheap = ZfsCostModel(ddt_cache_budget_bytes=1 << 40)
        pressed = ZfsCostModel(
            ddt_cache_budget_bytes=1, ddt_miss_penalty_s=5e-3
        )
        t_cheap = CVolumeBackend(
            volume, "cache-0", make_disk(), cheap
        ).read_range(0, 16 * 65536)
        t_pressed = CVolumeBackend(
            volume, "cache-0", make_disk(), pressed, size_scale=64.0
        ).read_range(0, 16 * 65536)
        assert t_pressed > t_cheap

    def test_size_scale_inflates_resident_estimate(self):
        volume = build_volume(n_files=6, blocks_per_file=64)
        costs = ZfsCostModel(ddt_cache_budget_bytes=64 << 10)
        small = CVolumeBackend(volume, "cache-0", make_disk(), costs, size_scale=1.0)
        large = CVolumeBackend(volume, "cache-0", make_disk(), costs, size_scale=512.0)
        assert large._ddt_resident_fraction <= small._ddt_resident_fraction
