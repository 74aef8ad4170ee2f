"""Unit tests for the QCOW2 CoW model."""

import pytest

from repro.boot.qcow2 import Qcow2Image
from repro.common.errors import BootError


class _CountingBacking:
    """Backing that records requests and charges a fixed per-byte cost."""

    def __init__(self, cost_per_byte=1e-9):
        self.requests: list[tuple[int, int]] = []
        self.cost = cost_per_byte

    def read_range(self, offset, length):
        self.requests.append((offset, length))
        return length * self.cost


class TestClusterRounding:
    def test_small_read_becomes_cluster_read(self):
        backing = _CountingBacking()
        img = Qcow2Image("cow", 1 << 20, backing=backing, cluster_size=65536)
        img.read_range(1000, 512)
        assert backing.requests == [(0, 65536)]

    def test_read_spanning_clusters(self):
        backing = _CountingBacking()
        img = Qcow2Image("cow", 1 << 20, backing=backing, cluster_size=65536)
        img.read_range(65536 - 100, 200)
        assert backing.requests == [(0, 2 * 65536)]

    def test_tail_cluster_clipped_to_virtual_size(self):
        backing = _CountingBacking()
        img = Qcow2Image("cow", 100_000, backing=backing, cluster_size=65536)
        img.read_range(99_000, 500)
        assert backing.requests == [(65536, 100_000 - 65536)]

    def test_out_of_bounds_read_rejected(self):
        img = Qcow2Image("cow", 1000, backing=None)
        with pytest.raises(BootError):
            img.read_range(900, 200)

    def test_bad_cluster_size_rejected(self):
        with pytest.raises(BootError):
            Qcow2Image("cow", 1000, cluster_size=3000)


def cor_image(backing, size=1 << 20):
    """A copy-on-read cache image: the one image a boot writes into."""
    return Qcow2Image(
        "cache", size, backing=backing, cluster_size=65536, copy_on_read=True
    )


class TestCopyOnWrite:
    """Clusters an image has written (by copy-on-read, the only write a
    boot replays) are served locally; the rest still fall through."""

    def test_written_clusters_not_fetched(self):
        backing = _CountingBacking()
        img = cor_image(backing)
        img.read_range(0, 65536)
        img.read_range(0, 4096)
        assert backing.requests == [(0, 65536)]

    def test_write_allocates_clusters(self):
        backing = _CountingBacking()
        img = cor_image(backing)
        img.read_range(0, 100_000)  # writes whole clusters 0 and 1
        assert img.cor_bytes == 2 * 65536
        img.read_range(65536, 65536)
        assert len(backing.requests) == 1

    def test_mixed_allocated_and_missing(self):
        backing = _CountingBacking()
        img = cor_image(backing)
        img.read_range(65536, 4096)  # cluster 1 local
        img.read_range(0, 3 * 65536)  # clusters 0,1,2
        assert backing.requests[1:] == [(0, 65536), (2 * 65536, 65536)]


class TestCopyOnRead:
    def test_cor_populates_cache(self):
        backing = _CountingBacking()
        img = Qcow2Image(
            "cache", 1 << 20, backing=backing, cluster_size=65536, copy_on_read=True
        )
        img.read_range(0, 4096)
        assert img.cor_bytes == 65536
        img.read_range(0, 4096)  # warm now
        assert len(backing.requests) == 1

    def test_cor_charges_write_cost(self):
        backing = _CountingBacking(cost_per_byte=0.0)
        cold = Qcow2Image(
            "cache",
            1 << 20,
            backing=backing,
            cluster_size=65536,
            copy_on_read=True,
            local_write_cost_s_per_byte=1e-6,
        )
        elapsed = cold.read_range(0, 4096)
        assert elapsed == pytest.approx(65536 * 1e-6)
        assert cold.cor_bytes == 65536

    def test_warm_fraction(self):
        backing = _CountingBacking()
        img = cor_image(backing)
        img.read_range(0, 2 * 65536)
        backing.requests.clear()
        img.read_range(0, 4 * 65536)  # half the working set is warm
        assert backing.requests == [(2 * 65536, 2 * 65536)]

    def test_is_warm_for(self):
        backing = _CountingBacking()
        img = cor_image(backing)
        img.read_range(0, 65536)
        backing.requests.clear()
        img.read_range(0, 65536)
        assert backing.requests == []
        img.read_range(65536, 65536)
        assert backing.requests == [(65536, 65536)]


class TestChains:
    def test_three_level_chain(self):
        """CoW -> cache (CoR) -> VMI: the Squirrel boot chain of Figure 7."""
        vmi = _CountingBacking()
        cache = Qcow2Image("cache", 1 << 20, backing=vmi, cluster_size=65536,
                           copy_on_read=True)
        cow = Qcow2Image("cow", 1 << 20, backing=cache, cluster_size=65536)
        cow.read_range(0, 4096)  # cold: goes through to VMI
        assert len(vmi.requests) == 1
        cow2 = Qcow2Image("cow2", 1 << 20, backing=cache, cluster_size=65536)
        cow2.read_range(0, 4096)  # warm: served by cache
        assert len(vmi.requests) == 1
