"""Unit tests for grain pools and master layouts."""

import numpy as np

from repro.vmi.content import PoolKind
from repro.vmi.distro import Release
from repro.vmi.pools import master_grains, package_pool_grains, private_grains


def rel(family="ubuntu", name="12.04", share=0.5, run=6):
    return Release(family, name, share, run)


class TestMasterGrains:
    def test_deterministic(self):
        a = master_grains(rel(), 0, 1000, kind=PoolKind.BOOT)
        b = master_grains(rel(), 0, 1000, kind=PoolKind.BOOT)
        assert np.array_equal(a, b)

    def test_windowing_consistent(self):
        """Any sub-window equals the same slice of a bigger window (lazy pool)."""
        whole = master_grains(rel(), 0, 1000, kind=PoolKind.BOOT)
        window = master_grains(rel(), 200, 300, kind=PoolKind.BOOT)
        assert np.array_equal(whole[200:500], window)

    def test_sibling_releases_share_the_configured_fraction(self):
        a = master_grains(rel(name="12.04"), 0, 50_000, kind=PoolKind.BOOT)
        b = master_grains(rel(name="12.10"), 0, 50_000, kind=PoolKind.BOOT)
        shared = (a == b).mean()
        assert 0.4 < shared < 0.6  # family_share = 0.5

    def test_zero_share_releases_disjoint(self):
        a = master_grains(rel(name="a", share=0.0), 0, 20_000, kind=PoolKind.BOOT)
        b = master_grains(rel(name="b", share=0.0), 0, 20_000, kind=PoolKind.BOOT)
        assert not np.intersect1d(a, b).size

    def test_different_families_disjoint(self):
        a = master_grains(rel(family="ubuntu"), 0, 20_000, kind=PoolKind.BOOT)
        b = master_grains(rel(family="debian"), 0, 20_000, kind=PoolKind.BOOT)
        assert not np.intersect1d(a, b).size

    def test_sharing_happens_in_runs(self):
        """Shared stretches are runs of ~share_run_grains, not iid grains —
        the property that confines cross-release dedup to small blocks."""
        a = master_grains(rel(run=6), 0, 60_000, kind=PoolKind.BOOT)
        b = master_grains(rel(name="12.10", run=6), 0, 60_000, kind=PoolKind.BOOT)
        match = a == b
        # count transitions; iid matching would give ~2*p*(1-p)*n transitions,
        # runs of 6 give ~1/6 of that
        transitions = int(np.abs(np.diff(match.astype(np.int8))).sum())
        iid_expected = 2 * match.mean() * (1 - match.mean()) * match.size
        assert transitions < 0.5 * iid_expected

    def test_boot_and_base_kinds_disjoint(self):
        boot = master_grains(rel(), 0, 10_000, kind=PoolKind.BOOT)
        base = master_grains(rel(), 0, 10_000, kind=PoolKind.BASE)
        assert not np.intersect1d(boot, base).size

    def test_empty_window(self):
        assert master_grains(rel(), 0, 0, kind=PoolKind.BOOT).size == 0

    def test_no_hole_ids(self):
        grains = master_grains(rel(), 0, 100_000, kind=PoolKind.BASE)
        assert (grains != 0).all()


class TestPackagePool:
    def test_same_offsets_same_grains(self):
        offs = np.arange(100, 200, dtype=np.uint64)
        assert np.array_equal(package_pool_grains(offs), package_pool_grains(offs))

    def test_two_images_drawing_same_payload_share(self):
        offs = np.arange(0, 64, dtype=np.uint64)
        a = package_pool_grains(offs)
        b = package_pool_grains(offs)
        assert np.array_equal(a, b)


class TestPrivateGrains:
    def test_distinct_images_disjoint(self):
        offs = np.arange(10_000)
        a = private_grains(1, "user", offs, kind=PoolKind.USER)
        b = private_grains(2, "user", offs, kind=PoolKind.USER)
        assert not np.intersect1d(a, b).size

    def test_distinct_regions_disjoint(self):
        offs = np.arange(10_000)
        a = private_grains(1, "user", offs, kind=PoolKind.USER)
        b = private_grains(1, "boot-mut", offs, kind=PoolKind.BOOT)
        assert not np.intersect1d(a, b).size

    def test_start_offset_windows(self):
        whole = private_grains(1, "user", np.arange(100), kind=PoolKind.USER)
        tail = private_grains(1, "user", np.arange(50, 100), kind=PoolKind.USER)
        assert np.array_equal(whole[50:], tail)

    def test_empty(self):
        assert private_grains(1, "user", np.arange(0), kind=PoolKind.USER).size == 0
