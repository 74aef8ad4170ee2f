"""Unit tests for repro.common.units."""

import pytest

from repro.common import units


class TestConstants:
    def test_analysis_block_sizes_span_1k_to_1m(self):
        assert units.ANALYSIS_BLOCK_SIZES[0] == 1024
        assert units.ANALYSIS_BLOCK_SIZES[-1] == 1024 * 1024
        assert len(units.ANALYSIS_BLOCK_SIZES) == 11

    def test_zfs_block_sizes_span_4k_to_128k(self):
        assert units.ZFS_BLOCK_SIZES == (4096, 8192, 16384, 32768, 65536, 131072)

    def test_boot_block_sizes_span_1k_to_128k(self):
        assert units.BOOT_BLOCK_SIZES[0] == 1024
        assert units.BOOT_BLOCK_SIZES[-1] == 128 * 1024

    def test_paper_selected_sizes(self):
        assert units.SQUIRREL_BLOCK_SIZE == 64 * units.KiB
        assert units.ZFS_DEFAULT_BLOCK_SIZE == 128 * units.KiB
        assert units.QCOW2_CLUSTER_SIZE == 64 * units.KiB

    def test_all_sweep_sizes_are_powers_of_two(self):
        for size in units.ANALYSIS_BLOCK_SIZES + units.ZFS_BLOCK_SIZES:
            assert units.is_power_of_two(size)


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 1024, 1 << 40])
    def test_powers(self, value):
        assert units.is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -2, 3, 6, 1023, 1025])
    def test_non_powers(self, value):
        assert not units.is_power_of_two(value)


class TestValidateBlockSize:
    def test_valid_returns_value(self):
        assert units.validate_block_size(65536) == 65536

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            units.validate_block_size(3000)

    def test_rejects_sub_grain(self):
        with pytest.raises(ValueError, match="grain"):
            units.validate_block_size(512)

    def test_custom_grain(self):
        assert units.validate_block_size(512, grain=512) == 512


class TestCeilDivAlign:
    def test_ceil_div_exact(self):
        assert units.ceil_div(8, 4) == 2

    def test_ceil_div_rounds_up(self):
        assert units.ceil_div(9, 4) == 3

    def test_ceil_div_zero_numerator(self):
        assert units.ceil_div(0, 4) == 0

    def test_ceil_div_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            units.ceil_div(4, 0)

    def test_align_up(self):
        assert units.align_up(100, 64) == 128
        assert units.align_up(128, 64) == 128


class TestFormatBytes:
    def test_bytes(self):
        assert units.format_bytes(100) == "100 B"

    def test_gigabytes(self):
        assert units.format_bytes(10 * units.GiB) == "10.0 GB"

    def test_terabytes(self):
        # the paper's headline raw dataset size
        assert units.format_bytes(16.4 * units.TiB) == "16.4 TB"
