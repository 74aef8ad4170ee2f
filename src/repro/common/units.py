"""Byte-unit helpers and the block-size domain used throughout the paper.

The paper sweeps power-of-two block sizes from 1 KB to 1024 KB (Figures 2-4,
11, 12) and 4 KB to 128 KB for the in-filesystem measurements (Figures 8-10).
All sizes in this codebase are plain ``int`` byte counts; these helpers exist
so that magic numbers like ``65536`` never appear in experiment code.
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB
TiB: int = 1024 * GiB

#: Block sizes swept by the analysis figures (Figures 2, 3, 4, 12): 1 KB .. 1 MB.
ANALYSIS_BLOCK_SIZES: tuple[int, ...] = tuple(KiB << i for i in range(11))

#: Block sizes measured inside the ZFS substrate (Figures 8, 9, 10): 4 KB .. 128 KB.
ZFS_BLOCK_SIZES: tuple[int, ...] = tuple(4 * KiB << i for i in range(6))

#: Block sizes used in boot-time measurements (Figure 11): 1 KB .. 128 KB.
BOOT_BLOCK_SIZES: tuple[int, ...] = tuple(KiB << i for i in range(8))

#: ZFS default record size; also the paper's Table 1 reference block size.
ZFS_DEFAULT_BLOCK_SIZE: int = 128 * KiB

#: The block size the paper selects as the sweet spot (Section 4.2.4).
SQUIRREL_BLOCK_SIZE: int = 64 * KiB

#: QCOW2 default cluster size (Section 4.2.3).
QCOW2_CLUSTER_SIZE: int = 64 * KiB


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def validate_block_size(block_size: int, *, grain: int = KiB) -> int:
    """Validate a dedup/compression block size.

    Block sizes must be positive powers of two and a multiple of the content
    ``grain`` (the finest granularity at which procedural image content is
    addressed, 1 KB by default). Returns the value for chaining.
    """
    if not is_power_of_two(block_size):
        raise ValueError(f"block size must be a power of two, got {block_size}")
    if block_size % grain:
        raise ValueError(
            f"block size {block_size} must be a multiple of the content grain {grain}"
        )
    return block_size


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division (non-negative operands)."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    return ceil_div(value, alignment) * alignment


def format_bytes(num_bytes: float) -> str:
    """Render a byte count in the most natural binary unit (e.g. ``'15.1 GB'``).

    Matches the paper's loose usage of GB/TB for binary quantities.
    """
    magnitude = float(num_bytes)
    for suffix in ("B", "KB", "MB", "GB", "TB", "PB"):
        if abs(magnitude) < 1024.0 or suffix == "PB":
            if suffix == "B":
                return f"{int(magnitude)} B"
            return f"{magnitude:.1f} {suffix}"
        magnitude /= 1024.0
    raise AssertionError("unreachable")
