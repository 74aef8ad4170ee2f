"""Tagged blocks for the ZFS tests, written through the path the runs use.

Every image cache reaches a pool through the signature ("virtual") write
path, so the ZFS tests name a block's content by a small integer tag and
:func:`record` maps the tag to the ``(signature, lsize, psize, is_hole)``
record that ``Dataset.write_file_virtual`` takes. Equal tags are equal
content (one signature, one psize); psize varies with the tag and is not
sector-aligned, so space checks tell blocks apart and exercise alignment.
"""

from repro.common.units import align_up
from repro.zfs import SECTOR_SIZE, virtual_checksum_key

RECORD = 4096
#: keeps tagged signatures clear of the small literal ones tests pick by hand
_BASE = 1 << 40


def record(tag: int) -> tuple[int, int, int, bool]:
    """The ``(signature, lsize, psize, is_hole)`` record of content ``tag``."""
    return _BASE + tag, RECORD, 700 * (1 + tag % 5), False


def checksum(tag: int) -> str:
    """The block-pointer checksum content ``tag`` is stored under."""
    return virtual_checksum_key(_BASE + tag)


def allocated(*tags: int) -> int:
    """Bytes one stored copy of each distinct tag allocates."""
    return sum(align_up(record(tag)[2], SECTOR_SIZE) for tag in set(tags))


def write(ds, name: str, index: int, tag: int):
    """Write content ``tag`` as record ``index`` of file ``name``."""
    signature, lsize, psize, _ = record(tag)
    return ds.write_block_virtual(
        name, index, signature=signature, lsize=lsize, psize=psize
    )


def write_file(ds, name: str, tags) -> None:
    """Write a whole file whose records hold contents ``tags``, in order."""
    ds.write_file_virtual(name, [record(tag) for tag in tags])


def checksums(ds, name: str) -> list[str | None]:
    """The file map of ``name`` as checksums (``None`` for holes)."""
    return [bp.checksum for bp in ds.file(name).blocks]
