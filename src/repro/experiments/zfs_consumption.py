"""Shared computation behind Figures 8, 9, 10 and 13.

Stores the whole dataset (images or caches) in pool accounting at each
ZFS-measured block size (4-128 KB) and records the per-file resource
trajectory. One pass per (subject, block size) feeds four figures:

* Fig 8  — final data + DDT on disk,
* Fig 9  — final DDT size on disk,
* Fig 10 — final DDT memory,
* Fig 13 — the whole per-file trajectory at 64 KB,
* Figs 14-17 / Tables 3-4 — cache trajectories at 16/32/64/128 KB.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..analysis import PoolAccountant
from ..common.units import ZFS_BLOCK_SIZES
from ..vmi import Subject
from ..vmi.streams import block_view
from .context import ExperimentContext, default_context

__all__ = ["ConsumptionTrajectory", "consumption", "ZFS_BLOCK_SIZES"]


@dataclass(frozen=True)
class ConsumptionTrajectory:
    """Pool resources after each added file (index 0 = one file stored)."""

    subject: str
    block_size: int
    disk_bytes: np.ndarray  #: data + DDT-on-disk after each file
    ddt_disk_bytes: np.ndarray
    memory_bytes: np.ndarray  #: resident DDT after each file
    data_bytes: np.ndarray

    @property
    def files(self) -> int:
        return int(self.disk_bytes.size)

    def final_disk(self) -> int:
        return int(self.disk_bytes[-1])

    def final_memory(self) -> int:
        return int(self.memory_bytes[-1])


_MEMO: dict[tuple[int, str, int], ConsumptionTrajectory] = {}


def consumption(
    subject: Subject, block_size: int, ctx: ExperimentContext | None = None
) -> ConsumptionTrajectory:
    """Memoised store-everything pass for one (subject, block size)."""
    ctx = ctx or default_context()
    key = (id(ctx), subject, block_size)
    if key in _MEMO:
        return _MEMO[key]
    estimator = ctx.estimator("gzip6", (block_size,))
    accountant = PoolAccountant(estimator)
    disk, ddt_disk, memory, data = [], [], [], []
    for stream in ctx.streams(subject):
        snap = accountant.add_view(block_view(stream, block_size))
        disk.append(snap.disk_used_bytes)
        ddt_disk.append(snap.ddt_disk_bytes)
        memory.append(snap.memory_used_bytes)
        data.append(snap.data_bytes)
    trajectory = ConsumptionTrajectory(
        subject=subject,
        block_size=block_size,
        disk_bytes=np.asarray(disk, dtype=np.int64),
        ddt_disk_bytes=np.asarray(ddt_disk, dtype=np.int64),
        memory_bytes=np.asarray(memory, dtype=np.int64),
        data_bytes=np.asarray(data, dtype=np.int64),
    )
    _MEMO[key] = trajectory
    return trajectory
