"""Figure 11 — average VM boot time vs cVolume block size.

Four configurations: warm caches on ZFS (swept over block size), plus three
block-size-independent references — qcow2 over the VMI on XFS (baseline),
cold copy-on-read caches on XFS, and warm caches on XFS.

Expected shape: warm-ZFS boots degrade sharply below ~8 KB (per-block CPU +
DDT pressure), cross below the baseline at ≥32 KB, bottom out at 64 KB, and
regress slightly at 128 KB (QCOW2's 64 KB clusters); booting from a warm
64 KB cVolume is ~10-16 % faster than the local-VMI baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis import Series, render_series
from ..boot import BootSimulator
from ..common.units import BOOT_BLOCK_SIZES
from ..zfs import ZPool
from ..vmi.streams import block_view
from ..common.report import ReportBase
from .context import ExperimentContext, default_context
from .registry import register

__all__ = ["Fig11Result", "run", "render"]

EXPERIMENT_ID = "fig11"

#: how many images' boots are averaged per configuration
SAMPLE_STRIDE = 41


@dataclass(frozen=True)
class Fig11Result(ReportBase):
    block_sizes: tuple[int, ...]
    warm_zfs_seconds: tuple[float, ...]
    qcow2_xfs_seconds: float
    cold_xfs_seconds: float
    warm_xfs_seconds: float

    def fastest_block_size(self) -> int:
        best = min(
            range(len(self.warm_zfs_seconds)), key=lambda i: self.warm_zfs_seconds[i]
        )
        return self.block_sizes[best]

    def warm_zfs_at(self, block_size: int) -> float:
        return self.warm_zfs_seconds[self.block_sizes.index(block_size)]


def _build_ccvolume(ctx: ExperimentContext, block_size: int):
    estimator = ctx.estimator("gzip6", (block_size,))
    pool = ZPool(capacity=1 << 42)
    volume = pool.create_dataset("ccvol", record_size=block_size, compression="gzip6")
    for spec, stream in zip(ctx.specs, ctx.streams("caches")):
        view = block_view(stream, block_size)
        psizes = view.psizes(estimator)
        volume.write_file_virtual(
            f"cache-{spec.image_id}",
            zip(
                view.signatures.tolist(),
                view.lsizes.tolist(),
                psizes.tolist(),
                view.is_hole.tolist(),
            ),
        )
    return volume


@register(EXPERIMENT_ID, "Figure 11: boot times")
def run(ctx: ExperimentContext | None = None) -> Fig11Result:
    """Compute this experiment's data points (see module docstring)."""
    ctx = ctx or default_context()
    simulator = BootSimulator(io_scale=ctx.config.scale)
    sample = ctx.specs[::SAMPLE_STRIDE]

    def average_plain(config: str) -> float:
        return float(
            np.mean([simulator.boot_plain(s, config).total_seconds for s in sample])
        )

    warm_zfs = []
    for block_size in BOOT_BLOCK_SIZES:
        volume = _build_ccvolume(ctx, block_size)
        totals = [
            simulator.boot_from_cvolume(
                spec, volume, f"cache-{spec.image_id}"
            ).total_seconds
            for spec in sample
        ]
        warm_zfs.append(float(np.mean(totals)))
        volume.pool.destroy_dataset("ccvol")
    return Fig11Result(
        block_sizes=BOOT_BLOCK_SIZES,
        warm_zfs_seconds=tuple(warm_zfs),
        qcow2_xfs_seconds=average_plain("qcow2-xfs"),
        cold_xfs_seconds=average_plain("cold-xfs"),
        warm_xfs_seconds=average_plain("warm-xfs"),
    )


def render(result: Fig11Result) -> str:
    """Render the paper-style table/series for this experiment."""
    series = []
    zfs_line = Series("warm caches - zfs")
    for bs, value in zip(result.block_sizes, result.warm_zfs_seconds):
        zfs_line.add(bs // 1024, value)
    series.append(zfs_line)
    for name, value in (
        ("qcow2 - xfs", result.qcow2_xfs_seconds),
        ("cold caches - xfs", result.cold_xfs_seconds),
        ("warm caches - xfs", result.warm_xfs_seconds),
    ):
        line = Series(name)
        for bs in result.block_sizes:
            line.add(bs // 1024, value)
        series.append(line)
    rendered = render_series(
        "Figure 11: average boot time (s) from dedup+compressed VMI caches",
        series,
        x_label="block KB",
        y_format="{:.1f}",
    )
    speedup = (
        1.0 - result.warm_zfs_at(65536) / result.qcow2_xfs_seconds
    ) * 100.0
    return rendered + (
        f"\nfastest cVolume block size: {result.fastest_block_size() // 1024} KB; "
        f"warm-zfs @64 KB is {speedup:.0f}% faster than the local-VMI baseline"
    )
