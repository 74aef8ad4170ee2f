#!/usr/bin/env python3
"""Scatter-hoarding feasibility analysis over the Azure community images.

Answers the paper's central question for a dataset you configure: *how much
disk and memory does it cost to keep every image's boot cache on every
compute node?* Sweeps block sizes, reports dedup/gzip/CCR/cross-similarity,
and prints the storage-reduction chain of Table 1 plus the per-node cost at
the 64 KB sweet spot.

Run:  python examples/scatter_hoarding_analysis.py [scale-denominator]
      (default 128; e.g. 32 reproduces the benchmark-scale numbers)
"""

import sys

from repro.analysis import Series, dataset_metrics, render_series
from repro.analysis.accounting import PoolAccountant
from repro.common.units import GiB, MiB, format_bytes
from repro.vmi import (
    DatasetConfig,
    LazyImageCatalog,
    block_view,
    cache_stream,
    make_estimator,
)

BLOCK_SIZES = tuple(1024 << i for i in range(8))  # 1 KB .. 128 KB


def main() -> None:
    denominator = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    dataset = LazyImageCatalog(DatasetConfig(scale=1.0 / denominator))
    raw_bytes = sum(spec.raw_bytes for spec in dataset.specs)
    cache_bytes = sum(spec.cache_bytes for spec in dataset.specs)
    print(
        f"dataset: {len(dataset)} images, "
        f"{format_bytes(dataset.scaled_up(raw_bytes))} raw, "
        f"{format_bytes(dataset.scaled_up(cache_bytes))} of caches "
        f"(scale 1/{denominator})\n"
    )

    streams = [cache_stream(spec) for spec in dataset]
    dedup_line, gzip_line, ccr_line, sim_line = (
        Series("dedup"), Series("gzip6"), Series("CCR"), Series("similarity"),
    )
    for block_size in BLOCK_SIZES:
        estimator = make_estimator("gzip6", (block_size,))
        views = [block_view(s, block_size) for s in streams]
        metrics = dataset_metrics(views, estimator)
        kb = block_size // 1024
        dedup_line.add(kb, metrics.dedup_ratio)
        gzip_line.add(kb, metrics.compression_ratio)
        ccr_line.add(kb, metrics.ccr)
        sim_line.add(kb, metrics.cross_similarity)
    print(
        render_series(
            "VMI cache storage metrics vs block size",
            [dedup_line, gzip_line, ccr_line, sim_line],
            x_label="block KB",
        )
    )

    # the per-node bill at the 64 KB sweet spot
    block_size = 65536
    estimator = make_estimator("gzip6", (block_size,))
    accountant = PoolAccountant(estimator)
    for stream in streams:
        accountant.add_view(block_view(stream, block_size))
    snap = accountant.snapshot()
    disk = dataset.scaled_up(snap.disk_used_bytes)
    memory = dataset.scaled_up(snap.memory_used_bytes)
    print(
        f"\nper-compute-node bill for hoarding ALL {len(dataset)} caches @64 KB:"
        f"\n  disk:   {disk / GiB:6.1f} GB  (data + dedup table)"
        f"\n  memory: {memory / MiB:6.1f} MB  (resident dedup table)"
        f"\n  (paper: ~10 GB disk, ~60 MB memory)"
    )


if __name__ == "__main__":
    main()
