"""Extension: LRU cache replacement vs full replication (scatter hoarding).

The paper's introduction rejects "traditional" cache-replacement policies in
favour of full replication. This bench quantifies why: on a Zipf boot
workload, an LRU node given *exactly* the raw disk Squirrel needs for all
caches keeps missing on the long tail, while Squirrel never touches the
network. Dedup + compression are what turn 78.5 GB of caches into a budget a
node can fully replicate.
"""

from repro.analysis import PoolAccountant
from repro.common.units import GiB
from repro.core import ZipfBootWorkload, run_policy_comparison
from repro.experiments import default_context
from repro.vmi import block_view


def test_ablation_lru_policy(benchmark, record_result):
    ctx = default_context()
    catalog = ctx.catalog()

    def run():
        # measure Squirrel's actual 64 KB footprint for this dataset
        accountant = PoolAccountant(ctx.estimator("gzip6", (65536,)))
        for stream in ctx.streams("caches"):
            accountant.add_view(block_view(stream, 65536))
        footprint = accountant.snapshot().disk_used_bytes
        comparison = run_policy_comparison(
            catalog,
            squirrel_footprint_bytes=footprint,
            workload=ZipfBootWorkload(n_boots=3000),
        )
        return footprint, comparison

    footprint, comparison = benchmark.pedantic(run, rounds=1)
    scale_up = catalog.scaled_up
    lines = [
        "Extension: LRU replacement vs scatter hoarding (same disk budget)",
        "-" * 66,
        f"disk budget (Squirrel's measured cVolume): "
        f"{scale_up(footprint) / GiB:.1f} GB",
        f"{'policy':>10s} {'hit rate':>9s} {'miss traffic':>13s}",
        f"{'lru':>10s} {comparison.lru.hit_rate:>8.1%} "
        f"{scale_up(comparison.lru.miss_network_bytes) / GiB:>11.1f} GB",
        f"{'squirrel':>10s} {comparison.squirrel.hit_rate:>8.1%} "
        f"{scale_up(comparison.squirrel.miss_network_bytes) / GiB:>11.1f} GB",
    ]
    record_result("ablation_lru_policy", "\n".join(lines))
    assert comparison.squirrel.hit_rate == 1.0
    assert comparison.lru.hit_rate < 0.95
    assert comparison.lru.miss_network_bytes > 0
