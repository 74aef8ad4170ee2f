#!/usr/bin/env python3
"""Boot storm: 512 VMs on 64 nodes, with and without Squirrel.

Re-enacts the paper's network experiment (Figure 18) twice over:

* **bytes** — 64 compute nodes, 4 glusterfs storage nodes, every VM booting
  a different image; without caches the data-center network carries every
  boot working set, with Squirrel the compute nodes stay silent;
* **time** — the same flash crowd through the discrete-event engine
  (``repro.sim`` + ``repro.workload``), which adds what the byte ledger
  can't show: boot-latency percentiles while 512 cold reads queue behind
  four storage uplinks, versus local-cache boots that never notice the
  crowd.

Run:  python examples/boot_storm.py
"""

from repro.common.units import GiB
from repro.core import IaaSCluster, Squirrel, full_copy_transfer_bytes, run_boot_storm
from repro.vmi import DatasetConfig, LazyImageCatalog, make_estimator
from repro.workload import StormConfig, boot_storm

BLOCK_SIZE = 65536


def accounting_sweep() -> None:
    """Figure 18 proper: cumulative compute-node ingress, instantaneous."""
    dataset = LazyImageCatalog(DatasetConfig(scale=1 / 512))
    cluster = IaaSCluster.build(n_compute=64, n_storage=4, block_size=BLOCK_SIZE)
    squirrel = Squirrel(
        cluster=cluster, estimator=make_estimator("gzip6", (BLOCK_SIZE,))
    )
    print("registering 512 images (one per VM slot)...")
    for spec in dataset.specs[:512]:
        squirrel.register(spec)

    scale_up = dataset.scaled_up
    print(f"{'nodes':>6} {'VMs':>5} {'w/o caches':>12} {'w/ Squirrel':>12}")
    for nodes in (8, 16, 32, 64):
        without = run_boot_storm(
            squirrel, dataset, n_nodes=nodes, vms_per_node=8, with_caches=False
        )
        with_caches = run_boot_storm(
            squirrel, dataset, n_nodes=nodes, vms_per_node=8, with_caches=True
        )
        print(
            f"{nodes:>6} {nodes * 8:>5} "
            f"{scale_up(without.compute_ingress_bytes) / GiB:>10.1f} GB "
            f"{scale_up(with_caches.compute_ingress_bytes) / GiB:>10.1f} GB"
        )

    gluster = cluster.storage.gluster
    before = gluster.storage_read_load()
    run_boot_storm(squirrel, dataset, n_nodes=64, vms_per_node=8, with_caches=False)
    print("\nper-storage-node egress during the 512-VM storm (w/o caches):")
    for name, load in sorted(gluster.storage_read_load().items()):
        print(f"  {name}: {scale_up(load - before[name]) / GiB:.1f} GB")

    full_copy = full_copy_transfer_bytes(dataset, n_nodes=64, vms_per_node=8)
    print(
        f"\nfor reference, pre-copying whole images (pre-CoW practice) would "
        f"move {scale_up(full_copy) / GiB:.0f} GB"
    )


def timed_storm() -> None:
    """The same crowd on the event engine: what the tenants feel."""
    print("\nsimulating the flash crowd (30 s ramp, 1 GbE, multi-tenant zipf)...")
    report = boot_storm(StormConfig())
    print(f"{'side':<12} {'p50':>8} {'p95':>8} {'p99':>8} {'last boot':>10}")
    for label, side in (
        ("w/ caches", report.squirrel),
        ("w/o caches", report.baseline),
    ):
        stats = side.latency
        print(
            f"{label:<12} {stats.p50:>7.2f}s {stats.p95:>7.2f}s "
            f"{stats.p99:>7.2f}s {side.horizon_s:>9.1f}s"
        )
    print(
        f"Squirrel served {report.squirrel.cache_hits}/{report.squirrel.boots} "
        f"boots from local caches ({report.squirrel.compute_ingress_bytes} "
        "bytes over the network)"
    )


def main() -> None:
    accounting_sweep()
    timed_storm()


if __name__ == "__main__":
    main()
