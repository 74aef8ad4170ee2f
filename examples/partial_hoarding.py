#!/usr/bin/env python3
"""Partial hoarding: what does NOT replicating everything everywhere cost?

The paper's Squirrel hoards every VM image's cache on every compute node —
maximum hit rate, maximum disk. This example runs the same 16-node flash
crowd under all four placement policies and prints the tradeoff frontier:
fleet-wide hoarded bytes, boot-time hit rate, peer-redirect traffic (cold
reads served by a neighbouring holder instead of the glusterfs origin), and
the p95 boot latency the tenants actually feel.

Expected shape: ``full`` hits 100% with the largest hoard; ``top_k`` and
``zipf_weighted`` cut the hoard roughly in half and pay for it with peer
redirects (cheap — a one-hop copy) rather than origin reads (expensive —
contended storage uplinks), so p95 degrades gently, not cliff-like.

Run:  python examples/partial_hoarding.py
"""

from repro.common.units import GiB
from repro.experiments.storm_timeline import run_placement
from repro.placement import POLICY_NAMES

NODES = 16
VMS_PER_NODE = 4


def main() -> None:
    print(
        f"== {NODES} nodes x {VMS_PER_NODE} VMs/node flash crowd, "
        "four placement policies ==\n"
    )
    header = (
        f"{'policy':<14} {'hoarded GB':>10} {'of full %':>9} {'hit %':>6} "
        f"{'redirects':>9} {'redirect GB':>11} {'p95 s':>7}"
    )
    print(header)
    for policy in POLICY_NAMES:
        result = run_placement(
            policy=policy,
            transport="swarm",
            nodes=NODES,
            vms_per_node=VMS_PER_NODE,
        )
        block = result.placement
        scale_up = 1.0 / result.config.scale
        to_gb = scale_up / GiB
        print(
            f"{policy:<14} {block['hoarded_bytes'] * to_gb:>10.1f} "
            f"{100 * block['hoarded_fraction']:>9.1f} "
            f"{100 * block['hit_rate']:>6.1f} "
            f"{block['peer_redirects']:>9} "
            f"{block['redirect_bytes'] * to_gb:>11.2f} "
            f"{result.report.squirrel.latency.p95:>7.2f}"
        )
    print(
        "\nReading the table: partial policies trade hoarded disk for "
        "peer redirects;\nthe redirect bytes replace origin reads, so the "
        "glusterfs uplinks stay idle\nand p95 stays near the full-"
        "replication floor."
    )


if __name__ == "__main__":
    main()
