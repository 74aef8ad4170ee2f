"""Extension: cache-aware VM scheduling vs Squirrel's full replication.

The paper's introduction dismisses both LRU replacement *and* cache-aware
scheduling in favour of scatter hoarding. `bench_ablation_lru_policy`
quantifies the first; this bench quantifies the second: a scheduler that
steers VMs to warm nodes improves hit rates over random placement but still
misses (popular nodes fill up, spills land cold) and skews load — Squirrel
gets 100 % hits *and* unconstrained load balancing.
"""

from repro.common.units import GiB
from repro.core import SCHEDULING_POLICIES, generate_arrivals, simulate_policy
from repro.experiments import default_context


def test_ablation_scheduler(benchmark, record_result):
    ctx = default_context()
    catalog = ctx.catalog()

    def run():
        events = generate_arrivals(catalog, n_vms=3000, horizon_ticks=1200)
        return {
            policy: simulate_policy(catalog, events, policy)
            for policy in SCHEDULING_POLICIES
        }

    outcomes = benchmark.pedantic(run, rounds=1)
    scale_up = catalog.scaled_up
    lines = [
        "Extension: scheduling policies on a 16-node cluster (3000 VM arrivals)",
        "-" * 70,
        f"{'policy':>12s} {'hit rate':>9s} {'miss traffic':>13s} {'load CV':>9s} "
        f"{'rejected':>9s}",
    ]
    for policy, outcome in outcomes.items():
        lines.append(
            f"{policy:>12s} {outcome.hit_rate:>8.1%} "
            f"{scale_up(outcome.miss_network_bytes) / GiB:>11.1f} GB "
            f"{outcome.load_imbalance:>9.3f} {outcome.rejected:>9d}"
        )
    record_result("ablation_scheduler", "\n".join(lines))

    random_outcome = outcomes["random"]
    aware = outcomes["cache-aware"]
    squirrel = outcomes["squirrel"]
    # cache-awareness helps hit rate over random placement...
    assert aware.hit_rate > random_outcome.hit_rate
    # ...but cannot reach full replication, which also never moves a byte
    assert squirrel.hit_rate == 1.0 > aware.hit_rate
    assert squirrel.miss_network_bytes == 0 < aware.miss_network_bytes
    # and Squirrel's placement balances load at least as well
    assert squirrel.load_imbalance <= aware.load_imbalance + 1e-9
