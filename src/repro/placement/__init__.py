"""Partial hoarding: popularity-aware VMI cache placement.

The paper's Squirrel replicates every image's cache to every compute node.
This package adds the decision layer between workload and storage that
relaxes that: a :class:`~repro.placement.policy.PlacementPolicy` chooses
*which nodes hoard which image*, a
:class:`~repro.placement.directory.PlacementDirectory` answers "who holds
it?" on a boot miss so the cold read can be redirected to a nearby peer
instead of the glusterfs origin, and pluggable transports
(unicast/multicast/swarm) model how seeds and adoptions move. The
:class:`~repro.placement.coordinator.PlacementCoordinator` ties the three
together and hangs off :class:`~repro.core.squirrel.Squirrel` as its
optional ``placement`` field — when absent, behaviour is byte-identical to
the paper baseline. Policies place by the workload's declared popularity,
:meth:`~repro.workload.tenants.TenantPopulation.expected_popularity`, which
:func:`~repro.workload.scenarios.placement_context` packs into a
:class:`~repro.placement.policy.PlacementContext`.
"""

from .coordinator import PlacementCoordinator, PlacementSpec, build_coordinator
from .directory import PlacementDirectory
from .policy import (
    POLICY_NAMES,
    FullPolicy,
    PlacementContext,
    PlacementPolicy,
    TenantAffinePolicy,
    TopKPolicy,
    ZipfWeightedPolicy,
    make_policy,
)
from .transport import (
    PEER_REDIRECT_PURPOSE,
    SEED_PURPOSE,
    TRANSPORT_NAMES,
    SeedResult,
    seed_transfer,
)

__all__ = [
    "PEER_REDIRECT_PURPOSE",
    "POLICY_NAMES",
    "SEED_PURPOSE",
    "TRANSPORT_NAMES",
    "FullPolicy",
    "PlacementContext",
    "PlacementCoordinator",
    "PlacementDirectory",
    "PlacementPolicy",
    "PlacementSpec",
    "SeedResult",
    "TenantAffinePolicy",
    "TopKPolicy",
    "ZipfWeightedPolicy",
    "build_coordinator",
    "make_policy",
    "seed_transfer",
]
