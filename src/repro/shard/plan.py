"""Shard plans: deterministic grouping of images into dedup shards.

Two grouping modes:

* ``similarity`` — greedy threshold clustering over the analytic
  similarity weights (:mod:`repro.shard.similarity`). Images are visited
  in catalogue order; each joins the open group whose *anchor* (first
  member) it matches best, or opens a new group while shard slots remain
  and no anchor clears the threshold. Ties break toward the least-loaded
  (then lowest-index) group. The result depends only on the spec list —
  no RNG — so plans are byte-stable per seed.
* ``tenant`` — isolation by ownership: the image's owning tenant
  (:meth:`~repro.workload.tenants.TenantPopulation.image_owners`) modulo
  the shard count.

``shards=1`` always yields the trivial plan (every image in ``s00``),
which the cVolume maps onto the pool's existing global dedup domain.
:class:`ShardPlan` itself lives in :mod:`repro.core.cvolume`.
"""

from __future__ import annotations

from ..common.errors import ConfigError
from ..core.cvolume import ShardPlan, shard_name
from ..vmi.image import ImageSpec
from .similarity import hoard_grains, weight

__all__ = ["ShardPlan", "build_plan", "shard_name", "GROUPING_MODES"]

GROUPING_MODES = ("similarity", "tenant")

#: default similarity threshold: above typical cross-family package overlap
#: (~0.1-0.2), below same-family cross-release weights scaled by
#: ``family_share`` (~0.4+), so families cluster and strangers don't
DEFAULT_THRESHOLD = 0.3


def _similarity_groups(
    specs: list[ImageSpec], n_shards: int, threshold: float
) -> list[list[int]]:
    """Greedy anchor clustering; returns per-group spec indices."""
    groups: list[dict] = []  # {"anchor": spec, "members": [idx], "load": grains}
    for index, spec in enumerate(specs):
        best_group = None
        best_weight = -1.0
        for g_index, group in enumerate(groups):
            w = weight(spec, group["anchor"])
            better = w > best_weight or (
                w == best_weight
                and best_group is not None
                and (
                    group["load"] < groups[best_group]["load"]
                    or (
                        group["load"] == groups[best_group]["load"]
                        and g_index < best_group
                    )
                )
            )
            if better:
                best_group = g_index
                best_weight = w
        if len(groups) < n_shards and best_weight < threshold:
            groups.append({"anchor": spec, "members": [index], "load": 0.0})
            best_group = len(groups) - 1
        else:
            groups[best_group]["members"].append(index)
        groups[best_group]["load"] += hoard_grains(spec)
    return [group["members"] for group in groups]


def build_plan(
    specs: list[ImageSpec],
    n_shards: int,
    mode: str = "similarity",
    *,
    owners=None,
    threshold: float = DEFAULT_THRESHOLD,
) -> ShardPlan:
    """Group ``specs`` into ``n_shards`` shards."""
    if n_shards < 1:
        raise ConfigError("need at least one shard")
    if mode not in GROUPING_MODES:
        raise ConfigError(
            f"unknown grouping mode {mode!r} (choose from {GROUPING_MODES})"
        )
    names = tuple(shard_name(i) for i in range(n_shards))
    assignment: dict[int, str] = {}
    if n_shards == 1:
        assignment = {spec.image_id: names[0] for spec in specs}
        return ShardPlan(
            mode=mode, names=names, assignment=assignment, threshold=threshold
        )
    if mode == "tenant":
        if owners is None:
            raise ConfigError("tenant grouping needs an image -> owner map")
        for spec in specs:
            owner = int(owners[spec.image_id])
            assignment[spec.image_id] = names[owner % n_shards]
    else:
        for g_index, members in enumerate(
            _similarity_groups(list(specs), n_shards, threshold)
        ):
            for index in members:
                assignment[specs[index].image_id] = names[g_index]
    return ShardPlan(
        mode=mode, names=names, assignment=assignment, threshold=threshold
    )
