"""Grain-pool generators: release masters, the package pool, private grains.

Pools are *functional* — a pool is a deterministic mapping from index to
grain ID, evaluated lazily with vectorised numpy. Nothing is stored; the
whole 607-image dataset is a few kilobytes of specs until streams are drawn.

Pool structure (mechanisms, not hard-coded curves):

* A **release master** is the byte layout every image of that release derives
  from (users start from the release's published VHD). At each index the
  master grain is either family-shared (same ID in every sibling release,
  drawn in short runs of ``share_run_grains``) or release-private. Short
  shared runs mean cross-release dedup exists at small block sizes and
  washes out at large ones — one of the two trends behind Figure 2.
* The **package pool** is a global store of popular software payloads; user
  regions of unrelated images draw overlapping extents from it, giving
  images (not caches) a level of cross-image similarity independent of
  release.
* **Private grains** are unique to one image (user data, logs, mutated
  configs).
"""

from __future__ import annotations

import numpy as np

from ..common.hashing import derive_seed, mix64, mix64_pair
from .content import PoolKind, tag_with_classes
from .distro import Release

__all__ = [
    "master_grains",
    "package_pool_grains",
    "private_grains",
    "PACKAGE_POOL_SEED",
]

PACKAGE_POOL_SEED: int = derive_seed("global-package-pool")


def master_grains(
    release: Release, start: int, length: int, *, kind: PoolKind
) -> np.ndarray:
    """Grain IDs ``[start, start+length)`` of a release's master layout.

    Family-shared stretches are decided per run of ``share_run_grains``
    indices with probability ``family_share``; within a shared run the grain
    ID comes from the family pool (identical across sibling releases at the
    same index), otherwise from the release pool.
    """
    if length <= 0:
        return np.empty(0, dtype=np.uint64)
    idx = np.arange(start, start + length, dtype=np.uint64)
    family_seed = derive_seed("family-pool", release.family, int(kind))
    release_seed = derive_seed("release-pool", release.family, release.name, int(kind))
    run_ids = idx // np.uint64(max(1, release.share_run_grains))
    share_draw = mix64(mix64_pair(np.uint64(family_seed) ^ np.uint64(0xABCD), run_ids))
    threshold = np.uint64(int(release.family_share * 10_000))
    shared = (share_draw % np.uint64(10_000)) < threshold
    family_base = mix64_pair(np.full(length, family_seed, dtype=np.uint64), idx)
    release_base = mix64_pair(np.full(length, release_seed, dtype=np.uint64), idx)
    base = np.where(shared, family_base, release_base)
    return tag_with_classes(base, kind)


def package_pool_grains(offsets: np.ndarray) -> np.ndarray:
    """Grain IDs of the global package pool at the given pool offsets."""
    offs = np.asarray(offsets, dtype=np.uint64)
    base = mix64_pair(np.full(offs.shape, PACKAGE_POOL_SEED, dtype=np.uint64), offs)
    return tag_with_classes(base, PoolKind.USER)


def update_pool_grains(
    release: Release, kind: PoolKind, version: int, offsets: np.ndarray
) -> np.ndarray:
    """Grain IDs of one *update version* of a release, addressed by master
    position.

    Users of one release apply the same updates (apt-get upgrade pulls the
    same kernel, the same openssl), and an update overwrites the same files
    at the same positions of the master layout. So a shared-update mutation
    region is keyed by (release, version, master position): two sibling
    images on the same update version agree bit-for-bit — block-aligned by
    construction — wherever their updated regions overlap. Distinct update
    content per release is therefore *bounded* (versions × master span), and
    the per-cache new-hash rate saturates as caches accumulate — the bend in
    Figures 13/16/17.
    """
    offs = np.asarray(offsets, dtype=np.uint64)
    seed = derive_seed(
        "update-pool", release.family, release.name, int(kind), version
    )
    base = mix64_pair(np.full(offs.shape, seed, dtype=np.uint64), offs)
    return tag_with_classes(base, kind)


def private_grains(
    image_seed: int, region: str, offsets: np.ndarray, *, kind: PoolKind
) -> np.ndarray:
    """Grain IDs unique to one image's ``region`` (never shared), keyed by
    position so overlapping reads of one region agree."""
    offs = np.asarray(offsets, dtype=np.uint64)
    seed = derive_seed("private", image_seed, region)
    base = mix64_pair(np.full(offs.shape, seed, dtype=np.uint64), offs)
    return tag_with_classes(base, kind)
