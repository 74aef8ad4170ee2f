"""Image specifications and grain-stream synthesis.

An :class:`ImageSpec` describes one community image: which release it derives
from, its raw/nonzero/cache byte counts, and its mutation parameters. The two
stream builders produce the grain-ID sequences the rest of the system
consumes:

* :func:`cache_stream`  — the boot working set (the "VMI cache"),
* :func:`image_stream`  — the full nonzero content; its prefix *is* the
  cache stream (the boot set is part of the image), so cache-vs-image
  comparisons are internally consistent.

Mutation model: a user's image is the release master plus *clustered*
modifications — a swapped kernel, a rewritten package database, appended
logs — modelled as a Poisson process of regions with lognormal lengths whose
grains are replaced by image-private grains. Clustering is essential: it
spreads the dedup-vs-block-size transition across the whole 1 KB–1 MB sweep
(small regions break small blocks only; large regions dominate at large
block sizes), which is what gives Figure 2/12 their smooth slopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from ..common.rng import stream as rng_stream
from .content import GRAIN_SIZE, PoolKind
from .distro import Release
from .pools import (
    master_grains,
    package_pool_grains,
    private_grains,
    update_pool_grains,
)

__all__ = [
    "ImageSpec",
    "MASTER_WINDOWS",
    "MutationProfile",
    "cache_stream",
    "image_stream",
    "master_window",
]

#: master index offset separating the boot region from the body region, so
#: the two never alias (no cache is larger than this many grains)
BODY_MASTER_OFFSET: int = 1 << 22


@dataclass(frozen=True)
class MutationProfile:
    """Per-image divergence from the release master."""

    boot_rate: float  #: fraction of boot-region grains replaced
    body_rate: float  #: fraction of body-region grains replaced
    region_mean_grains: float  #: mean mutated-region length (lognormal)
    region_sigma: float  #: lognormal sigma of region lengths


@dataclass(frozen=True)
class ImageSpec:
    """One community VM image (sizes already include the dataset scale)."""

    image_id: int
    release: Release
    seed: int
    raw_bytes: int  #: apparent VHD size (mostly holes)
    nonzero_bytes: int  #: allocated content
    cache_bytes: int  #: boot working set size
    base_fraction: float  #: share of the body that follows the release master
    package_fraction: float  #: share of the user region drawn from the package pool
    mutation: MutationProfile
    #: release-level constant: stream position where the base body starts.
    #: All images of a release place master content at identical offsets
    #: (users modify a copied VHD in place, they don't shift it), so the boot
    #: region is padded with holes up to this span — without it, large-block
    #: dedup across sibling images would be destroyed by misalignment.
    boot_span_grains: int = 0

    @property
    def cache_grains(self) -> int:
        return max(1, self.cache_bytes // GRAIN_SIZE)

    @property
    def nonzero_grains(self) -> int:
        return max(self.cache_grains, self.nonzero_bytes // GRAIN_SIZE)

    @property
    def body_grains(self) -> int:
        return self.nonzero_grains - self.cache_grains

    @property
    def base_body_grains(self) -> int:
        return int(self.body_grains * self.base_fraction)

    @property
    def user_grains(self) -> int:
        return self.body_grains - self.base_body_grains


#: fraction of mutation regions that are shared updates (same kernel update,
#: same package upgrade) rather than image-private edits. Shared updates are
#: what saturate the per-cache hash-growth curves (Figures 13/16/17).
UPDATE_SHARED_FRACTION = 0.7
#: popularity of update versions (most images run the latest)
UPDATE_VERSION_WEIGHTS = (0.45, 0.25, 0.15, 0.10, 0.05)
#: mutation regions replace whole files, and the filesystem allocates file
#: extents on coarse boundaries — so regions are aligned to this many grains.
#: Without the alignment every region edge mints two per-image-unique blocks
#: that never deduplicate, drowning the update-sharing signal.
REGION_ALIGN_GRAINS = 64


def _mutation_regions(
    length: int, rate: float, profile: MutationProfile, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Poisson mutation regions with lognormal lengths, as (start, end)."""
    if length == 0 or rate <= 0.0:
        return []
    mean_len = profile.region_mean_grains
    # lognormal with the requested mean: mean = exp(mu + sigma^2/2)
    mu = np.log(mean_len) - profile.region_sigma**2 / 2.0
    expected_regions = max(1, int(round(rate * length / mean_len)))
    n_regions = rng.poisson(expected_regions)
    if n_regions == 0:
        return []
    starts = rng.integers(0, length, size=n_regions)
    lengths = np.maximum(
        1, rng.lognormal(mu, profile.region_sigma, size=n_regions)
    ).astype(np.int64)
    align = REGION_ALIGN_GRAINS
    starts = (starts // align) * align
    ends = np.minimum(-(-(starts + lengths) // align) * align, length)
    return [(int(s), int(e)) for s, e in zip(starts, ends) if e > s]


def _apply_mutations(
    master: np.ndarray,
    spec: ImageSpec,
    *,
    region_tag: str,
    rate: float,
    kind: PoolKind,
    rng: np.random.Generator,
) -> np.ndarray:
    """Overlay an image's mutation regions onto a master window.

    Each region is either a *shared update* (drawn from the release's update
    pool at an aligned offset — sibling images applying the same update
    share it) or image-private content.
    """
    out = master.copy()
    version_count = len(UPDATE_VERSION_WEIGHTS)
    for start, end in _mutation_regions(len(master), rate, spec.mutation, rng):
        if rng.random() < UPDATE_SHARED_FRACTION:
            version = int(
                rng.choice(version_count, p=UPDATE_VERSION_WEIGHTS)
            )
            offsets = np.arange(start, end, dtype=np.uint64)
            out[start:end] = update_pool_grains(
                spec.release, kind, version, offsets
            )
        else:
            # key private grains by position so overlapping regions of one
            # image agree, while other images never collide
            out[start:end] = _private_at(
                spec.seed,
                f"{region_tag}-mut",
                np.arange(start, end, dtype=np.int64),
                kind=kind,
            )
    return out


#: each pool kind's window of a release master: the master index it starts
#: at, and how many of its grains an image draws. ``master_grains`` at an
#: index depends on nothing else, so an image's window is a prefix of any
#: longer window of its release.
MASTER_WINDOWS: dict[PoolKind, tuple[int, Callable[[ImageSpec], int]]] = {
    PoolKind.BOOT: (0, attrgetter("cache_grains")),
    PoolKind.BASE: (BODY_MASTER_OFFSET, attrgetter("base_body_grains")),
}


def master_window(spec: ImageSpec, kind: PoolKind) -> np.ndarray:
    """The master grains ``spec`` draws for ``kind``, built directly."""
    start, span = MASTER_WINDOWS[kind]
    return master_grains(spec.release, start, span(spec), kind=kind)


#: where the stream builders take master windows from: ``master_window``, or
#: a catalog slicing windows it built once per release
Masters = Callable[[ImageSpec, PoolKind], np.ndarray]


def cache_stream(spec: ImageSpec, masters: Masters = master_window) -> np.ndarray:
    """Grain IDs of the image's VMI cache (boot working set)."""
    master = masters(spec, PoolKind.BOOT)
    rng = rng_stream("mutate-boot", spec.seed)
    return _apply_mutations(
        master,
        spec,
        region_tag="boot",
        rate=spec.mutation.boot_rate,
        kind=PoolKind.BOOT,
        rng=rng,
    )


def _base_body_stream(spec: ImageSpec, masters: Masters) -> np.ndarray:
    if spec.base_body_grains == 0:
        return np.empty(0, dtype=np.uint64)
    master = masters(spec, PoolKind.BASE)
    rng = rng_stream("mutate-body", spec.seed)
    return _apply_mutations(
        master,
        spec,
        region_tag="body",
        rate=spec.mutation.body_rate,
        kind=PoolKind.BASE,
        rng=rng,
    )


#: package-pool extents are whole software payloads: sizeable contiguous runs
_PKG_EXTENT_MEAN_GRAINS = 64
#: the package pool's span relative to one image's user region: draws of two
#: images overlap with a probability set by this ratio, independent of the
#: dataset scale (a fixed span would make cross-image similarity grow with
#: scale)
_PKG_POOL_SPAN_FACTOR = 48
#: a user region's private draws come from a pool this fraction of its size;
#: overlapping draws model within-image duplication (~25-30% self-dedup)
_SELF_DEDUP_POOL_FRACTION = 0.55


def _user_stream(spec: ImageSpec) -> np.ndarray:
    """User region: interleaved package-pool extents and private data.

    Fully vectorised: extent lengths, kinds, and pool offsets are drawn as
    arrays, then expanded to per-grain offsets with the repeat/cumsum trick.
    """
    total = spec.user_grains
    if total <= 0:
        return np.empty(0, dtype=np.uint64)
    rng = rng_stream("user-region", spec.seed)
    # oversample extents, then trim to exactly `total` grains
    n_ext = max(4, int(2.2 * total / _PKG_EXTENT_MEAN_GRAINS) + 8)
    lengths = np.maximum(
        4, rng.exponential(_PKG_EXTENT_MEAN_GRAINS, size=n_ext)
    ).astype(np.int64)
    ends = np.cumsum(lengths)
    n_used = int(np.searchsorted(ends, total)) + 1
    lengths = lengths[:n_used]
    lengths[-1] -= ends[n_used - 1] - total
    is_pkg = rng.random(n_used) < spec.package_fraction
    # whole-payload draws: extents start at payload-aligned pool offsets
    pkg_span = max(4096, total * _PKG_POOL_SPAN_FACTOR)
    pkg_starts = rng.integers(0, max(1, pkg_span // 64), size=n_used) * 64
    # private extents draw from a bounded per-image pool, so an image repeats
    # some of its own content (duplicate locale files, copies, repeated fs
    # metadata) — the within-image dedup real VMI studies report, which
    # raises an image's dedup ratio without raising cross-image similarity
    private_pool_span = max(64, int(total * _SELF_DEDUP_POOL_FRACTION))
    private_starts = rng.integers(0, max(1, private_pool_span // 16), size=n_used) * 16
    ext_base = np.where(is_pkg, pkg_starts, private_starts)

    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    offsets = np.repeat(ext_base, lengths) + within
    pkg_mask = np.repeat(is_pkg, lengths)

    out = np.empty(total, dtype=np.uint64)
    if pkg_mask.any():
        out[pkg_mask] = package_pool_grains(offsets[pkg_mask])
    if (~pkg_mask).any():
        out[~pkg_mask] = _private_at(
            spec.seed, "user", offsets[~pkg_mask], kind=PoolKind.USER
        )
    return out


def _private_at(
    image_seed: int, region: str, offsets: np.ndarray, *, kind: PoolKind
) -> np.ndarray:
    """Private grains at explicit per-grain offsets (vectorised helper)."""
    from ..common.hashing import derive_seed, mix64_pair
    from .content import tag_with_classes

    seed = derive_seed("private", image_seed, region)
    base = mix64_pair(
        np.full(offsets.shape, seed, dtype=np.uint64),
        np.asarray(offsets, dtype=np.uint64),
    )
    return tag_with_classes(base, kind)


def image_stream(spec: ImageSpec, masters: Masters = master_window) -> np.ndarray:
    """Grain IDs of the image's full content layout.

    Layout: ``[boot region][hole padding to the release boot span]``
    ``[base body][user region]``. The hole padding (grain ID 0) models the
    free space after the boot files; it keeps the base body at a stable,
    release-wide stream position so sibling images stay block-aligned.
    """
    boot = cache_stream(spec, masters)
    pad_len = max(0, spec.boot_span_grains - boot.size)
    padding = np.zeros(pad_len, dtype=np.uint64)
    return np.concatenate(
        [boot, padding, _base_body_stream(spec, masters), _user_stream(spec)]
    )
