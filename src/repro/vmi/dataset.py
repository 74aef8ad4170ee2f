"""The Azure community-image spec builder (607 images, Table 2 mix).

:func:`_build_images` builds one :class:`ImageSpec` per community image with sizes drawn from
realistic distributions and then *normalised* so the dataset totals equal the
paper's measured inputs scaled by ``DatasetConfig.scale``:

* raw:      16.4 TB  × scale,
* nonzero:   1.4 TB  × scale,
* caches:   78.5 GB  × scale.

Those three totals are properties of the paper's *input* dataset, so pinning
them is calibration of inputs, not of results; everything downstream
(dedup ratios, CCR, DDT sizes, boot times, similarity) is computed by the
system under test. :class:`~repro.vmi.catalog.LazyImageCatalog` holds the
spec list it returns and synthesizes each image's grain stream on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..common.errors import ConfigError
from ..common.hashing import derive_seed
from ..common.rng import stream as rng_stream
from ..common.units import GiB, KiB, MiB, TiB
from .distro import OSFamily, default_families, release_weights
from .image import ImageSpec, MutationProfile

__all__ = ["DatasetConfig", "PAPER_TOTALS"]

#: The paper's dataset totals (Sections 1, 2.3, Table 1).
PAPER_TOTALS = {
    "raw_bytes": int(16.4 * TiB),
    "nonzero_bytes": int(1.4 * TiB),
    "cache_bytes": int(78.5 * GiB),
    "image_count": 607,
}


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs of the synthetic dataset.

    ``scale`` multiplies every per-image byte count so sweeps run on one
    machine; image *count* and the OS mix are never scaled. All grain-level
    ratios (dedup, similarity, CCR) are intensive and scale-invariant, which
    ``tests/test_vmi_dataset.py`` asserts.
    """

    scale: float = 1.0 / 32.0
    seed: int = derive_seed("azure-dataset-v1")
    image_count: int = 607
    #: per-image divergence from the release master (population means)
    boot_mutation_mean: float = 0.70
    body_mutation_mean: float = 0.30
    region_mean_grains: float = 256.0
    region_sigma: float = 1.8
    #: body composition (population means)
    base_fraction_mean: float = 0.35
    package_fraction_mean: float = 0.22

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ConfigError(
                f"dataset scale must be positive and finite, got {self.scale}"
            )


def _allocate_counts(families: tuple[OSFamily, ...], total: int) -> list[int]:
    """Spread ``total`` images over families proportionally to the census."""
    census_total = sum(f.image_count for f in families)
    counts = [int(round(f.image_count * total / census_total)) for f in families]
    # fix rounding drift on the largest family
    drift = total - sum(counts)
    counts[int(np.argmax(counts))] += drift
    return counts


def _build_images(config: DatasetConfig) -> list[ImageSpec]:
    families = default_families()
    counts = _allocate_counts(families, config.image_count)
    rng = rng_stream("dataset-build", config.seed)

    specs_raw: list[dict] = []
    image_id = 0
    for family, count in zip(families, counts):
        weights = release_weights(family)
        release_choices = rng.choice(len(family.releases), size=count, p=weights)
        for choice in release_choices:
            release = family.releases[int(choice)]
            specs_raw.append(
                {
                    "image_id": image_id,
                    "release": release,
                    "seed": derive_seed(config.seed, "image", image_id),
                    # size draws (normalised below)
                    "raw": float(np.clip(rng.lognormal(np.log(27 * GiB), 0.45),
                                         5 * GiB, 70 * GiB)),
                    "nonzero_frac": float(np.clip(rng.lognormal(np.log(0.085), 0.35),
                                                  0.02, 0.4)),
                    "cache": float(np.clip(rng.lognormal(np.log(130 * MiB), 0.30),
                                           60 * MiB, 320 * MiB)),
                    "base_fraction": float(np.clip(
                        rng.normal(config.base_fraction_mean, 0.12), 0.2, 0.85)),
                    "package_fraction": float(np.clip(
                        rng.normal(config.package_fraction_mean, 0.12), 0.05, 0.75)),
                    "boot_rate": float(np.clip(
                        rng.normal(config.boot_mutation_mean, 0.07), 0.03, 0.95)),
                    "body_rate": float(np.clip(
                        rng.normal(config.body_mutation_mean, 0.06), 0.03, 0.9)),
                }
            )
            image_id += 1

    # normalise the three dataset totals to the paper's inputs × scale
    raw_target = PAPER_TOTALS["raw_bytes"] * config.scale
    nonzero_target = PAPER_TOTALS["nonzero_bytes"] * config.scale
    cache_target = PAPER_TOTALS["cache_bytes"] * config.scale
    raw_sum = sum(s["raw"] for s in specs_raw)
    nonzero_sum = sum(s["raw"] * s["nonzero_frac"] for s in specs_raw)
    cache_sum = sum(s["cache"] for s in specs_raw)

    # resolve normalised per-image sizes first: the boot span of a release is
    # a release-level constant (the stream position where every sibling
    # image's base body starts), derived from its largest cache
    resolved: list[dict] = []
    for s in specs_raw:
        raw_bytes = int(s["raw"] * raw_target / raw_sum)
        nonzero_bytes = int(s["raw"] * s["nonzero_frac"] * nonzero_target / nonzero_sum)
        cache_bytes = int(s["cache"] * cache_target / cache_sum)
        cache_bytes = max(2 * KiB, min(cache_bytes, nonzero_bytes))
        nonzero_bytes = max(nonzero_bytes, cache_bytes)
        resolved.append(
            {**s, "raw_b": raw_bytes, "nonzero_b": nonzero_bytes, "cache_b": cache_bytes}
        )

    boot_span: dict[tuple[str, str], int] = {}
    for s in resolved:
        key = (s["release"].family, s["release"].name)
        grains = -(-s["cache_b"] // KiB)
        boot_span[key] = max(boot_span.get(key, 0), grains)
    # round spans up to the largest analysis block (1024 grains) so padding
    # ends on a block boundary at every swept block size
    boot_span = {k: -(-v // 1024) * 1024 for k, v in boot_span.items()}

    specs: list[ImageSpec] = []
    for s in resolved:
        key = (s["release"].family, s["release"].name)
        specs.append(
            ImageSpec(
                image_id=s["image_id"],
                release=s["release"],
                seed=s["seed"],
                raw_bytes=s["raw_b"],
                nonzero_bytes=s["nonzero_b"],
                cache_bytes=s["cache_b"],
                base_fraction=s["base_fraction"],
                package_fraction=s["package_fraction"],
                mutation=MutationProfile(
                    boot_rate=s["boot_rate"],
                    body_rate=s["body_rate"],
                    region_mean_grains=config.region_mean_grains,
                    region_sigma=config.region_sigma,
                ),
                boot_span_grains=boot_span[key],
            )
        )
    return specs
