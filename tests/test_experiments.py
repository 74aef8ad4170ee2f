"""Tests for the experiments package (context + selected experiments).

These run at a very small dataset scale — shape assertions live in the
benchmarks; here we test the machinery: memoisation, rendering, and the
paper-anchored invariants that hold at any scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentContext,
    consumption,
    fig02_compression_ratio,
    fig04_ccr,
    fig12_cross_similarity,
    fig18_network_transfer,
    fits,
    tab01_storage_chain,
    tab02_os_diversity,
)
from repro.common.units import GiB, TiB


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        ExperimentConfig(scale=1 / 2048, quick=4, calibration_samples=2)
    )


class TestContext:
    def test_specs_respect_quick(self, ctx):
        assert len(ctx.specs) == len(ctx.catalog().specs[::4])

    def test_streams_cached(self, ctx):
        first = ctx.streams("caches")
        second = ctx.streams("caches")
        assert all(a is b for a, b in zip(first, second))

    def test_metrics_memoised(self, ctx):
        first = ctx.metrics("caches", 4096)
        second = ctx.metrics("caches", 4096)
        assert first is second

    def test_views_not_retained(self, ctx):
        views = ctx.views("caches", 8192)
        assert views is not ctx.views("caches", 8192)


class TestTab02:
    def test_census_matches(self, ctx):
        # quick-subsampling changes counts, so build a full tiny context
        full = ExperimentContext(ExperimentConfig(scale=1 / 2048, quick=1))
        result = tab02_os_diversity.run(full)
        assert result.matches_paper
        assert "matches the paper" in tab02_os_diversity.render(result)


class TestTab01:
    def test_chain_is_strictly_decreasing(self, ctx):
        result = tab01_storage_chain.run(ctx)
        assert (
            result.original_bytes
            > result.nonzero_bytes
            > result.caches_nonzero_bytes
            > result.caches_ccr_bytes
        )

    def test_render_contains_all_columns(self, ctx):
        rendered = tab01_storage_chain.render(tab01_storage_chain.run(ctx))
        assert "Caches/CCR" in rendered and "TB" in rendered


class TestMetricExperiments:
    def test_fig02_shapes(self, ctx):
        result = fig02_compression_ratio.run(ctx)
        assert len(result.caches_dedup) == 11
        # monotone trends hold even at tiny scale
        assert result.caches_dedup[0] >= result.caches_dedup[-1]
        assert result.caches_gzip6[0] <= result.caches_gzip6[-1]

    def test_fig04_consistent_with_fig02(self, ctx):
        fig2 = fig02_compression_ratio.run(ctx)
        fig4 = fig04_ccr.run(ctx)
        for i in range(11):
            assert fig4.caches_ccr[i] == pytest.approx(
                fig2.caches_dedup[i] * fig2.caches_gzip6[i]
            )

    def test_fig12_caches_above_images(self, ctx):
        result = fig12_cross_similarity.run(ctx)
        assert result.caches_similarity[0] > result.images_similarity[0]

    def test_renders_mention_block_sizes(self, ctx):
        rendered = fig02_compression_ratio.render(fig02_compression_ratio.run(ctx))
        assert "1024" in rendered and "block KB" in rendered


class TestConsumption:
    def test_memoised(self, ctx):
        first = consumption("caches", 65536, ctx)
        second = consumption("caches", 65536, ctx)
        assert first is second

    def test_trajectory_monotone(self, ctx):
        trajectory = consumption("caches", 65536, ctx)
        assert (np.diff(trajectory.disk_bytes) >= 0).all()
        assert trajectory.files == len(ctx.specs)

    def test_smaller_blocks_more_ddt(self, ctx):
        small = consumption("caches", 16384, ctx)
        large = consumption("caches", 131072, ctx)
        assert small.ddt_disk_bytes[-1] > large.ddt_disk_bytes[-1]


class TestFits:
    def test_disk_fits_produce_winner_per_block_size(self, ctx):
        result = fits.run_disk(ctx)
        assert set(result.outcomes) == set(fits.FIT_BLOCK_SIZES)
        for outcome in result.outcomes.values():
            assert outcome.winner_name in ("linear", "MMF", "hoerl")
            assert outcome.extrapolate(3000) > 0

    def test_memory_extrapolation_modest(self, ctx):
        result = fits.run_memory(ctx)
        outcome = result.outcome_64k()
        # "modest memory": even at 3000 caches, well under a GB
        assert outcome.extrapolate(3000) < 1024.0  # MB

    def test_render_pipeline(self, ctx):
        result = fits.run_disk(ctx)
        assert "Table 3" in fits.render_rmse_table(result, table="Table 3")
        assert "Figure 14" in fits.render_fit_quality(result, figure="Figure 14")
        assert "Figure 15" in fits.render_extrapolation(result, figure="Figure 15")


class TestFig18:
    def test_squirrel_zero_baseline_grows(self):
        small = ExperimentContext(ExperimentConfig(scale=1 / 4096, quick=1))
        result = fig18_network_transfer.run(small)
        assert all(v == 0.0 for v in result.with_caches)
        for vms in (1, 8):
            series = result.without_caches[vms]
            assert series[-1] > series[0]
        rendered = fig18_network_transfer.render(result)
        assert "w/ caches" in rendered


class TestFig18Fabrics:
    def test_transfer_sizes_fabric_independent(self):
        """Paper footnote 5: 1 GbE and InfiniBand results are essentially
        the same — the figure's metric is bytes, not time."""
        from repro.experiments import fig18_network_transfer as exp

        ctx = ExperimentContext(ExperimentConfig(scale=1 / 4096, quick=1))
        ib = exp.run(ctx, fabric="32GbIB")
        gbe = exp.run(ctx, fabric="1GbE")
        for vms in exp.VMS_PER_NODE:
            assert ib.without_caches[vms] == gbe.without_caches[vms]
        assert ib.with_caches == gbe.with_caches
