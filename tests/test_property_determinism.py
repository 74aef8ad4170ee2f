"""Property-based tests: the simulation is a pure function of its seed.

The event engine's contract is bit-level reproducibility — same seed, same
total event order, same Timeline, regardless of Python hash salt or dict
insertion accidents. Different seeds must actually differ (same-instant ties
are broken by a seeded draw, not left to scheduling order).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import stream as rng_stream
from repro.sim import Engine, Pipe, Resource
from repro.workload import StormConfig, boot_storm, flash_crowd_arrivals

SMALL_STORM = dict(n_nodes=4, vms_per_node=2, ramp_s=10.0, scale=1 / 1024)


def crowded_trace(seed: int) -> list[tuple[float, str]]:
    """A contended mini-cluster: one pipe, one resource, colliding instants."""
    engine = Engine(seed=seed, trace=True)
    pipe = Pipe(engine, 1000.0, name="link")
    cores = Resource(engine, capacity=2, name="cores")

    def vm(i):
        yield engine.timeout(float(i % 3), label=f"arrive:{i}")
        yield pipe.transfer(500, label=f"fetch:{i}")
        yield cores.request()
        yield engine.timeout(1.0, label=f"decompress:{i}")
        cores.release()

    for i in range(12):
        engine.process(vm(i), label=f"vm:{i}")
    engine.run()
    return engine.trace


class TestEngineDeterminismProperty:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_bit_identical_event_order(self, seed):
        assert crowded_trace(seed) == crowded_trace(seed)

    @given(seed=st.integers(0, 2**16 - 1))
    @settings(max_examples=10, deadline=None)
    def test_neighbouring_seeds_break_ties_differently(self, seed):
        assert crowded_trace(seed) != crowded_trace(seed + 1)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_arrival_traces_differ_across_seeds(self, seed):
        a = flash_crowd_arrivals(rng_stream("storm", seed), n_vms=32, ramp_s=30.0)
        b = flash_crowd_arrivals(rng_stream("storm", seed + 1), n_vms=32, ramp_s=30.0)
        assert list(a) != list(b)


class TestStormDeterminism:
    def test_same_seed_identical_timeline(self):
        """Two fresh rigs, same seed: every counter, gauge sample and
        histogram percentile matches exactly — on both sides."""
        first = boot_storm(StormConfig(seed=11, **SMALL_STORM))
        second = boot_storm(StormConfig(seed=11, **SMALL_STORM))
        assert first.squirrel.summary == second.squirrel.summary
        assert first.baseline.summary == second.baseline.summary
        assert first.squirrel.horizon_s == second.squirrel.horizon_s

    def test_different_seeds_different_storms(self):
        first = boot_storm(StormConfig(seed=11, **SMALL_STORM))
        second = boot_storm(StormConfig(seed=12, **SMALL_STORM))
        assert first.squirrel.summary != second.squirrel.summary


class TestLazyCatalogEquivalence:
    """The lazy catalog must be invisible in results: a storm, a placement
    run, and a figure experiment fed a catalog that re-synthesises on every
    access, a catalog with the default budget, or the default path
    serialise byte-identically."""

    def test_storm_lazy_equals_eager_equals_default(self):
        from repro.common.report import dumps_canonical
        from repro.vmi import DatasetConfig, LazyImageCatalog

        config = StormConfig(seed=5, **SMALL_STORM)
        # a one-byte budget evicts every stream and view after its use
        eager = LazyImageCatalog(DatasetConfig(scale=config.scale), budget_bytes=1)
        lazy = LazyImageCatalog(DatasetConfig(scale=config.scale))
        reports = [
            boot_storm(config, dataset=eager),
            boot_storm(config, dataset=lazy),
            boot_storm(config),
        ]
        payloads = [dumps_canonical(r.to_dict()) for r in reports]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_placement_storm_lazy_equals_eager_context(self):
        from repro.common.report import dumps_canonical
        from repro.experiments import ExperimentConfig, ExperimentContext
        from repro.experiments import storm_timeline

        kwargs = dict(
            nodes=4, vms_per_node=2, seed=7, policy="top_k", top_k=2
        )
        a = storm_timeline.run_placement(
            ctx=ExperimentContext(ExperimentConfig()), **kwargs
        )
        b = storm_timeline.run_placement(
            ctx=ExperimentContext(ExperimentConfig()), **kwargs
        )
        assert dumps_canonical(a.to_dict()) == dumps_canonical(b.to_dict())

    def test_figure_metrics_lazy_equals_inline_synthesis(self):
        from repro.analysis import dataset_metrics
        from repro.experiments import ExperimentConfig, ExperimentContext
        from repro.vmi import (
            DatasetConfig,
            LazyImageCatalog,
            block_view,
            cache_stream,
        )

        scale = 1 / 2048
        ctx = ExperimentContext(ExperimentConfig(scale=scale, quick=4,
                                                 calibration_samples=2))
        lazy = ctx.metrics("caches", 65536)
        eager = LazyImageCatalog(DatasetConfig(scale=scale))
        views = [
            block_view(cache_stream(spec), 65536)
            for spec in eager.specs[::4]
        ]
        inline = dataset_metrics(views, ctx.estimator("gzip6", (65536,)))
        assert lazy == inline
