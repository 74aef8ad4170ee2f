"""Tests for the multi-tenant workload engine: tenants, arrivals, scenarios."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import stream as rng_stream
from repro.workload import (
    DAY_S,
    ChurnConfig,
    DayConfig,
    StormConfig,
    TenantPopulation,
    boot_storm,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
    register_churn,
    shard_storm,
    steady_state_day,
)
from repro.experiments import storm_timeline
from repro.workload.rig import _Rig


class TestTenantPopulation:
    def test_weights_normalised(self):
        pop = TenantPopulation(12, 50, seed=1)
        assert sum(t.weight for t in pop.tenants) == pytest.approx(1.0)

    def test_each_tenant_has_a_full_permutation(self):
        pop = TenantPopulation(4, 30, seed=2)
        for tenant in pop.tenants:
            assert sorted(tenant.image_order) == list(range(30))

    def test_same_seed_same_population(self):
        a = TenantPopulation(8, 40, seed=5)
        b = TenantPopulation(8, 40, seed=5)
        for ta, tb in zip(a.tenants, b.tenants):
            assert ta.weight == tb.weight
            assert (ta.image_order == tb.image_order).all()

    def test_aggregate_popularity_is_skewed(self):
        """A few images dominate: the head of the distribution carries far
        more mass than a uniform draw would give it."""
        pop = TenantPopulation(6, 100, seed=3, zipf_exponent=1.0)
        freq = np.sort(pop.aggregate_popularity(4000, seed=3))[::-1]
        assert freq.sum() == pytest.approx(1.0)
        assert freq[:10].sum() > 3.0 * (10 / 100)

    def test_sampling_is_deterministic_per_stream(self):
        pop = TenantPopulation(8, 40, seed=5)
        draws_a = [pop.sample(rng_stream("t", 9))[1] for _ in range(1)]
        draws_b = [pop.sample(rng_stream("t", 9))[1] for _ in range(1)]
        assert draws_a == draws_b

    def test_rejects_empty_population(self):
        with pytest.raises(ConfigError):
            TenantPopulation(0, 10)


class TestArrivals:
    def test_poisson_sorted_and_bounded(self):
        times = poisson_arrivals(rng_stream("p", 0), rate_per_s=2.0, horizon_s=100.0)
        assert (np.diff(times) >= 0).all()
        assert times[0] >= 0.0 and times[-1] < 100.0
        # within 5 sigma of the expected 200
        assert 200 - 5 * np.sqrt(200) < len(times) < 200 + 5 * np.sqrt(200)

    def test_diurnal_peaks_where_told(self):
        times = diurnal_arrivals(
            rng_stream("d", 0),
            mean_rate_per_s=4000.0 / DAY_S,
            horizon_s=DAY_S,
            peak_to_trough=8.0,
            peak_time_s=DAY_S / 2,
        )
        hours = (times / 3600.0).astype(int)
        by_hour = np.bincount(hours, minlength=24)
        # busiest hour is near the configured peak (noon), quietest near
        # midnight, and the configured contrast shows up in the counts
        assert abs(int(np.argmax(by_hour)) - 12) <= 3
        assert by_hour[11:14].sum() > 2.5 * max(1, by_hour[[0, 1, 23]].sum())

    def test_flash_crowd_fits_the_ramp(self):
        times = flash_crowd_arrivals(rng_stream("f", 1), n_vms=64, ramp_s=30.0)
        assert len(times) == 64
        assert (np.diff(times) >= 0).all()
        assert times[-1] < 30.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            poisson_arrivals(rng_stream("x", 0), rate_per_s=0.0, horizon_s=1.0)
        with pytest.raises(ConfigError):
            diurnal_arrivals(
                rng_stream("x", 0),
                mean_rate_per_s=1.0,
                horizon_s=10.0,
                peak_to_trough=0.5,
            )


SMALL_STORM = StormConfig(n_nodes=4, vms_per_node=2, ramp_s=10.0, scale=1 / 1024)


class TestBootStorm:
    def test_squirrel_side_is_all_local(self):
        report = boot_storm(SMALL_STORM)
        assert report.squirrel.boots == 8
        assert report.squirrel.cache_hits == 8
        assert report.squirrel.compute_ingress_bytes == 0

    def test_baseline_pays_the_network(self):
        report = boot_storm(SMALL_STORM)
        assert report.baseline.cache_hits == 0
        assert report.baseline.compute_ingress_bytes > 0
        assert report.baseline.latency.p50 > report.squirrel.latency.p50

    def test_latency_ladder_is_ordered(self):
        report = boot_storm(SMALL_STORM)
        for side in (report.squirrel, report.baseline):
            stats = side.latency
            assert 0.0 < stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum
            assert side.horizon_s >= stats.maximum

    def test_rejects_empty_storm(self):
        with pytest.raises(ConfigError):
            boot_storm(StormConfig(n_nodes=0))


class TestScenarios:
    def test_steady_state_day_boots_and_registers(self):
        report = steady_state_day(
            DayConfig(
                n_nodes=4,
                n_boots=40,
                n_initial_images=8,
                n_new_registrations=2,
                scale=1 / 1024,
            )
        )
        assert report.boots > 0
        assert report.cache_hits > 0
        assert report.registrations == 2
        assert report.register_latency.count == 2
        # every boot either hit a cache or cold-fetched through the FS;
        # nothing times out or disappears
        assert report.boot_latency.count == report.boots

    def test_register_churn_resyncs_offline_nodes(self):
        report = register_churn(
            ChurnConfig(
                n_nodes=4,
                horizon_days=3.0,
                registrations_per_day=4.0,
                downtimes_per_node=1.5,
                mean_downtime_days=0.3,
                scale=1 / 1024,
            )
        )
        assert report.registrations > 0
        assert report.resyncs == report.incremental_resyncs + report.full_replications
        # every downtime window ends in a catch-up attempt; some find
        # nothing to ship (no registrations while down) and move no bytes
        assert report.resync_latency.count >= report.resyncs

    def test_register_churn_rejects_more_arrivals_than_images(self):
        """Every arrival registers a new image: a rate the catalog cannot
        feed fails up front, naming both counts, instead of dropping the
        excess arrivals."""
        with pytest.raises(ConfigError, match=r"1714 registrations .* 607 images"):
            register_churn(
                ChurnConfig(n_nodes=2, horizon_days=28.0, registrations_per_day=60.0)
            )


class TestRigLifecycle:
    """Every timed run ends in the rig's one checked drain: a storm drains
    each side once, a sharded storm adds its global-domain side."""

    DRIVERS = {
        "storm": (lambda: boot_storm(SMALL_STORM), 2),
        "shards": (lambda: shard_storm(SMALL_STORM, shards=2), 3),
        "placement": (
            lambda: storm_timeline.run_placement(
                policy="top_k", nodes=4, vms_per_node=2
            ),
            2,
        ),
        "day": (
            lambda: steady_state_day(
                DayConfig(
                    n_nodes=4, n_boots=20, n_initial_images=4,
                    n_new_registrations=1, scale=1 / 1024,
                )
            ),
            1,
        ),
        "churn": (
            lambda: register_churn(
                ChurnConfig(
                    n_nodes=4, horizon_days=1.0, registrations_per_day=4.0,
                    scale=1 / 1024,
                )
            ),
            1,
        ),
    }

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_one_checked_drain_per_run(self, driver, monkeypatch):
        run, expected = self.DRIVERS[driver]
        phases = []
        real = _Rig.run

        def counting(rig, phase, fraction):
            phases.append(phase)
            return real(rig, phase, fraction)

        monkeypatch.setattr(_Rig, "run", counting)
        run()
        assert len(phases) == expected, phases
