"""The placement experiment's contracts: baseline identity, strict savings,
and byte-identical sweep merges at any worker count."""

import numpy as np
import pytest

from repro.common.report import dumps_canonical
from repro.experiments import registry, storm_timeline
from repro.sweep import SweepSpec, run_sweep
from repro.vmi import catalog_at
from repro.workload import StormConfig, storm_arrivals

#: small enough for unit tests, large enough for redirects to happen
SMALL = {"nodes": 8, "vms_per_node": 2}


class TestRegistration:
    def test_registered_with_params_and_metrics(self):
        exp = registry.get("placement")
        assert exp.exp_id == storm_timeline.PLACEMENT_ID
        names = {spec.name for spec in exp.params}
        assert {"policy", "transport", "nodes", "zipf", "faults"} <= names
        assert "placement.hoarded_bytes" in exp.metrics

    def test_policy_and_transport_choices_enforced(self):
        exp = registry.get("placement")
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="not in"):
            exp.validate({"policy": "everything"})


class TestFullBaseline:
    def test_full_policy_report_matches_storm_run(self):
        """policy=full attaches no coordinator: the embedded report must be
        byte-for-byte the storm experiment's at the same config."""
        full = storm_timeline.run_placement(policy="full", **SMALL)
        storm = storm_timeline.run(**SMALL)
        assert dumps_canonical(full.report.to_dict()) == dumps_canonical(
            storm.report.to_dict()
        )

    def test_full_block_is_analytic(self):
        full = storm_timeline.run_placement(policy="full", **SMALL)
        block = full.placement
        assert block["peer_redirects"] == 0
        assert block["origin_fallbacks"] == 0
        assert block["hoarded_bytes"] == block["full_hoarded_bytes"]
        assert block["hoarded_fraction"] == pytest.approx(1.0)
        assert block["hit_rate"] == pytest.approx(1.0)


class TestPartialPolicies:
    @pytest.mark.parametrize("policy", ["top_k", "zipf_weighted"])
    def test_strictly_lower_hoard_with_redirects(self, policy):
        full = storm_timeline.run_placement(policy="full", **SMALL)
        partial = storm_timeline.run_placement(policy=policy, **SMALL)
        assert (
            partial.placement["hoarded_bytes"]
            < full.placement["hoarded_bytes"]
        )
        assert partial.placement["peer_redirects"] > 0
        assert partial.placement["redirect_bytes"] > 0
        assert partial.placement["hit_rate"] < 1.0

    def test_transport_changes_seed_charge_not_hoard(self):
        multicast = storm_timeline.run_placement(
            policy="top_k", transport="multicast", **SMALL
        )
        swarm = storm_timeline.run_placement(policy="top_k", transport="swarm", **SMALL)
        assert (
            multicast.placement["hoarded_bytes"]
            == swarm.placement["hoarded_bytes"]
        )
        assert swarm.placement["seed_peer_upload_bytes"] > 0
        assert multicast.placement["seed_peer_upload_bytes"] == 0

    def test_renderer_mentions_the_frontier(self):
        exp = registry.get("placement")
        result = storm_timeline.run_placement(policy="top_k", **SMALL)
        text = exp.render(result)
        assert "hoard/ingress frontier" in text
        assert "full (ref)" in text


class TestTracePopulation:
    def test_top_k_hoards_the_trace_populations_hottest_images(
        self, monkeypatch
    ):
        """At 8x4 seed 0 the storm registers 30 images but draws from 32:
        the hoard map must follow the population that drew the trace."""
        built = []
        build = storm_timeline.build_coordinator

        def keep(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(storm_timeline, "build_coordinator", keep)
        storm_timeline.run_placement(policy="top_k", nodes=8, vms_per_node=4)
        (coordinator,) = built
        fleet_wide = {
            image
            for image, holders in coordinator.assignments.items()
            if len(holders) == 8
        }
        config = StormConfig(n_nodes=8, vms_per_node=4, seed=0)
        arrivals = storm_arrivals(config, catalog_at(config.scale))
        assert arrivals.n_registered < arrivals.population.n_images
        popularity = arrivals.population.expected_popularity()
        hottest = np.argsort(
            -popularity[: arrivals.n_registered], kind="stable"
        )
        assert fleet_wide == {int(i) for i in hottest[:8]}


class TestSweepDeterminism:
    def _spec(self):
        return SweepSpec.from_grid(
            "placement",
            "policy=full,top_k seed=0,1",
            {"nodes": 4, "vms_per_node": 1},
        )

    def test_workers_do_not_change_bytes(self):
        serial = run_sweep(self._spec(), workers=1, scale=4096.0)
        parallel = run_sweep(self._spec(), workers=2, scale=4096.0)
        assert dumps_canonical(serial.to_dict()) == dumps_canonical(
            parallel.to_dict()
        )

    def test_summary_aggregates_placement_metrics(self):
        result = run_sweep(self._spec(), workers=1, scale=4096.0)
        summary = result.to_dict()["summary"]
        assert "placement.hoarded_bytes" in summary
        assert "placement.hit_rate" in summary
        # grouped per policy, aggregated across the two seeds
        groups = summary["placement.hoarded_bytes"]
        assert all(stats["n"] == 2 for stats in groups.values())
        assert len(groups) == 2
