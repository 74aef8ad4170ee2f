"""The benchmark's workloads: inputs from a seed, the job, and its checks.

Each workload is a batch job. :meth:`inputs` makes the job's configs from
the base seed before timing starts; :meth:`run` is the timed job and
returns the canonical report dicts; :meth:`account` counts the operations
attempted (from the inputs) and completed (from the reports, and from the
registrations ``layers.COMPLETED`` saw return), checks the model's
invariants and extracts the simulated statistics that must repeat bit for
bit. The program's entry points are called through their modules, so the
probes in ``layers.py`` see these calls too.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass

import repro.common.report as report
import repro.sweep as sweep
import repro.workload as workload
from repro.common.rng import stream as rng_stream
from repro.sweep.spec import SweepSpec
from repro.vmi import DatasetConfig, LazyImageCatalog

#: sha256 of each full-size workload's canonical reports at base seed 0
PINNED = {
    "storm-64x8": "b5b5378e5c16ad3da33a7fdc246d1f466b8c30cd6eee0e4eace6bddb9ec1b2f6",
    "churn-sweep": "d927c76937d488d153525d592643061e46df7536233b0c9ec19cac3a2cc899bb",
}


def digest(reports: list[dict]) -> str:
    """sha256 of the job's canonical reports, one per line."""
    text = "\n".join(report.dumps_canonical(each) for each in reports)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _zero_sim() -> dict[str, float]:
    return dict.fromkeys(
        (
            "workload.boots", "workload.cache_hits", "zfs.arc.t1_fraction",
            "zfs.arc.t2_fraction", "zfs.arc.miss_fraction",
            "workload.boot_latency_p95_sim_s", "core.registrations",
            "core.full_replications", "net.resync_bytes",
        ),
        0,
    )


@dataclass(frozen=True)
class StormJob:
    """Flash crowds, both sides, one per seed, each with a fresh catalog."""

    nodes: int
    vms_per_node: int
    n_seeds: int

    def inputs(self, base_seed: int) -> list:
        return [
            workload.StormConfig(
                n_nodes=self.nodes, vms_per_node=self.vms_per_node, seed=seed
            )
            for seed in range(base_seed, base_seed + self.n_seeds)
        ]

    def run(self, configs: list) -> list[dict]:
        return [workload.boot_storm(config).to_dict() for config in configs]

    def account(self, configs: list, reports: list[dict], completed_calls):
        boots = self.nodes * self.vms_per_node
        # only the Squirrel side registers, before its storm
        registrations = sum(
            workload.storm_image_count(
                config, LazyImageCatalog(DatasetConfig(scale=config.scale))
            )
            for config in configs
        )
        attempted = 2 * boots * len(configs) + registrations
        errors: list[str] = []
        completed = completed_calls["core.register"]
        arc = {"arc_t1_hits": 0, "arc_t2_hits": 0, "arc_misses": 0}
        for config, report in zip(configs, reports):
            for name in ("squirrel", "baseline"):
                side = report[name]
                completed += side["boots"]
                if side["boots"] != boots:
                    errors.append(
                        f"seed {config.seed} {name}: {side['boots']} of "
                        f"{boots} boots"
                    )
                if side["latency"]["count"] != side["boots"]:
                    errors.append(f"seed {config.seed} {name}: latency count")
            warm, cold = report["squirrel"], report["baseline"]
            if warm["cache_hits"] != warm["boots"] or cold["cache_hits"] != 0:
                errors.append(f"seed {config.seed}: cache hits off")
            for key in arc:
                arc[key] += warm["attribution"]["arc"][key]
        lookups = sum(arc.values())
        sim = _zero_sim()
        sim.update(
            {
                "workload.boots": sum(
                    r[n]["boots"] for r in reports for n in ("squirrel", "baseline")
                ),
                "workload.cache_hits": sum(
                    r["squirrel"]["cache_hits"] for r in reports
                ),
                "zfs.arc.t1_fraction": arc["arc_t1_hits"] / lookups,
                "zfs.arc.t2_fraction": arc["arc_t2_hits"] / lookups,
                "zfs.arc.miss_fraction": arc["arc_misses"] / lookups,
                "workload.boot_latency_p95_sim_s": statistics.fmean(
                    r["squirrel"]["latency"]["p95"] for r in reports
                ),
                "core.registrations": registrations,
            }
        )
        return attempted, completed, errors, sim


@dataclass(frozen=True)
class ChurnSweepJob:
    """A seed-gridded ``churn`` sweep, run inline (one worker)."""

    n_seeds: int
    nodes: int
    days: float
    registrations_per_day: float

    def inputs(self, base_seed: int) -> SweepSpec:
        return SweepSpec(
            "churn",
            {"seed": list(range(base_seed, base_seed + self.n_seeds))},
            {
                "nodes": self.nodes,
                "days": self.days,
                "registrations_per_day": self.registrations_per_day,
            },
        )

    def run(self, spec: SweepSpec) -> list[dict]:
        return [sweep.run_sweep(spec, workers=1, scale=512).to_dict()]

    def account(self, spec: SweepSpec, reports: list[dict], completed_calls):
        (merged,) = reports
        points = [point["result"]["report"] for point in merged["points"]]
        errors: list[str] = []
        if len(points) != self.n_seeds:
            errors.append(f"{len(points)} of {self.n_seeds} sweep points")
        # registrations: the arrivals register_churn draws first from the
        # point's stream; catch-ups: one per downtime window that started
        scheduled = sum(
            len(workload.poisson_arrivals(
                rng_stream("workload-churn", point.params["seed"]),
                rate_per_s=point.params["registrations_per_day"] / workload.DAY_S,
                horizon_s=point.params["days"] * workload.DAY_S,
            ))
            for point in spec.expand()
        )
        downtimes = sum(p["summary"]["counters"]["downtimes"] for p in points)
        for i, point in enumerate(points):
            if point["register_latency"]["count"] != point["registrations"]:
                errors.append(f"point {i}: registration latency count")
            # every catch-up is timed, including those with nothing to move
            if point["resync_latency"]["count"] < point["resyncs"]:
                errors.append(f"point {i}: resync latency count")
        registered = sum(p["registrations"] for p in points)
        if completed_calls["core.register"] != registered:
            errors.append(
                f"{completed_calls['core.register']} registrations returned, "
                f"{registered} reported"
            )
        attempted = scheduled + downtimes
        completed = registered + sum(
            p["resync_latency"]["count"] for p in points
        )
        sim = _zero_sim()
        sim.update(
            {
                "core.registrations": sum(p["registrations"] for p in points),
                "core.full_replications": sum(
                    p["full_replications"] for p in points
                ),
                "net.resync_bytes": sum(p["resync_bytes"] for p in points),
            }
        )
        return attempted, completed, errors, sim


#: workload name -> (full-size job, toy-size job for the harness test)
WORKLOADS = {
    "storm-64x8": (StormJob(64, 8, 4), StormJob(4, 2, 2)),
    "churn-sweep": (ChurnSweepJob(4, 16, 28.0, 12.0), ChurnSweepJob(2, 4, 3.0, 12.0)),
}
