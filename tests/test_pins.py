"""Byte pins of whole experiment results and of the storm family's CLI surface.

Each case runs one small experiment and pins the sha256 of its canonical
result (reports, Timeline summaries, metric instrument snapshots and
sampled series together), so any refactor of the timed rig that changes
a single recorded byte fails here. The cases cover the instrumented
surfaces between them: placement redirects, adoptions and reseeds under a
crash; full-replication placement and the one-shard storm (the two
byte-identity anchors of the storm); the faulted storm; the diurnal day;
the node-detail cap's ``_other``/``_fleet`` children, unsharded and
(under a crash) sharded; registration churn under every fault kind
(including a skipped overlap); a churn long enough to wrap the metrics
ring; and the sharded storm.

The trace pin hashes the Chrome trace of a placement storm under a peer
crash and a brick failure: the span args (``replica``, ``degraded``,
``role``, ``interrupted``) that no result digest covers.

The figure pins hash the canonical result of every figure and table that
reads the image catalog's spec table (sizes, census, scale-up), all run
through one shared context at scale 1/2048 so the streams, block views
and calibrated estimators are built once for the eleven.

The surface pins hash what ``python -m repro <id> --help`` and the sweep
runner read from the registry for the four storm-shaped experiments:
title, sweep metrics and every declared parameter.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.common.report import dumps_canonical
from repro.experiments import registry
from repro.experiments.context import ExperimentConfig, ExperimentContext
from repro.workload.timed import METRICS_NODE_DETAIL

#: a crash (plus an overlapping one that is skipped), a flap and a brick
#: failure inside a four-day churn horizon
CHURN_FAULTS = (
    "crash:compute1@3600+7200,crash:compute1@5000+100,"
    "flap:compute2@7200+600,brick:storage0@100+3600"
)


def _run(exp_id: str, **values):
    """Run a registered experiment the way the CLI does: validated params
    (declared defaults filled in) and the default context."""
    exp = registry.get(exp_id)
    return exp.run(None, **exp.validate(values))


CASES = {
    # 15 peer redirects and 15 adoptions at seed 0
    "placement": (
        lambda: _run(
            "placement", policy="top_k", nodes=8, vms_per_node=4,
            adopt_budget_mb=64, faults="crash:compute1@5+30",
        ),
        "610f1310c2a7e3a4617adfe58190c1604237b373189ca4910d9dbf8115b2a4ea",
    ),
    "placement-full": (
        lambda: _run("placement", policy="full", nodes=8, vms_per_node=4),
        "19a81e50b149c0727c2bc27b5bf6281a8ff542b6c11825237a1253f5675e504a",
    ),
    "recovery": (
        lambda: _run("recovery", nodes=8, vms_per_node=4),
        "b3c93c8c9817d802dcb48bec582ba55ac2dbbf530ce3c286e6f768cbde4ddcee",
    ),
    "day": (
        lambda: _run("day", nodes=4, boots=200),
        "6a4fc4a410f29165c7efaf4202ffa0a1bb40e521839fac70782858069682313f",
    ),
    "capped-storm": (
        lambda: _run("storm", nodes=METRICS_NODE_DETAIL + 6, vms_per_node=1),
        "73eeba10c1a3b6767a077a02c0202eef078da67aaf0a0bd3cd021a90bd838368",
    ),
    # past the detail cap on a sharded rig: the per-shard "_fleet" gauges,
    # and a crash that wipes every ARC slice of its node
    "capped-shards": (
        lambda: _run(
            "shards", nodes=METRICS_NODE_DETAIL + 6, vms_per_node=1,
            shards=2, faults="crash:compute1@5+30",
        ),
        "be2e04c71b6e9dad96f482f64737bc2570b46a060f80cfc9986fef3b68cdf75e",
    ),
    "churn": (
        lambda: _run("churn", nodes=4, days=4.0, faults=CHURN_FAULTS),
        "c5c9c6ef38bbd12eebd79d21f9c64d4e36e4c4f2fe6422837614419802623e70",
    ),
    # a 90-day churn scrapes past the metrics ring: its longest series
    # holds the ring's 4,096 samples and records 226 dropped
    "churn-ring": (
        lambda: _run("churn", nodes=4, days=90),
        "1bf2d01cf4d63dbe13d44cf2abdabd7f05c3378108a59f44fbf310a090a7fe8f",
    ),
    # defaults: 8x4, seed 0, shards=4, tenant grouping, quota 256 MiB
    "shards": (
        lambda: _run("shards"),
        "43ff9b4c0ddc823d3c9e7790fe1097d4ff5637af5c507c903d0aa02ad839f526",
    ),
    "shards-one": (
        lambda: _run("shards", shards=1),
        "df7007a307384b1e99cb8c029414dd6aeaa6f2e123a815a02a3c569c0e6cc643",
    ),
}

#: sha256 of each figure's canonical result at scale 1/2048 (aliases run
#: their target, so fig15/fig17 repeat fig14/fig16)
FIGURES = {
    "tab01": "82836fc73ed8af77d939c7d03a4776a0f3ddc7d204fb6f0930a4981ee5f7593b",
    "tab02": "21210e25fa6833f2ffc749b8e87f44dde48e5579e7c47d3b3d622215f865de07",
    "fig08": "6a4c6e6479d386188290da28c0dadf93f67a210d1e1d7fb4a34f9226b01a3483",
    "fig09": "85fa0ba06e28ffdb21763f1fb967aa5bc7adc7ad8a38b5c8a275a2500ba34c53",
    "fig10": "3571a1c338af8a8767a5059cd3c870c8ca9a780af8f5002e32dad1bc4f64a37e",
    "fig13": "04e81dff5e643a7c27ff239ea97187e5160432937c0665a934730c7bc009bd8b",
    "fig14": "e2bb443460bcbaab12616d47d04c4ea8d5fcfc0a89733d8b9f3380a98e4d19fa",
    "fig15": "e2bb443460bcbaab12616d47d04c4ea8d5fcfc0a89733d8b9f3380a98e4d19fa",
    "fig16": "a67f74f915455df5ed9ce536486f213124fcf33ba23227827c736852d39b1b25",
    "fig17": "a67f74f915455df5ed9ce536486f213124fcf33ba23227827c736852d39b1b25",
    "fig18": "cb0d71d4d6dc7c9b16ebc345feec34f54b971693aa468862bef1733b1064f4c8",
}

#: a holder crash while redirects stream from it, plus a brick failure
#: while cold reads stream from that brick
TRACE_FAULTS = "crash:compute2@8+30,brick:storage0@3+20"
TRACE_DIGEST = "27b0224eea2fcb623c020661a1c0e2a53ec7de428bc4cf7709d291a3350223be"

#: sha256 of each storm-shaped experiment's registry surface
SURFACES = {
    "storm": "87b164e986c57c8eb3ae7be9e5db6b0d23e911f0c194e6709fcb3d0a280d010a",
    "recovery": "75360a258fd07eedfe241c2e8ec2056ff83521a405faa0f7cc5e7965220d1937",
    "placement": "94ccd764bddba67044d36a6ac2072113c258180f5b3086fe9f202002e801f74e",
    "shards": "9326b4e79dc108b8365c99c39aaa7bb22c4e0b7cc50d828327ee43aa16d4e87f",
}


def _surface(exp_id: str) -> str:
    exp = registry.get(exp_id)
    return dumps_canonical(
        {
            "title": exp.title,
            "metrics": list(exp.metrics),
            "params": [
                {
                    "name": spec.name,
                    "type": spec.type.__name__,
                    "default": spec.default,
                    "help": spec.help,
                    "gridable": spec.gridable,
                    "choices": (
                        None if spec.choices is None else list(spec.choices)
                    ),
                }
                for spec in exp.params
            ],
        }
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestResultDigests:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_canonical_result_is_byte_stable(self, case):
        run, expected = CASES[case]
        assert _sha256(dumps_canonical(run().to_dict())) == expected


@pytest.fixture(scope="module")
def figure_context():
    return ExperimentContext(ExperimentConfig(scale=1 / 2048))


class TestFigureDigests:
    @pytest.mark.parametrize("exp_id", list(FIGURES))
    def test_canonical_figure_is_byte_stable(self, exp_id, figure_context):
        exp = registry.get(exp_id)
        result = exp.run(figure_context, **exp.validate({}))
        assert _sha256(dumps_canonical(result.to_dict())) == FIGURES[exp_id]


class TestTraceDigest:
    def test_faulted_placement_trace_is_byte_stable(self, tmp_path):
        path = tmp_path / "trace.json"
        result = _run(
            "placement", policy="top_k", nodes=8, vms_per_node=4,
            faults=TRACE_FAULTS, trace=str(path),
        )
        report = result.report
        assert report.squirrel.boots == report.baseline.boots == 32
        events = json.loads(path.read_text())["traceEvents"]
        killed = Counter(
            event["args"].get("interrupted")
            for event in events
            if event["ph"] == "X"
        )
        # a holder crash preempts the redirects streaming from it
        assert killed["peer-crash"] > 0
        assert killed["brick-failure"] > 0
        assert _sha256(path.read_text()) == TRACE_DIGEST


class TestStormSurface:
    @pytest.mark.parametrize("exp_id", sorted(SURFACES))
    def test_registry_surface_is_byte_stable(self, exp_id):
        assert _sha256(_surface(exp_id)) == SURFACES[exp_id]

    def test_storm_registers_first(self):
        """``python -m repro list`` and the CLI's first-wins flag help both
        follow registration order; the storm leads both."""
        assert next(iter(registry.all_experiments())) == "storm"
