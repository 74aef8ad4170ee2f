"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest -q perfbench/test_harness.py

Each workload runs at toy size (two 4x2 storms, a 2-seed 3-day churn
sweep) untraced and traced. The test checks that every metric of
``BENCHMARK.json`` is printed with its unit, that digests repeat across
runs, that traced jobs reproduce the untraced digest, and that the span
table reconciles with the traced wall time.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

sys.path.insert(0, str(HERE))
import layers  # noqa: E402


def _bench(tmp_path: Path, workload: str, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--toy", "--out", str(tmp_path)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return done


def _digest(stdout: str) -> str:
    return re.search(r"digest ([0-9a-f]{64})", stdout).group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_digests_and_trace(tmp_path, workload):
    plain = _bench(tmp_path, workload, 0)
    traced = _bench(tmp_path, workload, 1)
    assert plain.returncode == 0 and traced.returncode == 0
    for done, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
    # one untraced + one traced job in the traced run, both checked
    # against the same digest, which also repeats across invocations
    assert _digest(plain.stdout) == _digest(traced.stdout)
    spans = list(tmp_path.glob(f"spans-{workload}-seed3-*.json"))
    assert len(spans) == 1
    log = json.loads(spans[0].read_text(encoding="utf-8"))
    assert log["columns"] == ["name", "start_s", "end_s", "parent"]
    assert log["spans"]


def test_fails_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench(tmp_path, WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_verdict_fails_every_op_of_a_wrong_job():
    import run

    job = {"pinned": None, "digest": "a", "errors": [], "sim": {"x": 1},
           "ops_attempted": 5, "ops_completed": 5}
    assert run._verdict([job, dict(job)]) == (True, 10, 0)
    assert run._verdict([job, dict(job, ops_completed=4)]) == (False, 10, 1)
    assert run._verdict([job, dict(job, digest="b")]) == (False, 10, 5)
    assert run._verdict([job, dict(job, errors=["x"])]) == (False, 10, 5)
    assert run._verdict([dict(job, pinned="b"), job]) == (False, 10, 10)
    assert run._verdict([job, dict(job, sim={"x": 2})]) == (False, 10, 10)


def _nest(log: layers.SpanLog):
    outer = log.open("a")
    inner = log.open("b")
    log.close(inner)
    again = log.open("a")  # recursion: counted once in "s"
    log.close(again)
    log.close(outer)


def test_span_table_reconciles():
    log = layers.SpanLog()
    t0 = layers.clock()
    _nest(log)
    _nest(log)
    wall = layers.clock() - t0
    table = log.table()
    assert table["a"]["calls"] == 4 and table["b"]["calls"] == 2
    roots = [i for i, parent in enumerate(log.parent) if parent < 0]
    outer = sum(log.end[i] - log.start[i] for i in roots)
    assert table["a"]["s"] == pytest.approx(outer)
    spanned = sum(row["self_s"] for row in table.values())
    assert spanned == pytest.approx(outer)
    unattributed = layers.layer_metrics(log, wall)["trace.unattributed_s"]
    assert spanned + unattributed == pytest.approx(wall)
    assert unattributed >= 0


def test_engine_events_are_counted_per_run():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.sim.engine import Engine

    def ticks(engine, n):
        for _ in range(n):
            yield engine.timeout(1.0)

    log = layers.SpanLog()
    expected = 0
    with layers.instrumented(layers.PhaseClock(), log) as completed:
        for _ in range(3):  # freed engines may leave their address to the next
            engine = Engine()
            engine.process(ticks(engine, 5))
            engine.run(until=2.5)
            engine.run()  # the same engine again: only the new events count
            expected += engine.events_processed
            del engine
    assert log.counts["sim.engine.events"] == expected > 0
    assert completed["core.register"] == 0


def test_instrumentation_restores_originals():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.common import hashing
    from repro.sim.engine import Engine

    before = (hashing.derive_seed, Engine.run)
    with layers.instrumented(layers.PhaseClock(), layers.SpanLog()):
        assert hashing.derive_seed is not before[0]
    assert (hashing.derive_seed, Engine.run) == before
