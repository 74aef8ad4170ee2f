"""Smoke test of the function-reachability probe (benchmarks/reachability.py).

One tiny storm through the probe: the registration path is reported
reached, and no function deleted for want of a run that reaches it is back.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PROBE = REPO / "benchmarks" / "reachability.py"

#: functions no probed run reached, deleted with their exports
DELETED = (
    "repro/analysis/curvefit.py::SelectionResult.winner_name",
    "repro/analysis/curvefit.py::select_best_curve",
    "repro/boot/qcow2.py::Qcow2Image.allocated_bytes",
    "repro/boot/qcow2.py::Qcow2Image.allocated_clusters",
    "repro/boot/qcow2.py::Qcow2Image.is_warm_for",
    "repro/boot/qcow2.py::Qcow2Image.warm_fraction",
    "repro/boot/qcow2.py::Qcow2Image.write_range",
    "repro/common/units.py::parse_size",
    "repro/core/squirrel.py::RegistrationRecord.workflow_seconds",
    "repro/faults/plan.py::FaultPlan.of_kind",
    "repro/placement/popularity.py::fleet_popularity",
    "repro/placement/popularity.py::observed_popularity",
    "repro/placement/popularity.py::zipf_weights",
    "repro/sim/timeline.py::Timeline.render",
    "repro/workload/timed.py::TimedSquirrel._seed_flows",
    "repro/zfs/pool.py::PoolStats.disk_used_bytes",
    "repro/zfs/pool.py::PoolStats.memory_used_bytes",
    "repro/zfs/pool.py::ZPool.current_txg",
    "repro/zfs/pool.py::ZPool.ddt_entries_total",
    "repro/zfs/pool.py::ZPool.describe",
    "repro/zfs/pool.py::ZPool.stats",
)


def load_probe():
    spec = importlib.util.spec_from_file_location("reachability", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_over_one_tiny_storm(tmp_path):
    out = tmp_path / "reachability.txt"
    subprocess.run(
        [
            sys.executable, str(PROBE),
            "--command", "storm --nodes 2 --vms-per-node 1 --seed 0 --json",
            "--no-examples", "--out", str(out),
        ],
        check=True, capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    report = out.read_text()
    assert "# failed: none" in report
    unreached = {
        line.split()[1] for line in report.splitlines()
        if line[:5].strip().isdigit()
    }
    counted = {name for name, _lines in load_probe().source_functions().values()}
    register = "repro/core/squirrel.py::Squirrel.register"
    assert register in counted and register not in unreached
    # the storm leaves most of the tree untouched: the probe does report
    assert "repro/__main__.py::_sweep_command" in unreached
    for name in DELETED:
        assert name not in counted
        assert name not in report
