"""Only the curve fits load scipy.

scipy is most of the package's import time and memory, and only
``fit_mmf`` uses it, so it is imported inside that fit. A fresh
interpreter that imports the CLI, sweeps, workloads and experiments and
runs a small flash crowd must finish without scipy in ``sys.modules``;
``tests/test_analysis_curvefit.py`` checks that the fits still fit.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import sys
import repro.__main__, repro.sweep, repro.workload, repro.experiments
from repro.workload import StormConfig, boot_storm

report = boot_storm(StormConfig(n_nodes=4, vms_per_node=2))
assert report.squirrel.boots == 8, report.squirrel.boots
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""


def test_runs_without_fits_never_import_scipy():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, path]))}
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr

