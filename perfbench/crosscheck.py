"""Cross-check the span layers against a cProfile package split.

    python3 perfbench/crosscheck.py

Runs one ``storm-64x8`` job at base seed 0 once under cProfile in this process (self time grouped by
``repro`` package; NumPy and builtins apart) and once traced in a fresh
process (span self time grouped by layer, the first part of the span
name), and prints both as shares of their own total. cProfile slows every
call, so only the proportions compare.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from collections import Counter

import run

WORKLOAD = "storm-64x8"
SEED = 0


def profile_split(workload: str, seed: int) -> Counter:
    sys.path.insert(0, str(run.SRC))
    import workloads

    job = workloads.WORKLOADS[workload][0]
    inputs = job.inputs(seed)
    profiler = cProfile.Profile()
    profiler.runcall(job.run, inputs)
    split: Counter = Counter()
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        if "/repro/" in filename:
            package = filename.split("/repro/")[1].split("/")[0]
        elif "numpy" in filename:
            package = "(numpy)"
        elif filename == "~":
            package = "(builtins)"
        else:
            package = "(other)"
        split[package] += row[2]  # tottime
    return split


def span_split(workload: str, seed: int) -> Counter:
    job = run._job(workload, seed, traced=True, toy=False, span_log=None)
    split: Counter = Counter()
    for name, row in job["table"].items():
        split[name.split(".")[0]] += row["self_s"]
    split["(unattributed)"] = job["layers"]["trace.unattributed_s"]
    return split


def main() -> int:
    spans = span_split(WORKLOAD, SEED)
    profile = profile_split(WORKLOAD, SEED)
    span_total, profile_total = sum(spans.values()), sum(profile.values())
    print(f"{'layer':<16} {'span self %':>12}   {'package':<16} {'cProfile %':>11}")
    left = spans.most_common()
    right = profile.most_common()
    for i in range(max(len(left), len(right))):
        l_name, l_s = left[i] if i < len(left) else ("", None)
        r_name, r_s = right[i] if i < len(right) else ("", None)
        l_pct = f"{100 * l_s / span_total:11.1f}%" if l_s is not None else ""
        r_pct = f"{100 * r_s / profile_total:10.1f}%" if r_s is not None else ""
        print(f"{l_name:<16} {l_pct:>12}   {r_name:<16} {r_pct:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
