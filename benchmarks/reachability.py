"""Function-reachability probe: which functions under ``src/repro`` no run reaches.

Runs a fixed set of CLI commands and example scripts in this process under
a global trace hook that records every code object entered, then lists the
functions and methods of ``src/repro`` whose code never ran, with their
body-line counts. Code only tests reach shows up here; so does a
production fork no configuration drives.

    PYTHONPATH=src python benchmarks/reachability.py            # full probe
    PYTHONPATH=src python benchmarks/reachability.py \\
        --command "storm --nodes 2 --vms-per-node 1 --seed 0 --json" \\
        --no-examples --out /tmp/reach.txt                       # one command

The full probe takes several minutes (``all --scale 2048`` dominates) and
writes ``benchmarks/results/reachability.txt``. Commands run in order in one
process; ``{tmp}`` in a command names a scratch directory shared by all of
them, ``> FILE`` sends the command's stdout to ``{tmp}/FILE`` so later
commands can read it, and a leading ``!`` marks a gate expected to fail (a
diff of a faulted run against a clean one). Sweeps run with ``--workers 1``:
points in worker processes would run untraced.

Counting rules:

* a function is every ``def`` (methods and nested functions included;
  lambdas and comprehensions are not);
* a stub whose body is ``...`` (a Protocol method) is not counted;
* body lines run from the first statement after the docstring to the
  function's last line.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import shlex
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
DEFAULT_OUT = REPO / "benchmarks" / "results" / "reachability.txt"

_FAULTS = "crash:compute1@5+30,flap:compute2@8+10,brick:storage0@3+15"

#: ``python -m repro`` argument strings, run in order
COMMANDS = (
    "list",
    "all --scale 2048",
    f"storm --nodes 16 --vms-per-node 4 --seed 3 --faults {_FAULTS} "
    "--trace {tmp}/faulted.json --metrics {tmp}/storm-metrics "
    "--json > faulted-report.json",
    "storm --nodes 16 --vms-per-node 4 --seed 3 --progress "
    "--trace {tmp}/clean.json --json > clean-report.json",
    "recovery --nodes 8 --vms-per-node 2 --json",
    "placement --nodes 8 --vms-per-node 2 --policy top_k --transport swarm "
    "--faults crash:compute1@5+30",
    "placement --nodes 8 --vms-per-node 2 --policy zipf_weighted "
    "--transport unicast --adopt-budget-mb 64 --json",
    "placement --nodes 8 --vms-per-node 2 --policy tenant_affine "
    "--transport multicast",
    # one holder per image and the whole fleet down: origin fallbacks
    "placement --nodes 4 --vms-per-node 4 --policy top_k --top-k 2 "
    "--replicas 1 --faults crash:compute0@1+60,crash:compute1@1+60,"
    "crash:compute2@1+60,crash:compute3@1+60",
    "shards --nodes 8 --vms-per-node 2 --shards 2 --faults brick:storage0@3+15",
    "shards --nodes 8 --vms-per-node 2 --shards 2 --grouping similarity "
    "--quota-mb 64",
    # past the 64-node metric detail cap: the "_fleet" gauges, sharded
    "shards --nodes 70 --vms-per-node 1 --shards 2 --faults crash:compute1@5+30",
    "day --nodes 4 --boots 40 --tenants 4 --faults crash:compute1@600+900",
    "churn --nodes 4 --days 1",
    # long enough to scrape past the 4,096-row metrics ring
    "churn --nodes 4 --days 90",
    'sweep churn --grid "seed=0,1" --set days=0.5 --workers 1 '
    "--out {tmp}/churn-store",
    'sweep placement --grid "policy=full,top_k" --set nodes=4 '
    "--set vms_per_node=1 --workers 1 --json --out {tmp}/placement-store",
    "metrics {tmp}/storm-metrics",
    "metrics {tmp}/churn-store",
    "trace analyze {tmp}/faulted.json",
    "trace flame {tmp}/faulted.json --out {tmp}/faulted.folded",
    "! trace diff {tmp}/clean.json {tmp}/faulted.json --json",
    "slo check slo/storm.toml {tmp}/clean-report.json",
    "! slo diff {tmp}/clean-report.json {tmp}/faulted-report.json",
)

#: the example scripts CI runs, in its order
EXAMPLES = (
    "partial_hoarding.py",
    "faulted_storm.py",
    "boot_storm.py",
    "cloud_week.py",
    "quickstart.py",
    "offline_propagation.py",
    "scatter_hoarding_analysis.py",
    "windows_what_if.py",
)


def _statements(node: ast.FunctionDef) -> list[ast.stmt]:
    """The function's body without its docstring."""
    body = node.body
    if (
        isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1:]
    return body


def _is_stub(statements: list[ast.stmt]) -> bool:
    return (
        len(statements) == 1
        and isinstance(statements[0], ast.Expr)
        and isinstance(statements[0].value, ast.Constant)
        and statements[0].value.value is Ellipsis
    )


def source_functions(root: Path = SRC) -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (module-relative qualname, body lines)`` for
    every counted ``def`` under ``root``. The first line is the first
    decorator's, as in a code object's ``co_firstlineno``."""
    found: dict[tuple[str, int], tuple[str, int]] = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(root.parent).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    statements = _statements(child)
                    if not _is_stub(statements):
                        first = min(
                            [child.lineno]
                            + [dec.lineno for dec in child.decorator_list]
                        )
                        lines = (
                            child.end_lineno - statements[0].lineno + 1
                            if statements else 0
                        )
                        found[(str(path), first)] = (
                            f"{rel}::{prefix}{child.name}", lines
                        )
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def _split(command: str, tmp: str) -> tuple[list[str], str | None, bool]:
    """``(argv, stdout path or None, whether it must exit non-zero)``."""
    argv = shlex.split(command.replace("{tmp}", tmp))
    must_fail = argv[0] == "!"
    argv = argv[must_fail:]
    if ">" in argv:
        at = argv.index(">")
        return argv[:at], os.path.join(tmp, argv[at + 1]), must_fail
    return argv, None, must_fail


def _exit_status(call) -> int | str | None:
    """``call()``'s exit status (``None`` when it returns no int), or the
    exception it raised: the probe reports a failing command and goes on."""
    try:
        status = call()
    except SystemExit as exit_:
        return exit_.code
    except Exception as error:
        return f"{type(error).__name__}: {error}"
    return status if isinstance(status, int) else None


def run_probe(commands, examples) -> tuple[set[tuple[str, int]], list[str], float]:
    """Run ``commands`` and ``examples`` under the trace hook.

    Returns the ``(file, first line)`` of every code object entered, the
    commands whose exit status was not the expected one (or that raised),
    and the wall seconds spent.
    """
    seen: dict[int, object] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code  # kept alive, so its id is never reused

    failed: list[str] = []
    started = time.perf_counter()
    saved_argv = sys.argv
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp, \
            contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(hook)
        threading.settrace(hook)
        try:
            from repro.__main__ import main

            for command in commands:
                argv, stdout_to, must_fail = _split(command, tmp)
                sink = open(stdout_to, "w") if stdout_to else io.StringIO()
                with sink, contextlib.redirect_stdout(sink):
                    status = _exit_status(lambda: main(argv))
                if (status in (0, None)) == must_fail:
                    failed.append(f"{command} -> {status}")
            for name in examples:
                path = str(REPO / "examples" / name)
                sys.argv = [path]
                with contextlib.redirect_stdout(io.StringIO()):
                    status = _exit_status(
                        lambda: runpy.run_path(path, run_name="__main__")
                    )
                if status not in (0, None):
                    failed.append(f"examples/{name} -> {status}")
        finally:
            sys.settrace(None)
            threading.settrace(None)
            sys.argv = saved_argv
    reached = {
        (os.path.realpath(code.co_filename), code.co_firstlineno)
        for code in seen.values()
    }
    return reached, failed, time.perf_counter() - started


def unreached_report(reached, commands, examples, failed, wall_s) -> str:
    """The probe's text report: header, totals, one line per unreached
    function (body lines, then ``path::qualname``)."""
    functions = source_functions()
    missing = sorted(
        (name, lines)
        for key, (name, lines) in functions.items()
        if key not in reached
    )
    total_lines = sum(lines for _name, lines in functions.values())
    missing_lines = sum(lines for _name, lines in missing)
    header = [
        "# Functions under src/repro that no probed run reaches.",
        "# Regenerate: PYTHONPATH=src python benchmarks/reachability.py",
        "# commands (python -m repro ...):",
        *(f"#   {command}" for command in commands),
        "# examples:",
        *(f"#   examples/{name}" for name in examples),
        f"# failed: {'; '.join(failed) if failed else 'none'}",
        f"# probe wall: {wall_s:.0f} s",
    ]
    summary = (
        f"unreached {len(missing)} of {len(functions)} functions "
        f"({missing_lines} of {total_lines} body lines)"
    )
    rows = [f"{lines:>5}  {name}" for name, lines in missing]
    return "\n".join(header + [summary, "", " body  function", *rows]) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--command", action="append", default=None, metavar="ARGS",
        help="probe this 'python -m repro' argument string instead of the "
        "built-in list (repeatable)",
    )
    parser.add_argument(
        "--no-examples", action="store_true", help="skip the example scripts"
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="report path"
    )
    args = parser.parse_args(argv)
    commands = tuple(args.command) if args.command else COMMANDS
    examples = () if args.no_examples else EXAMPLES
    out = args.out.resolve()
    os.chdir(REPO)  # commands name repo files (slo/storm.toml) relatively
    reached, failed, wall_s = run_probe(commands, examples)
    report = unreached_report(reached, commands, examples, failed, wall_s)
    out.write_text(report)
    print(next(line for line in report.splitlines() if line.startswith("unreached")))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
