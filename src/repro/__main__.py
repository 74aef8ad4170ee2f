"""Command-line experiment runner.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig02                # run one experiment, print the
                                         # paper-style table/series
    python -m repro all                  # run everything
    python -m repro fig08 --scale 64     # dataset scale 1/64
    python -m repro fig02 --quick 8      # keep every 8th image (smoke run)
    python -m repro storm --json         # machine-readable report
    python -m repro storm --faults "crash:compute1@40+45,flap:compute3@20+15"
    python -m repro recovery             # faulted storm with the default plan
    python -m repro storm --trace storm.json   # Perfetto-loadable span trace
    python -m repro sweep storm --grid "nodes=16,32 seed=0..3" --workers 4
    python -m repro sweep storm --grid "seed=0..7" --manifest sweep.jsonl
    python -m repro sweep storm --grid "seed=0..7" --resume sweep.jsonl
    python -m repro storm --metrics runs/storm   # Prometheus + JSONL exports
    python -m repro metrics runs/storm           # rollups over a stored run
    python -m repro sweep churn --grid "seed=0..3" --store nightly
                                         # persist under benchmarks/results/
    python -m repro storm --progress     # live heartbeat on stderr
    python -m repro slo check slo/storm.toml report.json
    python -m repro slo diff old.json new.json --tolerance 5%
    python -m repro sweep storm --grid "seed=0..3" --store nightly --trace
                                         # + per-point traces/point-NNNN.json
    python -m repro trace analyze storm.json     # critical-path blame table
    python -m repro trace flame storm.json --out storm.folded --weight critical
    python -m repro trace diff old.json new.json --tolerance 5%

Experiments come from :mod:`repro.experiments.registry`: importing
:mod:`repro.experiments` registers every module's ``run`` function, and
this CLI is a thin loop over the registry — id resolution (including
aliases), rendering and ``--json`` all derive from it, and every
per-experiment flag (``--nodes``, ``--seed``, ``--faults``, ``--trace``,
``--fabric``, …) is generated from the experiment's declared
:class:`~repro.experiments.params.ParamSpec` entries rather than
hard-coded here. One :class:`ExperimentContext` is shared across the whole
invocation, so ``python -m repro all`` synthesises each dataset scale
once. ``python -m repro sweep`` fans a parameter grid across worker
processes via :mod:`repro.sweep`.

Every run/sweep invocation carries a :class:`~repro.obs.runtime.
RuntimeProfiler`: phase timers, engine throughput and RSS land on stderr
(one ``[runtime]`` line) and in ``runtime.json`` next to stored exports —
never inside the canonical stdout/report payloads, which stay
byte-identical with profiling on. ``--progress`` adds a live stderr
heartbeat; ``python -m repro slo check|diff`` turns reports into CI
gates (:mod:`repro.slo`).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .common.errors import ConfigError, ReproError
from .common.report import dumps_canonical
from .experiments import ExperimentConfig, ExperimentContext
from .experiments.context import environ_number, scale_of
from .experiments import registry
from .experiments.params import ParamSpec, parse_bool

#: registry-derived views, kept for backwards compatibility:
#: id -> (title, Experiment), and alias -> canonical id
EXPERIMENTS = {
    exp_id: (exp.title, exp) for exp_id, exp in registry.all_experiments().items()
}
ALIASES = registry.aliases()

#: how a ParamSpec type parses one CLI token
_ARG_PARSERS = {int: int, float: float, str: str, bool: parse_bool}


def _add_spec_flags(parser: argparse.ArgumentParser, specs) -> None:
    """Add one argparse flag per distinct ParamSpec name.

    Defaults are ``None`` ("not provided"): each experiment fills in its
    own declared default during validation, so ``--faults`` can default to
    no plan for ``storm`` but to the crash+flap plan for ``recovery``.
    """
    seen: dict[str, ParamSpec] = {}
    for spec in specs:
        if spec.name in seen:
            if seen[spec.name].type is not spec.type:
                raise ConfigError(
                    f"parameter {spec.name!r} declared with conflicting "
                    "types across experiments"
                )
            continue
        seen[spec.name] = spec
        parser.add_argument(
            spec.flag,
            dest=spec.name,
            type=_ARG_PARSERS[spec.type],
            default=None,
            metavar=spec.name.upper(),
            help=spec.help or None,
        )


def _provided(args: argparse.Namespace, specs) -> dict:
    """The param values the user actually passed, keyed by spec name."""
    values = {}
    for spec in specs:
        value = getattr(args, spec.name, None)
        if value is not None:
            values[spec.name] = value
    return values


def _list_experiments() -> int:
    """The ``list`` command."""
    for exp_id, exp in registry.all_experiments().items():
        print(f"{exp_id:8s} {exp.title}")
    print(
        "aliases:",
        ", ".join(f"{k}->{v}" for k, v in registry.aliases().items()),
    )
    return 0


def _union_specs() -> list[ParamSpec]:
    """Every declared ParamSpec across the registry, first wins per name."""
    specs: list[ParamSpec] = []
    seen: set[str] = set()
    for exp in registry.all_experiments().values():
        for spec in exp.params:
            if spec.name not in seen:
                seen.add(spec.name)
                specs.append(spec)
    return specs


def _run_command(argv: list[str]) -> int:
    """``python -m repro <experiment>|all [flags]``."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Squirrel (HPDC'14) reproduction experiments"
    )
    parser.add_argument("experiment", help="experiment id, 'list', 'all', or 'sweep'")
    parser.add_argument(
        "--scale", type=float, default=32, help="dataset scale denominator (default 32)"
    )
    parser.add_argument(
        "--quick", type=int, default=1, help="keep every N-th image (default 1)"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON on stdout (timings go to stderr)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live heartbeat on stderr (phase, %% of horizon, events/s, "
        "ETA); stdout is untouched",
    )
    union = _union_specs()
    _add_spec_flags(parser, union)
    args = parser.parse_args(argv)
    scale = scale_of(args.scale)

    experiments = registry.all_experiments()
    wanted = list(experiments) if args.experiment == "all" else [args.experiment]

    # Validate every id and every param set *before* running anything: a
    # late failure inside the loop would discard completed experiments.
    plan = []
    for name in wanted:
        try:
            exp = registry.get(name)
        except ConfigError:
            parser.error(f"unknown experiment {name!r}; try 'list'")
        provided = _provided(args, union)
        if args.experiment == "all":
            # route each flag only to the experiments declaring it
            declared = {spec.name for spec in exp.params}
            provided = {k: v for k, v in provided.items() if k in declared}
        try:
            params = exp.validate(provided)
        except ConfigError as error:
            parser.error(str(error))
        plan.append((exp, params))

    # export destinations fail up front too: a bad --metrics dir should not
    # surface after minutes of simulation
    from .metrics import ensure_export_dir

    for _exp, params in plan:
        if params.get("metrics"):
            try:
                ensure_export_dir(params["metrics"], flag="--metrics")
            except ConfigError as error:
                parser.error(str(error))

    ctx = ExperimentContext(
        ExperimentConfig(scale=scale, quick=max(1, args.quick))
    )
    from .obs import runtime as obs_runtime

    reporter = obs_runtime.ProgressReporter() if args.progress else None
    profiler = obs_runtime.RuntimeProfiler(progress=reporter)
    collected: dict[str, dict] = {}
    with obs_runtime.profiled(profiler):
        for exp, params in plan:
            started = time.perf_counter()
            with profiler.phase(f"{exp.exp_id}.run"):
                result = exp.run(ctx, **params)
            elapsed = time.perf_counter() - started
            if args.json:
                collected[exp.exp_id] = result.to_dict()
                print(f"[{exp.exp_id}: {elapsed:.1f}s]", file=sys.stderr)
            else:
                print(f"== {exp.title} ==")
                with profiler.phase(f"{exp.exp_id}.render"):
                    rendered = exp.render(result)
                print(rendered)
                print(f"[{elapsed:.1f}s]\n")
    if args.json:
        payload = collected if args.experiment == "all" else next(iter(collected.values()))
        print(dumps_canonical(payload))
    print(profiler.render(), file=sys.stderr)
    return 0


def _metrics_command(argv: list[str]) -> int:
    """``python -m repro metrics PATH``: rollups over stored exports."""
    from .metrics import render_rollups, summarize_path

    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="summarise stored metrics exports: peak link "
        "utilisation, ARC hit-rate curve, DDT RAM high-water, fault impact",
    )
    parser.add_argument(
        "path",
        help="a run directory written by --metrics DIR, a sweep result "
        "directory (--store/--out), or a report.json file",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the rollups as canonical JSON on stdout",
    )
    args = parser.parse_args(argv)
    try:
        rollups = summarize_path(args.path)
    except ConfigError as error:
        parser.error(str(error))
    if args.json:
        print(dumps_canonical(rollups))
    else:
        print(render_rollups(rollups), end="")
    return 0


def _sweep_command(argv: list[str]) -> int:
    """``python -m repro sweep <experiment> --grid ... [--workers N]``."""
    from .sweep import SweepSpec, persist_sweep, render_sweep, run_sweep

    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="fan an experiment's parameter grid across processes",
    )
    parser.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (optional when --spec names one)",
    )
    parser.add_argument(
        "--grid",
        default=None,
        metavar="AXES",
        help="grid DSL: whitespace-separated name=v1,v2 or name=a..b axes, "
        "e.g. \"nodes=16,32 seed=0..3\"",
    )
    parser.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="TOML/JSON sweep spec (experiment + grid + params)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        dest="fixed",
        help="fix one non-gridded parameter (repeatable)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )
    parser.add_argument(
        "--manifest",
        default=None,
        metavar="PATH",
        help="append each completed point to this JSONL manifest",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume from this manifest: completed points are not re-run",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="persist spec.json/report.json/metrics.jsonl (and, unless "
        "--manifest/--resume names one, the manifest) into this directory; "
        "relative paths resolve against the spec file's directory",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="NAME",
        help="shorthand for --out <anchor>/benchmarks/results/NAME, where "
        "<anchor> is the spec file's directory (or the CWD without --spec)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=environ_number("REPRO_SCALE", float, 32.0),
        help="dataset scale denominator for worker contexts (default "
        "$REPRO_SCALE or 32)",
    )
    parser.add_argument(
        "--quick",
        type=int,
        default=environ_number("REPRO_QUICK", int, 1),
        help="keep every N-th image in worker contexts (default "
        "$REPRO_QUICK or 1)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the merged sweep report as JSON on stdout",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="persist each executed point's Chrome trace under "
        "<out>/traces/point-NNNN.json (requires --store/--out); "
        "'python -m repro trace analyze' accepts the store directly",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live heartbeat on stderr (points done/total, avg wall per "
        "point, ETA); stdout is untouched",
    )
    args = parser.parse_args(argv)

    if args.resume is not None and args.manifest is not None:
        parser.error("--resume already names the manifest; drop --manifest")
    if args.out is not None and args.store is not None:
        parser.error("--out and --store are mutually exclusive")
    if args.trace and args.out is None and args.store is None:
        parser.error("--trace needs a result store: add --store/--out")

    # every relative path (manifest, resume, out) anchors on the spec
    # file's directory — a sweep described by a file stores next to that
    # file no matter where the command runs from; without --spec the
    # anchor is the CWD, the pre-existing behaviour
    anchor = (
        Path(args.spec).resolve().parent
        if args.spec is not None
        else Path.cwd()
    )
    out_dir: Path | None = None
    if args.store is not None:
        out_dir = anchor / "benchmarks" / "results" / args.store
    elif args.out is not None:
        out_dir = Path(args.out)
        if not out_dir.is_absolute():
            out_dir = anchor / out_dir
    if out_dir is not None:
        # validate the store target before any point runs
        from .metrics import ensure_export_dir

        flag = "--store" if args.store is not None else "--out"
        try:
            ensure_export_dir(out_dir, flag=flag)
        except ConfigError as error:
            parser.error(str(error))
    manifest_path = args.resume if args.resume is not None else args.manifest
    if manifest_path is not None:
        resolved = Path(manifest_path)
        if not resolved.is_absolute():
            resolved = anchor / resolved
        manifest_path = str(resolved)
    elif out_dir is not None:
        manifest_path = str(out_dir / "manifest.jsonl")

    try:
        if args.spec is not None:
            spec = SweepSpec.from_file(args.spec)
            if args.experiment and registry.get(args.experiment).exp_id != spec.experiment:
                parser.error(
                    f"--spec is for {spec.experiment!r}, not {args.experiment!r}"
                )
            if args.grid or args.fixed:
                parser.error("--spec already carries the grid; drop --grid/--set")
        else:
            if args.experiment is None or args.grid is None:
                parser.error("give an experiment and --grid, or a --spec file")
            exp = registry.get(args.experiment)
            fixed = {}
            for assignment in args.fixed:
                name, eq, value = assignment.partition("=")
                if not eq:
                    parser.error(f"bad --set {assignment!r}: expected NAME=VALUE")
                fixed[name] = exp.param(name).parse(value)
            spec = SweepSpec.from_grid(args.experiment, args.grid, fixed)

        exp = registry.get(spec.experiment)

        from .obs import runtime as obs_runtime

        reporter = obs_runtime.ProgressReporter() if args.progress else None
        profiler = obs_runtime.RuntimeProfiler(progress=reporter)
        total_points = len(spec.expand())
        done = {"points": 0, "wall_s": 0.0}

        def progress(point, status, elapsed):
            label = " ".join(
                f"{axis}={point.requested[axis]}" for axis in spec.grid
            )
            if status == "cached":
                print(f"[{spec.experiment} {label}: resumed]", file=sys.stderr)
            else:
                print(
                    f"[{spec.experiment} {label}: {elapsed:.1f}s]", file=sys.stderr
                )
            done["points"] += 1
            done["wall_s"] += elapsed
            if reporter is not None:
                reporter.point_done(
                    done["points"], total_points, done["wall_s"],
                    workers=args.workers,
                )

        header = None
        if manifest_path is not None and out_dir is not None:
            # stored sweeps record resolved-path provenance in the manifest
            # header; bare --manifest files stay one line per point
            header = {
                "manifest": manifest_path,
                "out": str(out_dir),
                "spec_file": (
                    str(Path(args.spec).resolve())
                    if args.spec is not None
                    else None
                ),
            }
        started = time.perf_counter()
        with obs_runtime.profiled(profiler):
            result = run_sweep(
                spec,
                workers=args.workers,
                manifest_path=manifest_path,
                resume=args.resume is not None,
                scale=args.scale,
                quick=max(1, args.quick),
                progress=progress,
                header=header,
                trace_dir=out_dir / "traces" if args.trace else None,
            )
            elapsed = time.perf_counter() - started
            if out_dir is not None:
                with profiler.phase("sweep.store"):
                    written = persist_sweep(out_dir, spec, result)
                print(
                    f"[stored {len(written)} files under {out_dir}]",
                    file=sys.stderr,
                )
    except ConfigError as error:
        parser.error(str(error))

    if args.json:
        if out_dir is not None:
            # the store already rendered the merged report: print its bytes
            # rather than serialising the same payload a second time
            print(written["report.json"].read_text(encoding="utf-8"), end="")
        else:
            print(dumps_canonical(result.to_dict()))
        print(f"[sweep: {elapsed:.1f}s]", file=sys.stderr)
    else:
        print(render_sweep(result, metrics=exp.metrics))
        print(f"[sweep: {elapsed:.1f}s]", file=sys.stderr)
    print(profiler.render(), file=sys.stderr)
    return 0


def _load_json(path: str, parser: argparse.ArgumentParser) -> dict:
    """Read one JSON payload file, dying with a CLI error when unreadable."""
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        parser.error(f"cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        parser.error(f"bad JSON in {path}: {error}")
    raise AssertionError("unreachable")  # parser.error raises SystemExit


def _slo_command(argv: list[str]) -> int:
    """``python -m repro slo check|diff``: SLO gates over JSON payloads.

    ``check`` evaluates a TOML/JSON spec against one or more payload
    files and exits 1 when any threshold is violated (or a selector
    matches nothing). ``diff`` compares two payloads' shared numeric
    leaves and exits 1 when any metric regressed past the tolerance in
    its bad direction — the CI perf gate.
    """
    from dataclasses import asdict

    from .slo import (
        SLOSpec,
        diff_payloads,
        evaluate,
        parse_tolerance,
        render_diff,
        render_verdicts,
    )

    parser = argparse.ArgumentParser(
        prog="repro slo",
        description="check SLO specs / diff perf baselines over the "
        "simulator's JSON reports",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    check = sub.add_parser(
        "check", help="evaluate an SLO spec against JSON payload files"
    )
    check.add_argument("spec", help="TOML/JSON SLO spec (a [[slo]] list)")
    check.add_argument(
        "payloads", nargs="+",
        help="JSON payloads: --json reports, stored sweep report.json, "
        "BENCH_*.json",
    )
    check.add_argument(
        "--json", action="store_true",
        help="emit machine-readable verdicts on stdout",
    )
    diff = sub.add_parser(
        "diff", help="flag perf regressions between two JSON payloads"
    )
    diff.add_argument("old", help="baseline payload (e.g. committed bench)")
    diff.add_argument("new", help="candidate payload (e.g. fresh bench)")
    diff.add_argument(
        "--tolerance", default="5%",
        help="relative change allowed before a move counts (default 5%%)",
    )
    diff.add_argument(
        "--metric", action="append", default=[], metavar="SUBSTR",
        help="restrict to paths containing SUBSTR (repeatable)",
    )
    diff.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable diff on stdout",
    )
    args = parser.parse_args(argv)

    if args.action == "check":
        try:
            spec = SLOSpec.from_file(args.spec)
        except ConfigError as error:
            parser.error(str(error))
        verdicts = []
        for path in args.payloads:
            payload = _load_json(path, parser)
            try:
                verdicts.extend(evaluate(spec, payload, source=path))
            except ConfigError as error:
                parser.error(str(error))
        ok = all(verdict.ok for verdict in verdicts)
        if args.json:
            print(
                dumps_canonical(
                    {"ok": ok, "verdicts": [asdict(v) for v in verdicts]}
                )
            )
            print(render_verdicts(verdicts), file=sys.stderr)
        else:
            print(render_verdicts(verdicts))
        return 0 if ok else 1

    try:
        tolerance = parse_tolerance(args.tolerance)
    except ConfigError as error:
        parser.error(str(error))
    entries = diff_payloads(
        _load_json(args.old, parser),
        _load_json(args.new, parser),
        tolerance=tolerance,
        metrics=args.metric or None,
    )
    regressed = any(entry.regression for entry in entries)
    if args.json:
        print(
            dumps_canonical(
                {
                    "ok": not regressed,
                    "tolerance": tolerance,
                    "changes": [asdict(entry) for entry in entries],
                }
            )
        )
        print(render_diff(entries, tolerance=tolerance), file=sys.stderr)
    else:
        print(render_diff(entries, tolerance=tolerance))
    return 0 if not regressed else 1


def _trace_command(argv: list[str]) -> int:
    """``python -m repro trace analyze|flame|diff``: trace analytics.

    ``analyze`` extracts per-boot critical paths from a Chrome trace (or a
    sweep store's ``traces/`` directory) and prints the fleet blame table;
    ``flame`` writes collapsed folded stacks (flamegraph.pl / speedscope);
    ``diff`` compares two analyses span-name by span-name and exits 1 on a
    critical-seconds regression past the tolerance — the trace twin of
    ``slo diff``.
    """
    from .obs import (
        analyze_sources,
        diff_analyses,
        folded_stacks,
        load_trace_sources,
        render_analysis,
        render_trace_diff,
    )
    from .obs.flame import WEIGHTS
    from .slo import parse_tolerance

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="critical-path analytics over stored Chrome traces "
        "(single --trace files or sweep stores with traces/)",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    analyze = sub.add_parser(
        "analyze", help="extract critical paths and print the blame table"
    )
    analyze.add_argument(
        "path",
        help="a --trace JSON file, a sweep store (--store/--out with "
        "--trace), or a directory of trace files",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit the canonical analysis payload on stdout",
    )
    flame = sub.add_parser(
        "flame", help="write collapsed folded stacks (flamegraph.pl input)"
    )
    flame.add_argument("path", help="trace file or sweep store")
    flame.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the folded stacks here (default: stdout)",
    )
    flame.add_argument(
        "--weight", default="wall", choices=WEIGHTS,
        help="wall = span self-time; critical = critical-path segments "
        "(default wall)",
    )
    diff = sub.add_parser(
        "diff", help="compare two traces' critical paths; exit 1 on regression"
    )
    diff.add_argument("old", help="baseline trace file or store")
    diff.add_argument("new", help="candidate trace file or store")
    diff.add_argument(
        "--tolerance", default="5%",
        help="relative critical-seconds growth allowed (default 5%%)",
    )
    diff.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable diff on stdout",
    )
    args = parser.parse_args(argv)

    try:
        if args.action == "analyze":
            payload = analyze_sources(load_trace_sources(args.path))
            if args.json:
                print(dumps_canonical(payload))
            else:
                print(render_analysis(payload))
            return 0
        if args.action == "flame":
            folded = folded_stacks(
                load_trace_sources(args.path), weight=args.weight
            )
            if args.out is None:
                print(folded, end="")
            else:
                Path(args.out).write_text(folded)
                print(
                    f"[{len(folded.splitlines())} stacks -> {args.out}]",
                    file=sys.stderr,
                )
            return 0
        tolerance = parse_tolerance(args.tolerance)
        rows = diff_analyses(
            analyze_sources(load_trace_sources(args.old)),
            analyze_sources(load_trace_sources(args.new)),
            tolerance=tolerance,
        )
    except ConfigError as error:
        parser.error(str(error))
    regressed = any(row["regression"] for row in rows)
    if args.json:
        print(
            dumps_canonical(
                {"ok": not regressed, "tolerance": tolerance, "changes": rows}
            )
        )
        print(render_trace_diff(rows, tolerance=tolerance), file=sys.stderr)
    else:
        print(render_trace_diff(rows, tolerance=tolerance))
    return 0 if not regressed else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: dispatch to list/run/sweep/metrics/slo/trace.

    Any :class:`ReproError` raised while a command runs (a storm with zero
    nodes, a broken send stream, a failed simulation) prints a one-line
    ``error: ...`` and exits 2, like an argparse usage error."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(argv)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _dispatch(argv: list[str]) -> int:
    if argv and argv[0] == "list":
        return _list_experiments()
    if argv and argv[0] == "sweep":
        return _sweep_command(argv[1:])
    if argv and argv[0] == "metrics":
        return _metrics_command(argv[1:])
    if argv and argv[0] == "slo":
        return _slo_command(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_command(argv[1:])
    return _run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
