"""Command-line front end: run the flow, print every table and figure.

Usage (``python -m repro.cli`` or the ``repro-cli`` entry point)::

    repro-cli --scale 1.0 run sha MegaBOOM
    repro-cli --scale 1.0 report -o report.md
    repro-cli report --section table1
    repro-cli --scale 1.0 report --section fig10
    repro-cli report --section takeaways --gshare
    repro-cli sweep --verbose --jobs 4
    repro-cli --check sweep
    repro-cli check dijkstra MediumBOOM
    repro-cli cache stats
    repro-cli cache invalidate --stage detailed_sim
    repro-cli recover --verify
    repro-cli bench --quick
    repro-cli bench --trend
    repro-cli --flight sweep
    repro-cli flight
    repro-cli accuracy
    repro-cli accuracy --update
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.analysis.efficiency import summarize
from repro.flow.experiment import FlowSettings
from repro.flow.report import SECTIONS
from repro.flow.sweep import SweepRunner, open_trace_session
from repro.obs.logs import setup_cli_logging
from repro.pipeline.faults import FaultInjector, parse_fault_spec
from repro.uarch.config import config_by_name
from repro.workloads.suite import workload_names


def _settings(args: argparse.Namespace) -> FlowSettings:
    # fault injection: the CLI flag wins; otherwise REPRO_FAULTS /
    # REPRO_FAULT_SEED let CI inject faults without changing commands
    env_faults, env_seed = FaultInjector.env_spec()
    faults = getattr(args, "faults", None) or env_faults
    fault_seed = getattr(args, "fault_seed", None)
    return FlowSettings(
        scale=args.scale, seed=args.seed, faults=faults,
        fault_seed=env_seed if fault_seed is None else fault_seed)


def _runner(args: argparse.Namespace) -> SweepRunner:
    cache = None if args.no_cache else args.cache_dir
    return SweepRunner(_settings(args), cache_dir=cache)


def _finish_trace_session(session) -> None:
    if session is None:
        return
    path = session.finish()
    if path is not None:
        print(f"trace written to {path} (render with `repro-cli trace`)",
              file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    runner = _runner(args)
    config = config_by_name(args.config)
    session = open_trace_session(runner.cache_dir, trace=args.trace,
                                 label="run")
    try:
        result = runner.run(args.workload, config)
    finally:
        _finish_trace_session(session)
    print(f"{args.workload} on {config.name} (scale {args.scale:g})")
    print(f"  SimPoints: {len(result.runs)} of k={result.chosen_k} "
          f"clusters, coverage {result.coverage:.2f}")
    print(f"  IPC: {result.ipc:.3f}")
    print(f"  Tile power: {result.tile_mw:.2f} mW "
          f"(analyzed share {result.analyzed_share:.1%})")
    print(f"  Perf/W: {result.perf_per_watt:.1f} IPC/W")
    for run in result.runs:
        print(f"    interval {run.interval_index}: weight={run.weight:.2f} "
              f"ipc={run.ipc:.2f} tile={run.report.tile_mw:.2f} mW")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.flow.scheduler import RetryPolicy

    if args.workloads:
        known = set(workload_names())
        unknown = sorted(set(args.workloads) - known)
        if unknown:
            print(f"unknown workload(s): {', '.join(unknown)}; "
                  f"see `repro-cli workloads`", file=sys.stderr)
            return 2
    runner = _runner(args)
    policy = RetryPolicy(max_attempts=args.retries + 1) \
        if args.retries is not None else None
    results = runner.run_all(
        workloads=args.workloads, jobs=args.jobs, policy=policy,
        timeout=args.timeout,
        fail_fast=args.fail_fast, resume=args.resume,
        trace=args.trace, progress=args.progress)
    if args.resume and runner.resumed_completed:
        print(f"resumed: {runner.resumed_completed} experiments already "
              f"complete from the interrupted run")
    print(summarize(results).format())
    manifest = runner.last_manifest
    if args.verbose and manifest is not None:
        print()
        print(manifest.format())
    if manifest is not None and manifest.trace:
        print(f"trace written to {manifest.trace} "
              f"(render with `repro-cli trace`)", file=sys.stderr)
    if manifest is not None and not manifest.ok:
        fault_table = manifest.format_faults()
        if fault_table and not args.verbose:
            print()
            print(fault_table)
        print(f"\nsweep degraded: {len(results)} of "
              f"{manifest.experiments} experiments completed "
              f"({len(manifest.failures)} failed, "
              f"{len(manifest.timeouts)} timed out)", file=sys.stderr)
        return 3
    return 0


def _read_run_trace(run_dir) -> dict | None:
    """A run's ``trace.json``; ``None`` (reported) if it cannot be had."""
    import json

    from repro.obs.merge import write_merged_trace

    trace_path = run_dir / "trace.json"
    if not trace_path.exists():
        # interrupted / crashed run: merge whatever event files survived
        try:
            write_merged_trace(run_dir)
        except OSError as exc:
            print(f"cannot merge trace in {run_dir}: {exc}",
                  file=sys.stderr)
            return None
    return json.loads(trace_path.read_text())


def _emit_chrome(text: str, output: str | None) -> int:
    if output:
        from pathlib import Path

        Path(output).write_text(text)
        print(f"wrote {output} (open in Perfetto / chrome://tracing)")
    else:
        print(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.render import (
        chrome_json,
        format_summary,
        format_tree,
        trace_metrics,
    )
    from repro.obs.session import resolve_run_dir

    run_dir = resolve_run_dir(args.cache_dir, args.run)
    if run_dir is None:
        wanted = args.run or "latest"
        print(f"no trace run found ({wanted}); record one with "
              f"`repro-cli sweep --trace` or REPRO_TRACE=1",
              file=sys.stderr)
        return 2
    trace = _read_run_trace(run_dir)
    if trace is None:
        return 2
    if args.format == "chrome":
        return _emit_chrome(chrome_json(trace), args.output)
    if args.format in ("tree", "full"):
        print(format_tree(trace))
    if args.format in ("summary", "full"):
        if args.format == "full":
            print()
        print(format_summary(trace))
    if args.metrics:
        print()
        print(json.dumps(trace_metrics(trace), indent=2))
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    import json

    from repro.obs.flight import flight_samples
    from repro.obs.render import flight_to_chrome, format_flight
    from repro.obs.session import resolve_run_dir

    run_dir = resolve_run_dir(args.cache_dir, args.run)
    if run_dir is None:
        wanted = args.run or "latest"
        print(f"no obs run found ({wanted}); record one with "
              f"`repro-cli --flight sweep` or REPRO_FLIGHT=1",
              file=sys.stderr)
        return 2
    trace = _read_run_trace(run_dir)
    if trace is None:
        return 2
    flight = flight_samples(trace)
    if not flight["samples"]:
        print(f"no flight samples in {run_dir}; record a run with "
              f"`repro-cli --flight sweep` or REPRO_FLIGHT=1",
              file=sys.stderr)
        return 2
    if args.format == "chrome":
        return _emit_chrome(json.dumps(flight_to_chrome(flight),
                                       separators=(",", ":")),
                            args.output)
    print(format_flight(flight, width=args.width))
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.accuracy import (
        build_envelope,
        evaluate_accuracy,
        format_accuracy,
        load_envelopes,
        write_envelope,
    )

    directory = Path(args.envelopes)
    envelopes: dict[str, dict] = {}
    if args.update:
        scale, seed = args.scale, args.seed
    else:
        try:
            envelopes = load_envelopes(directory)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.workloads:
            wanted = set(args.workloads)
            envelopes = {workload: envelope
                         for workload, envelope in envelopes.items()
                         if workload in wanted}
        if not envelopes:
            print(f"no accuracy envelopes under {directory}; create "
                  f"them with `repro-cli accuracy --update`",
                  file=sys.stderr)
            return 2
        # The envelopes pin the operating point: re-measure at exactly
        # the scale/seed they were built at, whatever --scale says.
        scales = {envelope["scale"] for envelope in envelopes.values()}
        if len(scales) != 1:
            print(f"envelopes disagree on scale ({sorted(scales)}); "
                  f"regenerate them together", file=sys.stderr)
            return 2
        scale = scales.pop()
        seeds = {envelope.get("seed") for envelope in envelopes.values()}
        seed = seeds.pop() if len(seeds) == 1 and None not in seeds \
            else args.seed
    settings = FlowSettings(scale=scale, seed=seed)
    cache = None if args.no_cache else args.cache_dir
    runner = SweepRunner(settings, cache_dir=cache)
    # The committed envelopes define the coverage: sweep exactly their
    # workloads unless the user restricted further (or is regenerating).
    workloads = args.workloads
    if workloads is None and envelopes:
        workloads = sorted(envelopes)
    results = runner.run_all(workloads=workloads, jobs=args.jobs,
                             trace=args.trace)
    if args.update:
        by_workload: dict[str, dict] = {}
        for (workload, config), result in results.items():
            by_workload.setdefault(workload, {})[config] = result
        for workload in sorted(by_workload):
            path = write_envelope(directory, build_envelope(
                workload, by_workload[workload], scale=scale, seed=seed))
            print(f"wrote {path}")
        print(f"{len(by_workload)} envelope(s) regenerated — review the "
              f"diff before committing")
        return 0
    evaluation = evaluate_accuracy(results, envelopes)
    print(format_accuracy(evaluation))
    return 0 if evaluation.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.flow.sweep import MANIFEST_NAME
    from repro.pipeline.artifacts import ArtifactStore
    from repro.pipeline.manifest import RunManifest
    from repro.pipeline.stages import STAGE_ORDER

    store = ArtifactStore(args.cache_dir)
    if args.action == "stats":
        counts = store.artifact_counts()
        if not counts:
            print(f"{args.cache_dir}: empty")
            return 0
        print(f"{'stage':<22}{'artifacts':>10}{'bytes':>12}")
        for stage in STAGE_ORDER:
            if stage in counts:
                number, size = counts[stage]
                print(f"{stage:<22}{number:>10}{size:>12,}")
        for stage in sorted(set(counts) - set(STAGE_ORDER)):
            number, size = counts[stage]
            print(f"{stage:<22}{number:>10}{size:>12,}")
        manifest_path = Path(args.cache_dir) / MANIFEST_NAME
        if manifest_path.exists():
            import json

            manifest = RunManifest.from_dict(
                json.loads(manifest_path.read_text()))
            print("\nlast sweep:")
            print(manifest.format())
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {args.cache_dir}")
        return 0
    # invalidate: drop the stage AND everything downstream of it, since
    # downstream artifacts were derived from the invalidated outputs.
    if args.stage is None:
        print("cache invalidate requires --stage", file=sys.stderr)
        return 2
    if args.stage not in STAGE_ORDER:
        print(f"unknown stage {args.stage!r}; one of: "
              f"{', '.join(STAGE_ORDER)}", file=sys.stderr)
        return 2
    removed = 0
    for stage in STAGE_ORDER[STAGE_ORDER.index(args.stage):]:
        dropped = store.invalidate_stage(stage)
        if dropped:
            print(f"  {stage}: {dropped} artifacts")
        removed += dropped
    print(f"removed {removed} artifacts from {args.cache_dir}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.check.storage import validate_storage
    from repro.pipeline.journal import recover_cache

    exit_code = 0
    if not args.check_only:
        report = recover_cache(args.cache_dir)
        print(report.format())
    if args.check_only or args.check_after:
        storage = validate_storage(args.cache_dir)
        print(storage.format())
        if not storage.ok:
            exit_code = 1
    return exit_code


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads.suite import get_workload

    print(f"{'name':<14}{'suite':<9}{'interval':>9}{'paper instr':>15}"
          f"{'SPs':>4}  description")
    for name in workload_names():
        spec = get_workload(name)
        print(f"{spec.name:<14}{spec.suite:<9}{spec.interval_size:>9}"
              f"{spec.paper_instructions:>15,}{spec.paper_simpoints:>4}"
              f"  {spec.description}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.flow.report import generate_report, ReportInputs

    runner = _runner(args)
    exit_code = 0
    if args.section is None:
        text = generate_report(runner, include_gshare=args.gshare,
                               jobs=args.jobs, trace=args.trace)
    else:
        inputs = ReportInputs(runner, include_gshare=args.gshare,
                              jobs=args.jobs, trace=args.trace)
        text = SECTIONS[args.section](inputs)
        if args.section == "takeaways" and \
                not all(check.passed for check in inputs.checks):
            exit_code = 1
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return exit_code


def _cmd_checkpoints(args: argparse.Namespace) -> int:
    from repro.checkpoint.creator import create_checkpoints
    from repro.checkpoint.store import describe_store, save_checkpoints
    from repro.flow.experiment import profile_and_select
    from repro.workloads.suite import build_program

    settings = FlowSettings(scale=args.scale, seed=args.seed)
    program = build_program(args.workload, scale=settings.scale,
                            seed=settings.seed)
    _, selection = profile_and_select(args.workload, settings)
    checkpoints = create_checkpoints(program, selection,
                                     warmup=settings.scaled_warmup())
    save_checkpoints(args.directory, checkpoints)
    print(describe_store(args.directory))
    return 0


def _skip_consumed(args: argparse.Namespace, retired: str) -> int:
    """Report a ``--skip`` that left nothing to show as a usage error."""
    from repro.errors import EXIT_USAGE

    print(f"--skip {args.skip} consumed the whole program: "
          f"{args.workload} at scale {args.scale} retires {retired} "
          f"instructions; choose a smaller --skip", file=sys.stderr)
    return EXIT_USAGE


def _cmd_cpi(args: argparse.Namespace) -> int:
    from repro.analysis.cpi_stack import (
        cpi_stack,
        dominant_bottleneck,
        format_cpi_stack,
    )
    from repro.uarch.core import BoomCore
    from repro.workloads.suite import build_program

    config = config_by_name(args.config)
    program = build_program(args.workload, scale=args.scale,
                            seed=args.seed)
    core = BoomCore(config, program)
    core.warm_up(args.skip)
    if core.frontend.out_of_instructions and core.rob.is_empty:
        return _skip_consumed(args, str(core.retired_total))
    stats = core.begin_measurement()
    core.run(args.window)
    stack = cpi_stack(stats, config)
    print(format_cpi_stack(stack, f"{args.workload} on {config.name}"))
    print(f"dominant bottleneck: {dominant_bottleneck(stack)}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.uarch.pipeview import (
        render_waterfall,
        summarize_timings,
        trace_program,
    )
    from repro.workloads.suite import build_program

    program = build_program(args.workload, scale=args.scale,
                            seed=args.seed)
    timings = trace_program(program, config_by_name(args.config),
                            max_uops=args.uops,
                            skip_instructions=args.skip)
    if not timings:
        return _skip_consumed(args, f"at most {args.skip}")
    print(render_waterfall(timings))
    for key, value in summarize_timings(timings).items():
        print(f"{key}: {value:.2f}" if isinstance(value, float)
              else f"{key}: {value}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.runner import run_check

    runner = _runner(args)
    exit_code = 0
    for workload in args.workloads or ["dijkstra"]:
        for config_name in args.configs or ["MediumBOOM"]:
            report = run_check(workload, config_by_name(config_name),
                               runner.settings, runner.store)
            print(report.format())
            if not report.ok:
                exit_code = 1
    return exit_code


def _cmd_dse(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.errors import ConfigError
    from repro.flow.dse import run_dse
    from repro.flow.scheduler import RetryPolicy
    from repro.uarch.space import (
        DesignSpace,
        generate_points,
        points_from_dict,
        points_to_dict,
        SpaceSpec,
    )

    spec = SpaceSpec(base=args.base, mode=args.mode, count=args.points,
                     radius=args.radius, max_changed=args.max_changed,
                     seed=args.space_seed,
                     include_presets=not args.no_presets)
    configs = None
    if args.action == "generate":
        space = DesignSpace.around(spec.base)
        points = generate_points(spec, space=space)
        text = json.dumps(points_to_dict(spec, points, space=space),
                          indent=2, sort_keys=True)
        if args.space:
            Path(args.space).write_text(text + "\n")
            print(f"wrote {len(points)} design points to {args.space}")
        else:
            print(text)
        return 0
    if args.space:
        path = Path(args.space)
        if not path.exists():
            print(f"space document {args.space} not found; create it "
                  f"with `repro-cli dse generate --space {args.space}`",
                  file=sys.stderr)
            return 2
        try:
            spec, configs = points_from_dict(json.loads(path.read_text()))
        except (ValueError, ConfigError, KeyError) as exc:
            print(f"cannot load space document {args.space}: {exc}",
                  file=sys.stderr)
            return 2
    policy = RetryPolicy(max_attempts=args.retries + 1) \
        if args.retries is not None else None
    outcome = run_dse(
        spec, settings=_settings(args),
        cache_dir=None if args.no_cache else args.cache_dir,
        jobs=args.jobs, configs=configs, workloads=args.workloads,
        policy=policy, timeout=args.timeout, fail_fast=args.fail_fast,
        resume=args.resume, trace=args.trace, progress=args.progress)
    document = outcome.document()
    if args.output:
        Path(args.output).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote frontier artifact to {args.output}", file=sys.stderr)
    if args.action == "frontier":
        if not args.output:
            print(json.dumps(document, indent=2, sort_keys=True))
    else:  # sweep | report
        print(outcome.format())
        print(f"\nswept {len(outcome.points)} design points "
              f"({len(outcome.results)} experiments) at "
              f"{outcome.points_per_s:.1f} points/s")
    manifest = outcome.manifest
    if manifest is not None and manifest.trace:
        print(f"trace written to {manifest.trace} "
              f"(render with `repro-cli trace`)", file=sys.stderr)
    if manifest is not None and not manifest.ok:
        print(f"\nsweep degraded: {len(outcome.skipped)} design points "
              f"incomplete ({len(manifest.failures)} experiments failed, "
              f"{len(manifest.timeouts)} timed out)", file=sys.stderr)
        if args.action == "sweep" or not outcome.frontier:
            return 3
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import main as bench_main

    argv: list[str] = []
    if args.quick:
        argv.append("--quick")
    if args.output:
        argv += ["--output", args.output]
    if args.baseline:
        argv += ["--baseline", args.baseline]
    if args.check:
        argv.append("--check")
    if args.no_write:
        argv.append("--no-write")
    if args.threshold is not None:
        argv += ["--threshold", str(args.threshold)]
    if args.trend:
        argv.append("--trend")
    if args.trend_dir:
        argv += ["--trend-dir", args.trend_dir]
    for metric in args.metric or ():
        argv += ["--metric", metric]
    return bench_main(argv)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its errors
    return parse


def _positive_float(text: str) -> float:
    """An argparse type: a finite number greater than 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number greater than 0, got {text}")
    return value


_positive_float.__name__ = "float"  # argparse names the type in its errors


def _fault_spec(text: str) -> str:
    """An argparse type: a fault-injection spec that parses."""
    try:
        parse_fault_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="SimPoint-based BOOM hotspot & energy-efficiency "
                    "analysis (ISPASS 2024 reproduction)")
    parser.add_argument("--scale", type=_positive_float, default=1.0,
                        help="workload scale (1.0 = Table II / 1000)")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--cache-dir", default=".repro_cache")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="parallel workers for sweeps")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="only errors on stderr")
    parser.add_argument("--verbose", dest="log_verbose", action="count",
                        default=0,
                        help="diagnostic logging on stderr (repeat for "
                             "debug)")
    parser.add_argument("--trace", action="store_true",
                        help="record a structured trace of the run under "
                             "<cache>/obs/ (also via REPRO_TRACE=1); "
                             "render it with `repro-cli trace`")
    parser.add_argument("--flight", action="store_true",
                        help="record per-interval microarchitectural "
                             "telemetry during detailed simulation (also "
                             "via REPRO_FLIGHT=1; implies --trace); "
                             "render it with `repro-cli flight`")
    parser.add_argument("--check", dest="runtime_checks",
                        action="store_true",
                        help="assert core invariants while simulating "
                             "(also via REPRO_CHECK=1); artifacts stay "
                             "byte-identical to an unchecked run")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="one experiment")
    run_parser.add_argument("workload", choices=workload_names())
    run_parser.add_argument("config")
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep", help="full study + efficiency summary")
    sweep_parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="print the per-stage run manifest (executions, cache "
             "hits/misses, timings, failures/retries)")
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="pick an interrupted sweep back up: completed experiments "
             "come from the cache, permanent failures are not re-run")
    sweep_parser.add_argument(
        "--workloads", nargs="+", default=None, metavar="WORKLOAD",
        help="restrict the sweep to these workloads (default: the "
             "full suite)")
    sweep_parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first permanent failure instead of "
             "completing the remaining experiments")
    sweep_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget; a hung pool task is "
             "abandoned and recorded in the manifest (an in-process "
             "task at --jobs 1 cannot be abandoned)")
    sweep_parser.add_argument(
        "--retries", type=_int_at_least(0), default=None, metavar="N",
        help="max retries per task for transient failures (default 2)")
    sweep_parser.add_argument(
        "--faults", type=_fault_spec, default=None, metavar="SPEC",
        help="fault-injection spec, e.g. 'worker.experiment:crash:n=1' "
             "(testing; also via REPRO_FAULTS)")
    sweep_parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault-injection probability draws")
    sweep_parser.add_argument(
        "--progress", action="store_true",
        help="one stderr line per finished task: wave, key, done/total, "
             "elapsed time and ETA")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    trace_parser = commands.add_parser(
        "trace", help="render a recorded run trace")
    trace_parser.add_argument(
        "run", nargs="?", default=None,
        help="run id under <cache>/obs/, a run directory path, or "
             "'latest' (default)")
    trace_parser.add_argument(
        "--format", "-f", default="full",
        choices=("full", "tree", "summary", "chrome"),
        help="full = span tree + critical-path/utilization summary; "
             "chrome = Chrome trace-event JSON (Perfetto)")
    trace_parser.add_argument(
        "--output", "-o", default=None,
        help="write chrome JSON here instead of stdout")
    trace_parser.add_argument(
        "--metrics", action="store_true",
        help="also print the run's metrics snapshot, counted from "
             "the merged trace")
    trace_parser.set_defaults(handler=_cmd_trace)

    flight_parser = commands.add_parser(
        "flight", help="render a run's flight-recorder telemetry "
                       "(per-interval IPC/occupancy/power timelines)")
    flight_parser.add_argument(
        "run", nargs="?", default=None,
        help="run id under <cache>/obs/, a run directory path, or "
             "'latest' (default)")
    flight_parser.add_argument(
        "--format", "-f", default="timeline",
        choices=("timeline", "chrome"),
        help="timeline = sparkline tables; chrome = Chrome trace-event "
             "counter tracks (Perfetto)")
    flight_parser.add_argument(
        "--output", "-o", default=None,
        help="write chrome JSON here instead of stdout")
    flight_parser.add_argument(
        "--width", type=int, default=60,
        help="sparkline width in characters (default 60)")
    flight_parser.set_defaults(handler=_cmd_flight)

    accuracy_parser = commands.add_parser(
        "accuracy", help="compare a sweep against the committed golden "
                         "accuracy envelopes (MAPE table + drift gate)")
    accuracy_parser.add_argument(
        "--envelopes", default="benchmarks/accuracy", metavar="DIR",
        help="envelope directory (default benchmarks/accuracy)")
    accuracy_parser.add_argument(
        "--workloads", nargs="+", default=None, metavar="WORKLOAD",
        help="restrict to these workloads (default: every envelope)")
    accuracy_parser.add_argument(
        "--update", action="store_true",
        help="regenerate the envelopes from the current model at "
             "--scale/--seed instead of evaluating against them")
    accuracy_parser.set_defaults(handler=_cmd_accuracy)

    cache_parser = commands.add_parser(
        "cache", help="inspect or prune the stage artifact cache")
    cache_parser.add_argument("action",
                              choices=("stats", "clear", "invalidate"))
    cache_parser.add_argument(
        "--stage", default=None,
        help="stage to invalidate (with everything downstream of it)")
    cache_parser.set_defaults(handler=_cmd_cache)

    recover_parser = commands.add_parser(
        "recover", help="repair the cache after crashes: quarantine "
                        "torn artifacts, release dead leases, fix "
                        "sweep state so --resume is trustworthy")
    recover_parser.add_argument(
        "--check", dest="check_only", action="store_true",
        help="audit only — report journal/lease/state inconsistencies "
             "without repairing anything (exit 1 if problems found)")
    recover_parser.add_argument(
        "--verify", dest="check_after", action="store_true",
        help="run the storage audit after repairing (exit 1 if "
             "problems remain)")
    recover_parser.set_defaults(handler=_cmd_recover)

    commands.add_parser(
        "workloads", help="list the benchmark suite").set_defaults(
        handler=_cmd_workloads)

    report_parser = commands.add_parser(
        "report", help="render the full study as a markdown report")
    report_parser.add_argument("--output", "-o", default=None)
    report_parser.add_argument(
        "--section", default=None, choices=tuple(SECTIONS),
        help="render only this section, computing only what it reads "
             "(takeaways exits 1 when a takeaway fails)")
    report_parser.add_argument(
        "--gshare", action="store_true",
        help="also run the gshare ablation (read by the takeaways)")
    report_parser.set_defaults(handler=_cmd_report)

    checkpoint_parser = commands.add_parser(
        "checkpoints", help="create and save a workload's checkpoints")
    checkpoint_parser.add_argument("workload", choices=workload_names())
    checkpoint_parser.add_argument("directory")
    checkpoint_parser.set_defaults(handler=_cmd_checkpoints)

    cpi_parser = commands.add_parser(
        "cpi", help="CPI-stack breakdown for one workload window")
    cpi_parser.add_argument("workload", choices=workload_names())
    cpi_parser.add_argument("config", nargs="?", default="MegaBOOM")
    cpi_parser.add_argument("--skip", type=_int_at_least(0), default=20_000)
    cpi_parser.add_argument("--window", type=_int_at_least(1), default=5_000)
    cpi_parser.set_defaults(handler=_cmd_cpi)

    pipeline_parser = commands.add_parser(
        "pipeline", help="render a pipeline waterfall for a workload")
    pipeline_parser.add_argument("workload", choices=workload_names())
    pipeline_parser.add_argument("config", nargs="?", default="MediumBOOM")
    pipeline_parser.add_argument("--uops", type=_int_at_least(1), default=32)
    pipeline_parser.add_argument("--skip", type=_int_at_least(0), default=0)
    pipeline_parser.set_defaults(handler=_cmd_pipeline)

    dse_parser = commands.add_parser(
        "dse", help="design-space exploration: generate a config "
                    "lattice, sweep it, compute the Pareto frontier")
    dse_parser.add_argument(
        "action", choices=("generate", "sweep", "frontier", "report"),
        help="generate = materialize the point set (JSON); sweep = run "
             "it and print the frontier; frontier = emit the frontier "
             "artifact JSON; report = human-readable frontier + "
             "sensitivity tables")
    dse_parser.add_argument(
        "--points", type=_int_at_least(1), default=64, metavar="N",
        help="lattice size to generate (default 64)")
    dse_parser.add_argument(
        "--base", default="LargeBOOM",
        help="preset the lattice is centered on (default LargeBOOM)")
    dse_parser.add_argument(
        "--mode", default="neighborhood",
        choices=("neighborhood", "random", "grid"),
        help="sampling strategy (default neighborhood)")
    dse_parser.add_argument(
        "--radius", type=_int_at_least(1), default=2,
        help="neighborhood ring radius in lattice rungs (default 2)")
    dse_parser.add_argument(
        "--max-changed", type=_int_at_least(1), default=2,
        help="max axes changed per neighborhood point (default 2)")
    dse_parser.add_argument(
        "--space-seed", type=int, default=17,
        help="seed for random-legal lattice draws (default 17)")
    dse_parser.add_argument(
        "--no-presets", action="store_true",
        help="exclude the three paper presets from the point set")
    dse_parser.add_argument(
        "--space", default=None, metavar="FILE",
        help="space document: written by `generate`, read by the other "
             "actions (bit-reproducible point sets)")
    dse_parser.add_argument(
        "--output", "-o", default=None, metavar="FILE",
        help="write the frontier artifact JSON here")
    dse_parser.add_argument(
        "--workloads", nargs="+", default=None, metavar="WORKLOAD",
        help="workloads to sweep (default: the full suite)")
    dse_parser.add_argument(
        "--resume", action="store_true",
        help="pick an interrupted DSE sweep back up from the cache")
    dse_parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first permanent failure")
    dse_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget for pool tasks (an "
             "in-process task at --jobs 1 cannot be abandoned)")
    dse_parser.add_argument(
        "--retries", type=_int_at_least(0), default=None, metavar="N",
        help="max retries per task for transient failures (default 2)")
    dse_parser.add_argument(
        "--faults", type=_fault_spec, default=None, metavar="SPEC",
        help="fault-injection spec (testing; also via REPRO_FAULTS)")
    dse_parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault-injection probability draws")
    dse_parser.add_argument(
        "--progress", action="store_true",
        help="one stderr line per finished task: wave, key, done/total, "
             "elapsed time and ETA")
    dse_parser.set_defaults(handler=_cmd_dse)

    bench_parser = commands.add_parser(
        "bench", help="run the hot-path benchmark harness "
                      "(emits BENCH_<date>.json)")
    bench_parser.add_argument("--quick", action="store_true",
                              help="small budgets for CI smoke runs")
    bench_parser.add_argument("--output", "-o", default=None)
    bench_parser.add_argument("--baseline", default=None,
                              help="snapshot to compare against")
    bench_parser.add_argument("--check", action="store_true",
                              help="exit 1 on regression past --threshold")
    bench_parser.add_argument("--no-write", action="store_true")
    bench_parser.add_argument("--threshold", type=float, default=None,
                              help="allowed fractional regression "
                                   "(default 0.30)")
    bench_parser.add_argument("--trend", action="store_true",
                              help="print the per-metric trajectory "
                                   "across committed BENCH_*.json and "
                                   "exit (no measurement)")
    bench_parser.add_argument("--trend-dir", default=None, metavar="DIR",
                              help="directory holding the snapshots "
                                   "(default: auto-detect)")
    bench_parser.add_argument("--metric", action="append", default=None,
                              help="restrict --trend to this metric "
                                   "(repeatable)")
    bench_parser.set_defaults(handler=_cmd_bench)

    check_parser = commands.add_parser(
        "check", help="validate the models: invariants, differential "
                      "re-execution, power/result validators")
    check_parser.add_argument(
        "workloads", nargs="*", metavar="workload",
        help="workloads to validate (default: dijkstra)")
    check_parser.add_argument(
        "--configs", nargs="+", default=None, metavar="CONFIG",
        help="configurations to validate (default: MediumBOOM)")
    check_parser.set_defaults(handler=_cmd_check)
    return parser


def _report_failure(exc: BaseException, *, verbose: bool) -> int:
    """One taxonomy-coded line on stderr + the reserved exit code.

    Subcommand handlers let unexpected exceptions escape; this is the
    single place they land.  Without ``--verbose`` the traceback is
    suppressed — scripts and CI wrappers get a stable one-liner and a
    meaningful exit code (``repro.errors``) instead of a raw dump.
    """
    import traceback

    from repro.errors import (
        SweepInterrupted,
        classify_failure,
        exit_code_for,
    )

    code = exit_code_for(exc)
    if isinstance(exc, (SweepInterrupted, KeyboardInterrupt)):
        name = exc.signal_name if isinstance(exc, SweepInterrupted) \
            else "SIGINT"
        print(f"repro-cli: interrupted by {name} (exit {code}); "
              f"state settled — resume with --resume", file=sys.stderr)
        return code
    if verbose:
        traceback.print_exc()
    kind = classify_failure(exc)
    print(f"repro-cli: error[{kind}/{type(exc).__name__}]: {exc}",
          file=sys.stderr)
    if not verbose:
        print("repro-cli: re-run with --verbose for the full traceback",
              file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    import os

    args = build_parser().parse_args(argv)
    setup_cli_logging(verbose=args.log_verbose, quiet=args.quiet)
    # --check and --flight reach pool workers through the environment,
    # which the handler's pools inherit; it is restored on return
    exported: dict[str, str | None] = {}
    if args.runtime_checks:
        from repro.check import CHECK_ENV

        exported[CHECK_ENV] = os.environ.get(CHECK_ENV)
        os.environ[CHECK_ENV] = "1"
    if args.flight:
        # samples travel on the trace, so --flight implies --trace
        from repro.obs.flight import FLIGHT_ENV

        exported[FLIGHT_ENV] = os.environ.get(FLIGHT_ENV)
        os.environ[FLIGHT_ENV] = "1"
        args.trace = True
    try:
        return args.handler(args)
    except SystemExit:
        raise
    except BaseException as exc:
        return _report_failure(exc, verbose=args.log_verbose > 0)
    finally:
        for key, value in exported.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


if __name__ == "__main__":
    raise SystemExit(main())
