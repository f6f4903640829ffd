"""The tracked performance-benchmark harness (``repro-cli bench``).

The paper's methodology only pays off when simulated-slices-per-second
is high: every stage of the flow (BBV profiling, checkpoint creation,
detailed simulation) funnels through the two pure-Python inner loops in
:mod:`repro.sim.executor` and :mod:`repro.uarch.core`.  This module
measures those hot paths against a pinned set of workloads x configs and
emits a ``BENCH_<date>.json`` snapshot, so every PR is judged against the
previous one's throughput.

Metrics (all flat floats under ``metrics``):

* ``functional.<mode>.instr_per_s`` — functional-executor retire rate,
  per dispatch mode (``superblock`` fast path vs the ``reference``
  per-instruction loop used by the equivalence tests);
* ``profiled.instr_per_s`` — retire rate of ``BBVProfiler.profile``,
  the flow's BBV profiling pass (the gem5-probe analogue);
* ``core.<config>.cycles_per_s`` / ``core.<config>.instr_per_s`` —
  detailed-core simulation rate over a measured window;
* ``core.batched.cycles_per_s`` — aggregate detailed-core rate when one
  checkpoint is replayed across all three paper presets through one
  shared fetch trace, as every sweep's detailed stage does;
* ``stage.<name>_s`` — cold wall-clock of each pipeline stage;
* ``dse.points_per_s`` — design points swept per second through a
  pinned cold DSE lattice (the ``repro-cli dse`` throughput);
* ``peak_rss_kb`` — peak resident set of the benchmark process;
* ``calibration.ops_per_s`` — a fixed pure-Python loop, used to
  normalize cross-machine comparisons (CI runners are not the dev box).

Snapshots are compared metric-by-metric; ``--check`` fails on a >30 %
regression of any calibration-normalized throughput metric, which is the
CI perf-smoke gate.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from time import perf_counter

SCHEMA_VERSION = 1

#: metrics where larger is better; only these are regression-gated
THROUGHPUT_PREFIXES = ("functional.", "profiled.", "core.", "dse.")

#: throughput metrics excluded from the regression gate: the reference
#: dispatch loop is kept for equivalence testing, not performance, and
#: its rate swings with CPython's adaptive-specialization warmup — noisy
#: enough to false-alarm a 30 % gate on CI runners; speedup ratios divide
#: two noisy rates, so they are reported but not gated either
UNGATED_PREFIXES = ("functional.reference.",
                    "functional.speedup_over_reference")

#: default regression gate: fail when a normalized throughput metric
#: drops by more than this fraction vs the baseline snapshot
DEFAULT_THRESHOLD = 0.30

#: the pinned benchmark set — changing it invalidates cross-snapshot
#: comparability, so treat it like a schema change
FUNCTIONAL_WORKLOADS = ("sha", "dijkstra")
CORE_WORKLOADS = ("sha", "dijkstra")
CORE_CONFIGS = ("MediumBOOM", "MegaBOOM")
STAGE_WORKLOAD = "qsort"
DSE_WORKLOAD = "sha"
DSE_POINTS = 8
#: batched-replay benchmark: one checkpoint, replayed across the three
#: paper presets.  Captured 20k instructions in (steady-state compression
#: loop, past workload init) so the window measures representative work.
BATCH_WORKLOAD = "sha"
BATCH_SCALE = 0.5
BATCH_CAPTURE = 20_000


@dataclass(frozen=True)
class BenchLimits:
    """Instruction/cycle budgets for one harness run."""

    functional_instructions: int = 400_000
    profiled_instructions: int = 250_000
    core_warmup: int = 2_000
    core_window: int = 8_000
    stage_scale: float = 0.2
    repeats: int = 3

    @classmethod
    def quick(cls) -> "BenchLimits":
        # Best-of-4 on the small budgets: CI runners share cores, and the
        # regression gate should reflect achievable throughput, not the
        # noisiest repeat.
        return cls(functional_instructions=120_000,
                   profiled_instructions=80_000,
                   core_warmup=1_000, core_window=3_000,
                   stage_scale=0.1, repeats=4)


# ----------------------------------------------------------------------
# individual measurements
# ----------------------------------------------------------------------

def _best(repeats: int, fn) -> tuple[float, float]:
    """Run ``fn`` ``repeats`` times; return (best elapsed, work units).

    ``fn`` returns the number of work units it performed; the best
    (minimum) wall-clock over the repeats is the least-noisy estimate of
    the true cost, standard micro-benchmark practice.
    """
    best = float("inf")
    units = 0.0
    for _ in range(repeats):
        start = perf_counter()
        units = float(fn())
        elapsed = perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, units


def _make_executor(program, mode: str):
    """Build an Executor in ``mode``; falls back when the executor
    predates dispatch modes (used to benchmark pre-optimization trees)."""
    from repro.sim.executor import Executor

    try:
        return Executor(program, dispatch=mode)
    except TypeError:
        return Executor(program)


def executor_modes() -> tuple[str, ...]:
    """Dispatch modes supported by the executor under test."""
    from repro.sim.executor import Executor

    try:
        Executor.__init__.__wrapped__  # pragma: no cover - never set
    except AttributeError:
        pass
    import inspect

    if "dispatch" in inspect.signature(Executor.__init__).parameters:
        return ("superblock", "reference")
    return ("reference",)


def measure_functional(limits: BenchLimits,
                       metrics: dict[str, float]) -> None:
    from repro.workloads.suite import build_program

    for mode in executor_modes():
        total_rate = 0.0
        for workload in FUNCTIONAL_WORKLOADS:
            program = build_program(workload, scale=1.0, seed=17)

            def run() -> int:
                executor = _make_executor(program, mode)
                return executor.run(
                    max_instructions=limits.functional_instructions)

            elapsed, retired = _best(limits.repeats, run)
            rate = retired / elapsed
            metrics[f"functional.{mode}.{workload}.instr_per_s"] = rate
            total_rate += rate
        metrics[f"functional.{mode}.instr_per_s"] = \
            total_rate / len(FUNCTIONAL_WORKLOADS)
    # The default-dispatch alias is what pre/post snapshots compare on:
    # before superblock dispatch existed this is the reference loop.
    metrics["functional.instr_per_s"] = metrics.get(
        "functional.superblock.instr_per_s",
        metrics["functional.reference.instr_per_s"])
    if "functional.superblock.instr_per_s" in metrics:
        metrics["functional.speedup_over_reference"] = (
            metrics["functional.superblock.instr_per_s"]
            / metrics["functional.reference.instr_per_s"])


def measure_profiled(limits: BenchLimits,
                     metrics: dict[str, float]) -> None:
    """BBV-profiling throughput, timed on the path the flow runs."""
    from repro.profiling.bbv import BBVProfiler
    from repro.workloads.suite import build_program, get_workload

    program = build_program("sha", scale=1.0, seed=17)
    profiler = BBVProfiler(get_workload("sha").interval_for_scale(1.0))

    def run() -> int:
        return profiler.profile(
            program, max_instructions=limits.profiled_instructions
        ).total_instructions

    elapsed, retired = _best(limits.repeats, run)
    metrics["profiled.instr_per_s"] = retired / elapsed


def measure_core(limits: BenchLimits, metrics: dict[str, float]) -> None:
    from repro.uarch.config import config_by_name
    from repro.uarch.core import BoomCore
    from repro.workloads.suite import build_program

    for config_name in CORE_CONFIGS:
        config = config_by_name(config_name)
        cycle_rate = 0.0
        instr_rate = 0.0
        for workload in CORE_WORKLOADS:
            program = build_program(workload, scale=1.0, seed=17)

            def run() -> int:
                core = BoomCore(config, program)
                core.run(limits.core_warmup)
                stats = core.begin_measurement()
                core.run(limits.core_window)
                run.cycles = stats.cycles  # type: ignore[attr-defined]
                return stats.retired

            elapsed, retired = _best(limits.repeats, run)
            cycles = float(run.cycles)  # type: ignore[attr-defined]
            cycle_rate += cycles / elapsed
            instr_rate += retired / elapsed
        n = len(CORE_WORKLOADS)
        metrics[f"core.{config_name}.cycles_per_s"] = cycle_rate / n
        metrics[f"core.{config_name}.instr_per_s"] = instr_rate / n
    metrics["core.cycles_per_s"] = sum(
        metrics[f"core.{c}.cycles_per_s"] for c in CORE_CONFIGS) \
        / len(CORE_CONFIGS)


def measure_batched(limits: BenchLimits,
                    metrics: dict[str, float]) -> None:
    """Batched replay of one checkpoint across the three paper presets.

    Records the config-invariant fetch stream once
    (:class:`~repro.uarch.ftrace.FetchTrace`) and replays it through
    every config's private timing, as the sweep's detailed stage does;
    the tracked metric is aggregate simulated cycles per second across
    the whole batch.
    """
    from repro.checkpoint.checkpoint import Checkpoint
    from repro.sim.executor import Executor
    from repro.uarch.config import ALL_CONFIGS
    from repro.uarch.core import BoomCore
    from repro.uarch.ftrace import FetchTrace
    from repro.workloads.suite import build_program

    program = build_program(BATCH_WORKLOAD, scale=BATCH_SCALE, seed=17)
    executor = Executor(program)
    executor.run(max_instructions=BATCH_CAPTURE)
    checkpoint = Checkpoint.capture(
        executor.state, workload=BATCH_WORKLOAD, interval_index=0,
        weight=1.0, warmup_instructions=limits.core_warmup)

    def run_one(core) -> int:
        core.run(limits.core_warmup)
        stats = core.begin_measurement()
        core.run(limits.core_window)
        return stats.cycles

    def batched() -> int:
        trace = FetchTrace(program, checkpoint.restore())
        cycles = 0
        for config in ALL_CONFIGS:
            cycles += run_one(BoomCore(config, program, trace=trace))
        return cycles

    batched_elapsed, cycles = _best(limits.repeats, batched)
    metrics["core.batched.cycles_per_s"] = cycles / batched_elapsed


def measure_stages(limits: BenchLimits, metrics: dict[str, float]) -> None:
    """Cold wall-clock of each pipeline stage for one pinned workload."""
    from repro.flow.experiment import FlowSettings
    from repro.pipeline.artifacts import ArtifactStore
    from repro.pipeline.stages import ExperimentPipeline
    from repro.uarch.config import config_by_name

    settings = FlowSettings(scale=limits.stage_scale, seed=17)
    pipeline = ExperimentPipeline(ArtifactStore(None), settings)
    config = config_by_name("MediumBOOM")
    steps = (
        ("bbv_profile", lambda: pipeline.profile(STAGE_WORKLOAD)),
        ("simpoint_selection", lambda: pipeline.selection(STAGE_WORKLOAD)),
        ("checkpoints", lambda: pipeline.checkpoints(STAGE_WORKLOAD)),
        ("detailed_sim", lambda: pipeline.detailed(STAGE_WORKLOAD, config)),
        ("power_report", lambda: pipeline.power_runs(STAGE_WORKLOAD,
                                                     config)),
    )
    for name, step in steps:
        start = perf_counter()
        step()
        metrics[f"stage.{name}_s"] = perf_counter() - start


def measure_dse(limits: BenchLimits, metrics: dict[str, float]) -> None:
    """Cold DSE sweep throughput over a pinned 8-point lattice.

    Cacheless on purpose: the metric tracks how fast the flow chews
    through fresh design points, not how fast it replays the artifact
    store.
    """
    from repro.flow.dse import run_dse
    from repro.flow.experiment import FlowSettings
    from repro.uarch.space import SpaceSpec

    spec = SpaceSpec(base="MediumBOOM", count=DSE_POINTS, seed=17,
                     include_presets=False)
    outcome = run_dse(spec,
                      settings=FlowSettings(scale=limits.stage_scale,
                                            seed=17),
                      cache_dir=None, workloads=[DSE_WORKLOAD])
    metrics["dse.points_per_s"] = outcome.points_per_s


def measure_calibration(metrics: dict[str, float]) -> None:
    """A fixed pure-Python loop: the machine-speed yardstick.

    Every gated metric is divided by this score, so its noise multiplies
    into every regression ratio.  An untimed warmup iteration gets the
    loop past CPython's adaptive-specialization ramp, and best-of-5
    (vs best-of-3 elsewhere) narrows the yardstick's own spread.
    """

    def spin() -> int:
        acc = 0
        for i in range(1_000_000):
            acc = (acc ^ i) + (i & 7)
        return 1_000_000

    spin()  # warmup: specialize the bytecode before timing
    elapsed, ops = _best(5, spin)
    metrics["calibration.ops_per_s"] = ops / elapsed


def peak_rss_kb() -> float:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover
        usage //= 1024
    return float(usage)


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------

def run_bench(limits: BenchLimits | None = None, *,
              quick: bool = False) -> dict:
    """Run the full harness; returns the snapshot dict."""
    if limits is None:
        limits = BenchLimits.quick() if quick else BenchLimits()
    metrics: dict[str, float] = {}
    measure_calibration(metrics)
    measure_functional(limits, metrics)
    measure_profiled(limits, metrics)
    measure_core(limits, metrics)
    measure_batched(limits, metrics)
    measure_stages(limits, metrics)
    measure_dse(limits, metrics)
    metrics["peak_rss_kb"] = peak_rss_kb()
    return {
        "schema": SCHEMA_VERSION,
        "date": date.today().isoformat(),
        "quick": limits == BenchLimits.quick(),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "limits": {
            "functional_instructions": limits.functional_instructions,
            "profiled_instructions": limits.profiled_instructions,
            "core_warmup": limits.core_warmup,
            "core_window": limits.core_window,
            "stage_scale": limits.stage_scale,
            "repeats": limits.repeats,
        },
        "metrics": metrics,
    }


def normalized(snapshot: dict, metric: str) -> float | None:
    """Throughput metric divided by the snapshot's calibration score.

    Normalization makes snapshots from different machines comparable:
    both the metric and the yardstick scale with interpreter speed.
    """
    metrics = snapshot.get("metrics", {})
    value = metrics.get(metric)
    cal = metrics.get("calibration.ops_per_s")
    if value is None or not cal:
        return None
    return value / cal


def compare(current: dict, baseline: dict) -> dict[str, dict]:
    """Metric-by-metric comparison (raw and normalized ratios)."""
    out: dict[str, dict] = {}
    base_metrics = baseline.get("metrics", {})
    for metric, value in current.get("metrics", {}).items():
        base = base_metrics.get(metric)
        if base is None or not isinstance(base, (int, float)):
            continue
        entry: dict = {"current": value, "baseline": base}
        if base:
            entry["ratio"] = value / base
        norm_now = normalized(current, metric)
        norm_base = normalized(baseline, metric)
        if norm_now is not None and norm_base:
            entry["normalized_ratio"] = norm_now / norm_base
        out[metric] = entry
    return out


def _gated(metric: str) -> bool:
    return (metric.startswith(THROUGHPUT_PREFIXES)
            and not metric.startswith(UNGATED_PREFIXES))


def regression_failures(current: dict, baseline: dict,
                        threshold: float = DEFAULT_THRESHOLD) -> list[str]:
    """Gated metrics that regressed past ``threshold`` (normalized).

    A gated metric present in only one of the two snapshots fails too:
    a metric the baseline lacks is never compared, so it must not pass
    the gate silently.
    """
    now = {m for m in current.get("metrics", {}) if _gated(m)}
    base = {m for m in baseline.get("metrics", {}) if _gated(m)}
    failures = [f"{metric}: missing from the baseline"
                for metric in sorted(now - base)]
    failures += [f"{metric}: missing from the current snapshot"
                 for metric in sorted(base - now)]
    for metric, entry in compare(current, baseline).items():
        if not _gated(metric):
            continue
        ratio = entry.get("normalized_ratio", entry.get("ratio"))
        if ratio is not None and ratio < 1.0 - threshold:
            failures.append(
                f"{metric}: {entry['current']:.0f} vs baseline "
                f"{entry['baseline']:.0f} (normalized ratio {ratio:.2f} "
                f"< {1.0 - threshold:.2f})")
    return failures


def find_previous_snapshot(root: Path) -> Path | None:
    """The most recent committed ``BENCH_<date>.json`` under ``root``."""
    candidates = sorted(root.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def load_snapshots(root: Path) -> list[tuple[str, dict]]:
    """All readable ``BENCH_*.json`` under ``root``, oldest first."""
    snapshots: list[tuple[str, dict]] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            snapshots.append((path.name, json.loads(path.read_text())))
        except ValueError:
            print(f"warning: unreadable snapshot {path}", file=sys.stderr)
    return snapshots


def format_trend(snapshots: list[tuple[str, dict]], *,
                 metrics: list[str] | None = None) -> str:
    """Per-metric trajectory across committed snapshots.

    One row per metric, one column per snapshot: the calibration-
    normalized ratio vs the *previous* snapshot (so ``1.00`` is flat,
    ``2.00`` means that PR doubled the metric), with the latest raw
    value at the end of the row.  Metrics default to the gated
    throughput set — the history that used to require grepping every
    ``BENCH_*.json`` by hand.
    """
    if len(snapshots) < 2:
        return "(need at least two BENCH_*.json snapshots for a trend)"
    if metrics is None:
        names = sorted({
            metric
            for _, snapshot in snapshots
            for metric in snapshot.get("metrics", {})
            if _gated(metric)})
    else:
        names = list(metrics)
    dates = [name.removeprefix("BENCH_").removesuffix(".json")
             for name, _ in snapshots]
    width = max(len(d) for d in dates[1:])
    header = f"{'metric':<42}" + "".join(
        f" {d:>{width}}" for d in dates[1:]) + f" {'latest':>14}"
    lines = [header, "-" * len(header)]
    for metric in names:
        cells = []
        for (_, previous), (_, current) in zip(snapshots, snapshots[1:]):
            now = normalized(current, metric)
            before = normalized(previous, metric)
            if now is None or before is None:
                now = current.get("metrics", {}).get(metric)
                before = previous.get("metrics", {}).get(metric)
            if now is None or not before:
                cells.append(f"{'-':>{width}}")
            else:
                cells.append(f"{now / before:>{width}.2f}")
        latest = snapshots[-1][1].get("metrics", {}).get(metric)
        latest_cell = f"{latest:>14,.1f}" if latest is not None \
            else f"{'-':>14}"
        lines.append(f"{metric:<42}" + "".join(f" {c}" for c in cells)
                     + f" {latest_cell}")
    return "\n".join(lines)


def format_snapshot(snapshot: dict, comparison: dict | None = None) -> str:
    lines = [f"benchmark snapshot {snapshot['date']} "
             f"(quick={snapshot.get('quick', False)})"]
    for metric in sorted(snapshot["metrics"]):
        value = snapshot["metrics"][metric]
        line = f"  {metric:<42} {value:>14,.1f}"
        if comparison and metric in comparison:
            ratio = comparison[metric].get("ratio")
            if ratio is not None:
                line += f"  ({ratio:.2f}x vs baseline)"
        lines.append(line)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="hot-path benchmark harness; emits BENCH_<date>.json")
    parser.add_argument("--quick", action="store_true",
                        help="small budgets for CI smoke runs")
    parser.add_argument("--output", "-o", default=None,
                        help="output path (default BENCH_<date>.json in "
                             "the current directory)")
    parser.add_argument("--baseline", default=None,
                        help="snapshot to compare against (default: the "
                             "latest BENCH_*.json in the current dir)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a regression past --threshold")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and compare without writing a file")
    parser.add_argument("--trend", action="store_true",
                        help="print the per-metric trajectory across all "
                             "committed BENCH_*.json and exit (no "
                             "measurement)")
    parser.add_argument("--trend-dir", default=None,
                        help="directory holding BENCH_*.json snapshots "
                             "(default: benchmarks/ when it has any, else "
                             "the current directory)")
    parser.add_argument("--metric", action="append", default=None,
                        help="restrict --trend to this metric (repeatable)")
    args = parser.parse_args(argv)

    if args.trend:
        if args.trend_dir:
            root = Path(args.trend_dir)
        else:
            root = Path("benchmarks")
            if not any(root.glob("BENCH_*.json")):
                root = Path.cwd()
        print(format_trend(load_snapshots(root), metrics=args.metric))
        return 0

    snapshot = run_bench(quick=args.quick)

    baseline = None
    baseline_path = Path(args.baseline) if args.baseline else \
        find_previous_snapshot(Path.cwd())
    if baseline_path is not None and baseline_path.exists():
        try:
            baseline = json.loads(baseline_path.read_text())
        except ValueError:
            print(f"warning: unreadable baseline {baseline_path}",
                  file=sys.stderr)

    comparison = compare(snapshot, baseline) if baseline else None
    if comparison:
        snapshot["baseline"] = str(baseline_path)
        snapshot["comparison"] = comparison

    print(format_snapshot(snapshot, comparison))

    if not args.no_write:
        output = Path(args.output) if args.output else \
            Path(f"BENCH_{snapshot['date']}.json")
        output.write_text(json.dumps(snapshot, indent=2, sort_keys=True)
                          + "\n")
        print(f"wrote {output}")

    if args.check and baseline:
        failures = regression_failures(snapshot, baseline, args.threshold)
        if failures:
            print("PERFORMANCE REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"regression check passed (threshold "
              f"{args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
