"""The ``repro-cli check`` entry point: one full validation pass.

For one (workload, config) pair this materializes the shared pipeline
stages (profile -> SimPoints -> checkpoints, cached like any sweep), then
runs every checkpoint through the detailed core with

* runtime invariants attached as the core's observer (and a final
  check after the pipeline drains),
* the commit log enabled, so the run is differentially validated against
  an independent functional re-execution of the same checkpoint,
* the power model applied to the measured window and its report
  validated,

and finally assembles the SimPoint-weighted :class:`ExperimentResult`
from those runs and validates it — the same validators the sweep applies
at its artifact load/save boundaries.  One pass therefore exercises
every layer of :mod:`repro.check` against real model state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.differential import diff_core_against_reference
from repro.check.invariants import CoreInvariantChecker
from repro.check.validators import validate_report, validate_result
from repro.errors import CheckError


@dataclass
class CheckReport:
    """Outcome of one ``repro-cli check`` pass."""

    workload: str
    config_name: str
    checkpoints: int = 0
    invariant_checks: int = 0
    differential_instructions: int = 0
    commit_pcs_checked: int = 0
    #: failure messages, in the order they were found (empty when clean)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [f"check {self.workload}/{self.config_name}:",
                 f"  checkpoints validated     {self.checkpoints}",
                 f"  invariant checks run      {self.invariant_checks}",
                 f"  differential instructions {self.differential_instructions}",
                 f"  commit PCs cross-checked  {self.commit_pcs_checked}"]
        if self.ok:
            lines.append("  PASS: all invariants, differential runs, and "
                         "validators clean")
        else:
            lines.append(f"  FAIL: {len(self.failures)} problem(s)")
            lines.extend(f"    - {message}" for message in self.failures)
        return "\n".join(lines)


def run_check(workload: str, config, settings, store) -> CheckReport:
    """Validate one (workload, config) pair end to end."""
    # Imported here: repro.pipeline.stages imports repro.check for its
    # own wiring, so a module-level import would be circular.
    from repro.pipeline.stages import (
        ExperimentPipeline,
        assemble_result,
        power_runs_from_raw,
    )
    from repro.sim.batch import raw_record
    from repro.uarch.core import BoomCore
    from repro.workloads.suite import get_workload

    report = CheckReport(workload=workload, config_name=config.name)
    pipeline = ExperimentPipeline(store, settings)
    program = pipeline.program(workload)
    selection = pipeline.selection(workload)
    checkpoints = pipeline.checkpoints(workload)
    interval = get_workload(workload).interval_for_scale(settings.scale)
    raw: list[dict] = []

    for checkpoint in checkpoints:
        report.checkpoints += 1
        core = BoomCore(config, program, state=checkpoint.restore())
        core.retire_log = []
        checker = CoreInvariantChecker(core)
        window = checkpoint.measure_instructions or interval
        try:
            if checkpoint.warmup_instructions:
                core.warm_up(checkpoint.warmup_instructions,
                             observers=[checker])
            stats = core.begin_measurement()
            measured = core.run(window, observers=[checker])
            checker.check()
        except CheckError as exc:
            report.invariant_checks += checker.checks_run
            report.failures.append(
                f"checkpoint {checkpoint.interval_index}: {exc}")
            continue
        report.invariant_checks += checker.checks_run

        diff = diff_core_against_reference(core, program,
                                           checkpoint.restore(),
                                           raise_on_mismatch=False)
        report.differential_instructions += diff.instructions
        report.commit_pcs_checked += diff.commit_pcs_checked
        if not diff.ok:
            report.failures.append(
                f"checkpoint {checkpoint.interval_index}: {diff.format()}")

        raw.append(raw_record(checkpoint, measured, stats))

    runs = power_runs_from_raw(raw, config, workload)
    for run in runs:
        report.failures.extend(
            f"checkpoint {run.interval_index} power: {problem}"
            for problem in validate_report(run.report))
    if runs:
        result = assemble_result(workload, config, settings, selection,
                                 runs)
        report.failures.extend(f"result: {problem}"
                               for problem in validate_result(result))
    return report
