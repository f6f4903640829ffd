#!/usr/bin/env python3
"""Validation-layer smoke test (CI gate for ``repro.check``).

Proves the checker subsystem end to end, including that it is **not
vacuous** — every guarded fault class must actually be caught:

1. **clean** — ``repro-cli check`` (invariants + differential run +
   power/result validators) passes on an uncorrupted MediumBOOM run;
2. **invariant faults** — injected core-state corruptions (free-list
   leak, occupancy drift, ROB over-capacity, and an occupancy drift an
   observer writes mid-run on the fused loop, which every
   collapsing-queue result comes from) each raise
   :class:`InvariantViolation` naming the broken law;
3. **differential fault** — a tampered architectural register is pinned
   down by the lockstep functional re-execution;
4. **skew fault** — a ``repro.pipeline.faults`` ``skew`` fault leaves a
   cached result as *valid JSON with impossible values*; a fresh runner
   must detect it at the load boundary, discard, and recompute a result
   byte-identical to baseline;
5. **byte-identity** — a run with ``REPRO_CHECK=1`` produces artifacts
   byte-identical to an unchecked run.

Usage::

    PYTHONPATH=src python scripts/smoke_check.py [--scale 0.05]
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.check import set_checks_enabled
from repro.check.differential import diff_core_against_reference
from repro.check.invariants import CoreInvariantChecker
from repro.check.runner import run_check
from repro.checkpoint.checkpoint import Checkpoint
from repro.errors import InvariantViolation
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.pipeline.stages import RESULT_STAGE
from repro.sim.executor import Executor
from repro.uarch.config import MEDIUM_BOOM
from repro.uarch.core import BoomCore
from repro.workloads.suite import build_program

WORKLOAD = "dijkstra"


def _expect_violation(label: str, corrupt, caught: list[str],
                      mid_run: bool = False) -> None:
    """Corrupt a mid-flight core and require the checker to object.

    With ``mid_run`` the corruption is an observer's write inside the
    run, which the loop goes on with: the checker's next stride (or its
    final check) must catch it.
    """
    program = build_program(WORKLOAD, scale=0.05, seed=17)
    core = BoomCore(MEDIUM_BOOM, program)
    checker = CoreInvariantChecker(core)
    if not mid_run:
        core.run(1500)
        checker.check()  # clean before the corruption
        corrupt(core)
    try:
        if mid_run:
            core.run(observers=[checker, lambda: corrupt(core)])
        checker.check()
    except InvariantViolation as exc:
        print(f"  caught [{label}]: {exc}")
        caught.append(label)
        return
    raise AssertionError(f"{label}: corruption not caught")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args(argv)
    settings = FlowSettings(scale=args.scale)

    # 1. clean end-to-end check pass -----------------------------------
    with tempfile.TemporaryDirectory() as cache:
        runner = SweepRunner(settings, cache_dir=cache)
        report = run_check(WORKLOAD, MEDIUM_BOOM, runner.settings,
                           runner.store)
        print(report.format())
        assert report.ok, "clean run must pass every check"

    # 2. injected invariant faults must be caught ----------------------
    caught: list[str] = []
    print("\ninvariant fault injection:")
    _expect_violation(
        "rename free-list leak",
        lambda core: setattr(core.rename.int_unit, "free",
                             core.rename.int_unit.free - 1), caught)
    _expect_violation(
        "branch occupancy drift",
        lambda core: setattr(core, "branches_in_flight",
                             core.branches_in_flight + 1), caught)
    _expect_violation(
        "ROB over capacity",
        lambda core: setattr(core.rob, "entries", len(core.rob) - 1),
        caught)
    _expect_violation(
        "mid-run branch drift on the fused loop",
        lambda core: setattr(core, "branches_in_flight",
                             core.branches_in_flight + 1), caught,
        mid_run=True)

    # 3. differential divergence must be caught ------------------------
    program = build_program(WORKLOAD, scale=0.05, seed=17)
    executor = Executor(program)
    executor.run(max_instructions=500)
    checkpoint = Checkpoint.capture(executor.state, workload=WORKLOAD,
                                    interval_index=0, weight=1.0,
                                    warmup_instructions=0)
    core = BoomCore(MEDIUM_BOOM, program, state=checkpoint.restore())
    core.retire_log = []
    core.run(1000)
    core.frontend.trace.state.x[9] ^= 0xBAD
    diff = diff_core_against_reference(core, program, checkpoint.restore(),
                                       raise_on_mismatch=False)
    assert not diff.ok, "tampered register not caught by differential run"
    print(f"  caught [differential]: {diff.divergence}")
    caught.append("differential divergence")

    # 4. skew fault: valid-JSON corruption caught at load --------------
    print("\nskew fault injection:")
    with tempfile.TemporaryDirectory() as cache:
        baseline = SweepRunner(settings, cache_dir=cache).run(
            WORKLOAD, MEDIUM_BOOM).to_json()
    with tempfile.TemporaryDirectory() as cache:
        poisoned = SweepRunner(
            FlowSettings(scale=args.scale,
                         faults=f"artifact.write:skew:n=1:k={RESULT_STAGE}"),
            cache_dir=cache)
        poisoned.run(WORKLOAD, MEDIUM_BOOM)
        # The result artifact on disk now holds impossible values behind
        # valid JSON.  A fresh runner must catch that at the load
        # boundary (validator -> corrupt-artifact path) and recompute.
        warm = SweepRunner(settings, cache_dir=cache)
        recomputed = warm.run(WORKLOAD, MEDIUM_BOOM).to_json()
        corrupt_seen = sum(stats.corrupt
                           for stats in warm.store.stats().values())
        assert corrupt_seen >= 1, (
            "skewed artifact was served without validation")
        assert recomputed == baseline, (
            "recomputed result differs from baseline")
        print(f"  caught [skew]: artifact discarded and recomputed, "
              f"byte-identical to baseline")
        caught.append("skewed artifact")

    assert len(caught) >= 3, f"caught only {len(caught)} fault classes"

    # 5. REPRO_CHECK=1 must not change artifacts -----------------------
    set_checks_enabled(True)
    try:
        with tempfile.TemporaryDirectory() as cache:
            checked = SweepRunner(settings, cache_dir=cache).run(
                WORKLOAD, MEDIUM_BOOM).to_json()
    finally:
        set_checks_enabled(False)
    assert checked == baseline, "REPRO_CHECK=1 changed the result"
    print("\nchecked run byte-identical to unchecked baseline")

    print(f"\nsmoke OK: clean pass, {len(caught)} fault classes caught "
          f"({', '.join(caught)}), scale {args.scale:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
