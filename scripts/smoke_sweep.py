#!/usr/bin/env python3
"""Cold-then-warm sweep smoke test for the staged pipeline (CI gate).

Runs the full workload x configuration sweep twice against a fresh
cache directory and asserts the pipeline's two core guarantees:

* cold: the per-workload stages (BBV profiling, SimPoint selection,
  checkpoint creation) execute exactly once per workload, shared across
  all configurations;
* warm: every result is served from the cache — zero stage executions
  (in particular zero detailed-simulation runs), a 100 % hit rate, and
  byte-identical results.

Usage::

    PYTHONPATH=src python scripts/smoke_sweep.py [--scale 0.05] [--jobs 2]
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.pipeline.stages import STAGE_ORDER, WORKLOAD_STAGES
from repro.pipeline.stages import DETAILED_STAGE
from repro.workloads.suite import workload_names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)

    settings = FlowSettings(scale=args.scale)
    num_workloads = len(workload_names())
    with tempfile.TemporaryDirectory() as cache:
        cold = SweepRunner(settings, cache_dir=cache)
        cold_results = cold.run_all(jobs=args.jobs)
        manifest = cold.last_manifest
        print("cold sweep:")
        print(manifest.format())
        for stage in WORKLOAD_STAGES:
            executed = manifest.executions(stage)
            assert executed == num_workloads, (
                f"cold: {stage} executed {executed}x, expected exactly "
                f"once per workload ({num_workloads})")

        warm = SweepRunner(settings, cache_dir=cache)
        warm_results = warm.run_all(jobs=args.jobs)
        manifest = warm.last_manifest
        print("\nwarm sweep:")
        print(manifest.format())
        assert manifest.executions(DETAILED_STAGE) == 0, (
            "warm: detailed simulation ran again")
        for stage in STAGE_ORDER:
            executed = manifest.executions(stage)
            assert executed == 0, f"warm: {stage} executed {executed}x"
        assert manifest.hit_rate == 1.0, (
            f"warm: hit rate {manifest.hit_rate:.1%}, expected 100%")

        assert set(cold_results) == set(warm_results)
        for key, result in cold_results.items():
            assert warm_results[key].to_json() == result.to_json(), (
                f"warm result differs for {key}")

    print(f"\nsmoke OK: {len(cold_results)} experiments, "
          f"{num_workloads} workloads, scale {args.scale:g}, "
          f"jobs {args.jobs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
