#!/usr/bin/env python3
"""Fault-injection sweep smoke test (CI gate for the recovery paths).

Runs the full workload x configuration sweep three times against fresh
cache directories:

* **baseline** — fault-free serial run; the bit-exactness reference;
* **crash** — a worker process is ``os._exit``-killed mid-sweep (the
  ``BrokenProcessPool`` signature of an OOM kill); the supervised
  scheduler must respawn the pool, re-enqueue only the lost tasks, and
  finish with a clean manifest and results byte-identical to baseline;
* **corrupt + flaky I/O** — one result artifact is garbled on write and
  artifact reads suffer transient injected I/O errors; the corrupt
  artifact must be discarded and recomputed, the I/O errors retried,
  and the sweep must again end clean and byte-identical.

Usage::

    PYTHONPATH=src python scripts/smoke_faults.py [--scale 0.05] [--jobs 2]
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.pipeline.stages import RESULT_STAGE


def _run(settings: FlowSettings, jobs: int):
    with tempfile.TemporaryDirectory() as cache:
        runner = SweepRunner(settings, cache_dir=cache)
        results = runner.run_all(jobs=jobs)
        return ({key: result.to_json() for key, result in results.items()},
                runner.last_manifest)


def _check(name: str, manifest, results, baseline) -> None:
    print(f"\n{name} sweep:")
    print(manifest.format())
    assert manifest.ok, (
        f"{name}: manifest not clean — failures="
        f"{[record.key for record in manifest.failures]} "
        f"timeouts={[record.key for record in manifest.timeouts]}")
    assert set(results) == set(baseline), f"{name}: experiment set differs"
    for key, payload in baseline.items():
        assert results[key] == payload, f"{name}: result differs for {key}"
    print(f"{name} OK: recovered, {len(results)} experiments "
          f"byte-identical to baseline "
          f"(retries: {manifest.total_retries})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-injection seed")
    args = parser.parse_args(argv)
    jobs = max(2, args.jobs)  # worker-site faults need a process pool

    baseline_settings = FlowSettings(scale=args.scale)
    baseline, manifest = _run(baseline_settings, jobs=1)
    print("baseline sweep:")
    print(manifest.format())
    assert manifest.ok, "baseline: fault-free sweep must be clean"

    crash_settings = FlowSettings(
        scale=args.scale, fault_seed=args.seed,
        faults="worker.experiment:crash:n=1")
    results, manifest = _run(crash_settings, jobs=jobs)
    assert manifest.total_retries >= 1, "crash: lost task was not retried"
    _check("crash", manifest, results, baseline)

    corrupt_settings = FlowSettings(
        scale=args.scale, fault_seed=args.seed,
        faults=f"artifact.write:corrupt:n=1:k={RESULT_STAGE},"
               f"artifact.read:io:p=0.2:n=3")
    with tempfile.TemporaryDirectory() as cache:
        poisoned = SweepRunner(corrupt_settings, cache_dir=cache)
        results = poisoned.run_all(jobs=jobs)
        results = {key: result.to_json() for key, result in results.items()}
        _check("corrupt+io (cold)", poisoned.last_manifest, results,
               baseline)
        # one result artifact on disk is now garbage; a fresh runner must
        # detect it on read, discard it, and recompute — not crash or
        # serve the corruption
        warm = SweepRunner(FlowSettings(scale=args.scale), cache_dir=cache)
        reread = warm.run_all(jobs=1)
        reread = {key: result.to_json() for key, result in reread.items()}
        manifest = warm.last_manifest
        corrupt_seen = sum(stats.corrupt
                           for stats in warm.store.stats().values())
        assert corrupt_seen >= 1, (
            "corrupt: warm re-read never detected the garbled artifact")
        _check("corrupt+io (warm re-read)", manifest, reread, baseline)

    print(f"\nsmoke OK: crash and corruption injection recovered, "
          f"{len(baseline)} experiments, scale {args.scale:g}, jobs {jobs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
