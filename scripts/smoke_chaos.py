#!/usr/bin/env python3
"""Kill -9 chaos smoke test (CI gate for crash recovery + resume).

The property under test: *no matter where a sweep process is killed,
``repro-cli recover`` + ``--resume`` converge on artifacts
byte-identical to an uninterrupted run.*

The script runs an uninterrupted baseline sweep into cache A, then
repeatedly launches the same sweep against cache B as a real child
process group and SIGKILLs it — landing kills inside stage computes,
mid-rename, between journal claim and commit, while leases are held.

Each kill falls once the child has published a seeded-random number of
new artifacts (at least one, and never so many that the kills still to
come run out of work), or at ``--max-delay`` seconds, whichever comes
first.  Drawing the kill point from the child's own progress, not from
wall time, is what makes every kill land: a resumed scale-0.05 sweep
finishes in about a second.  A child that exits before its kill fails
the smoke, so it can never pass with fewer kills than ``--kills``.

After each kill it runs :func:`recover_cache` (asserting the storage
audit comes back clean) and resumes.  The final resume must count as
already complete exactly the results the store held before it.  Once
the sweep finally completes, every stage artifact in B must be
byte-identical to A, and no quarantined garbage may have leaked back
into the stage directories.

Usage (from any directory)::

    PYTHONPATH=<repo>/src python <repo>/scripts/smoke_chaos.py
        [--scale 0.05] [--kills 4] [--seed 0] [--max-delay 6.0]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.check.storage import validate_storage
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.pipeline.artifacts import INTERNAL_DIRS
from repro.pipeline.journal import recover_cache
from repro.pipeline.stages import RESULT_STAGE

#: the child's import path, independent of the working directory
SRC = Path(__file__).resolve().parent.parent / "src"

#: the child sweep, run as its own process group so SIGKILL takes the
#: whole pool down at once — exactly the operator's kill -9
_CHILD = """
import sys
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner

runner = SweepRunner(FlowSettings(scale=float(sys.argv[2])),
                     cache_dir=sys.argv[1])
runner.run_all(jobs=2, resume=True)
"""


def _artifacts(cache: Path) -> list[Path]:
    """Every stage artifact file (bookkeeping excluded).

    ``os.walk`` skips a directory that a live child renames away
    mid-walk (a checkpoint directory's scratch sibling), where
    ``rglob`` would raise.
    """
    found = []
    for folder, _, files in os.walk(cache):
        for name in files:
            path = Path(folder) / name
            relative = path.relative_to(cache)
            if relative.parts[0] in INTERNAL_DIRS or \
                    relative.suffix == ".lock" or \
                    relative.name in ("run_manifest.json",
                                      "sweep_state.json"):
                continue
            found.append(path)
    return sorted(found)


def _artifact_digests(cache: Path) -> dict[str, str]:
    """sha256 of every stage artifact."""
    return {str(path.relative_to(cache)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in _artifacts(cache)}


def _launch(cache: Path, scale: float, log) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(cache), str(scale)],
        start_new_session=True,  # its own process group: killable whole
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL, stderr=log)


def _kill_at(child: subprocess.Popen, cache: Path, target: int,
             max_delay: float) -> float:
    """SIGKILL ``child``'s group once ``cache`` holds ``target``
    artifacts or ``max_delay`` seconds have passed; returns the delay.

    Raises :class:`SystemExit` if the child exits first.
    """
    started = time.monotonic()
    while True:
        delay = time.monotonic() - started
        if child.poll() is not None:
            raise SystemExit(
                f"chaos FAILED: the child sweep exited with status "
                f"{child.returncode} after {delay:.1f}s, before its kill")
        if delay >= max_delay or len(_artifacts(cache)) >= target:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return delay
        time.sleep(0.005)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--kills", type=int, default=4,
                        help="number of kill-9 interruptions to inflict")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the kill-point draws")
    parser.add_argument("--max-delay", type=float, default=6.0,
                        help="upper bound on each kill delay (seconds)")
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)

    with tempfile.TemporaryDirectory() as a, \
            tempfile.TemporaryDirectory() as b, \
            tempfile.TemporaryDirectory() as logs:
        baseline_cache, chaos_cache = Path(a), Path(b)

        print(f"baseline: uninterrupted sweep (scale {args.scale:g})")
        runner = SweepRunner(FlowSettings(scale=args.scale),
                             cache_dir=baseline_cache)
        baseline_results = runner.run_all(jobs=2)
        assert runner.last_manifest.ok, "baseline sweep must be clean"
        baseline = _artifact_digests(baseline_cache)
        print(f"baseline OK: {len(baseline_results)} experiments, "
              f"{len(baseline)} artifacts")

        for kills in range(1, args.kills + 1):
            present = len(_artifacts(chaos_cache))
            # leave at least one artifact unpublished for this kill and
            # each kill after it
            share = (len(baseline) - present) // (args.kills - kills + 2)
            if share < 1:
                raise SystemExit(
                    f"chaos FAILED: kill {kills} of {args.kills} cannot "
                    f"land: {len(baseline) - present} artifacts left")
            target = present + rng.randint(1, share)
            log_path = Path(logs) / f"child-{kills}.log"
            with open(log_path, "w") as log:
                child = _launch(chaos_cache, args.scale, log)
                try:
                    delay = _kill_at(child, chaos_cache, target,
                                     args.max_delay)
                except SystemExit:
                    print(log_path.read_text(), file=sys.stderr)
                    raise
            # the group is dying, not instantly dead: a SIGKILLed worker
            # can briefly still probe as alive.  Recovery is idempotent,
            # so run it until the audit settles clean.
            for _ in range(50):
                report = recover_cache(chaos_cache)
                audit = validate_storage(chaos_cache)
                if audit.ok:
                    break
                time.sleep(0.1)
            assert audit.ok, (
                f"storage audit failed after recover: {audit.problems}")
            print(f"  kill {kills} after {delay:.1f}s "
                  f"(target {target}/{len(baseline)} artifacts): "
                  f"{len(report.quarantined)} quarantined, "
                  f"{report.leases_released} leases released, "
                  f"{report.tmp_removed} tmp removed — audit clean")
            time.sleep(0.1)

        # final recover + resume to completion (in-process, so the run
        # manifest is inspectable) — the operator's documented sequence
        recover_cache(chaos_cache)
        stored = sum(path.relative_to(chaos_cache).parts[0] == RESULT_STAGE
                     for path in _artifacts(chaos_cache))
        final = SweepRunner(FlowSettings(scale=args.scale),
                            cache_dir=chaos_cache)
        results = final.run_all(jobs=2, resume=True)
        assert final.last_manifest.ok, (
            f"resumed sweep not clean: "
            f"{[r.key for r in final.last_manifest.failures]}")
        # the store is the record of finished work: every result it
        # held before the resume is counted as already complete
        assert final.resumed_completed == stored, (
            f"resume counted {final.resumed_completed} completed "
            f"experiments, the store held {stored} results")
        print(f"  final resume: {stored} of {len(baseline_results)} "
              f"experiments already complete")
        assert {key for key in results} == set(baseline_results), \
            "resumed sweep lost experiments"

        chaos = _artifact_digests(chaos_cache)
        missing = set(baseline) - set(chaos)
        extra = set(chaos) - set(baseline)
        assert not missing, f"artifacts missing after recovery: {missing}"
        assert not extra, f"unexpected artifacts after recovery: {extra}"
        different = [name for name, digest in baseline.items()
                     if chaos[name] != digest]
        assert not different, (
            f"artifacts differ from uninterrupted run: {different}")

        state = json.loads(
            (chaos_cache / "sweep_state.json").read_text())
        assert state["status"] == "complete", state["status"]

    print(f"\nchaos OK: {args.kills} kill -9 interruption(s) recovered; "
          f"{len(chaos)} artifacts byte-identical to the uninterrupted "
          f"run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
