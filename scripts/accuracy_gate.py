#!/usr/bin/env python3
"""Model-accuracy drift gate against the committed envelopes (CI gate).

The preset gate pins *bit-identity* of the pipeline for refactors that
promise it; this gate pins the *numbers* for changes that don't.  It
re-measures every envelope's workload across the three paper presets at
the envelopes' pinned scale/seed (fresh cache — nothing stale can leak
in), evaluates IPC, tile power, per-component power shares, and the
per-interval IPC profile against ``benchmarks/accuracy/*.json``, and
fails on any metric outside its tolerance band.  The sweep runs with the
flight recorder armed, so a failing gate ships an interval-level
timeline (``--flight-out``) for CI to upload — the drift arrives with
its own attribution.

``--self-test`` proves the gate can actually catch drift: it poisons a
scratch cache with a seeded ``bend`` fault (every ``cycles``/``ipc``
leaf of the result artifacts scaled ~10% — valid, plausible JSON that
every structural validator accepts), re-reads the sweep warm from that
cache, and asserts the evaluation FAILS.  A gate that cannot fail is
decoration; CI runs the self-test right after the clean pass.

Usage::

    PYTHONPATH=src python scripts/accuracy_gate.py               # gate
    PYTHONPATH=src python scripts/accuracy_gate.py --self-test   # prove it
    PYTHONPATH=src python scripts/accuracy_gate.py --update      # regen
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.analysis.accuracy import (
    build_envelope,
    evaluate_accuracy,
    format_accuracy,
    load_envelopes,
    write_envelope,
)
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.obs.flight import FLIGHT_ENV, flight_samples
from repro.obs.session import latest_run_dir

#: pinned gate parameters — changing them requires --update
GATE_SCALE = 0.05
GATE_SEED = 17

ENVELOPE_DIR = (Path(__file__).resolve().parents[1]
                / "benchmarks" / "accuracy")

#: the seeded perturbation for --self-test: bend every result artifact
BEND_SPEC = "artifact.write:bend:n=0:k=experiment_result"


def run_sweep(cache: str, *, scale: float, seed: int,
              workloads: list[str] | None, jobs: int,
              faults: str | None = None, flight: bool = False):
    """One sweep; returns (results, flight document or None)."""
    settings = FlowSettings(scale=scale, seed=seed, faults=faults)
    runner = SweepRunner(settings, cache_dir=cache)
    saved = os.environ.get(FLIGHT_ENV)
    if flight:
        os.environ[FLIGHT_ENV] = "1"
    try:
        # run_all owns the trace session; the recorder emits its
        # samples through the session's tracers (REPRO_FLIGHT arms it).
        results = runner.run_all(workloads=workloads, jobs=jobs,
                                 trace=flight)
    finally:
        if flight:
            if saved is None:
                os.environ.pop(FLIGHT_ENV, None)
            else:
                os.environ[FLIGHT_ENV] = saved
    document = None
    if flight:
        run_dir = latest_run_dir(cache)
        if run_dir is not None and (run_dir / "trace.json").is_file():
            document = flight_samples(
                json.loads((run_dir / "trace.json").read_text()))
    return results, document


def gate(args: argparse.Namespace) -> int:
    envelopes = load_envelopes(ENVELOPE_DIR)
    if args.workloads:
        wanted = set(args.workloads)
        envelopes = {workload: envelope
                     for workload, envelope in envelopes.items()
                     if workload in wanted}
    if not envelopes:
        print(f"no envelopes under {ENVELOPE_DIR}; generate them with "
              f"--update", file=sys.stderr)
        return 2
    scales = {envelope["scale"] for envelope in envelopes.values()}
    if scales != {GATE_SCALE}:
        print(f"envelopes were built at scale {sorted(scales)}, the gate "
              f"is pinned to {GATE_SCALE}; regenerate with --update",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as cache:
        results, flight = run_sweep(
            cache, scale=GATE_SCALE, seed=GATE_SEED,
            workloads=sorted(envelopes), jobs=args.jobs, flight=True)
        if flight is not None and args.flight_out:
            out = Path(args.flight_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(flight, indent=2, sort_keys=True)
                           + "\n")
            print(f"flight timeline saved to {args.flight_out}",
                  file=sys.stderr)
    evaluation = evaluate_accuracy(results, envelopes)
    print(format_accuracy(evaluation))
    if not evaluation.ok:
        print(f"\nACCURACY DRIFT: {len(evaluation.violations)} metric(s) "
              f"out of band, {len(evaluation.missing)} coverage gap(s). "
              f"If the model change is intentional, regenerate with "
              f"`scripts/accuracy_gate.py --update` and review the diff.",
              file=sys.stderr)
        return 1
    print(f"\naccuracy gate OK: {len(evaluation.checks)} metrics inside "
          f"their envelopes across {len(envelopes)} workloads")
    return 0


def self_test(args: argparse.Namespace) -> int:
    """Prove the gate catches a seeded model perturbation."""
    workloads = args.workloads or ["sha", "dijkstra"]
    envelopes = {workload: envelope
                 for workload, envelope
                 in load_envelopes(ENVELOPE_DIR).items()
                 if workload in set(workloads)}
    if not envelopes:
        print(f"no envelopes for {workloads} under {ENVELOPE_DIR}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as cache:
        # Cold pass with the bend fault armed: the computed results are
        # clean (the bend is applied to the artifact *files*), so this
        # also re-checks that in-memory results still pass...
        cold, _ = run_sweep(cache, scale=GATE_SCALE, seed=GATE_SEED,
                            workloads=workloads, jobs=args.jobs,
                            faults=BEND_SPEC)
        if not evaluate_accuracy(cold, envelopes).ok:
            print("self-test broken: the cold (in-memory) results "
                  "already violate the envelopes", file=sys.stderr)
            return 1
        # ...and the warm pass reads the poisoned artifacts back — the
        # silent-drift scenario the gate exists for.
        warm, _ = run_sweep(cache, scale=GATE_SCALE, seed=GATE_SEED,
                            workloads=workloads, jobs=args.jobs)
    evaluation = evaluate_accuracy(warm, envelopes)
    print(format_accuracy(evaluation))
    if evaluation.ok:
        print("\nSELF-TEST FAILED: a ~10% bend of every result artifact "
              "passed the accuracy gate — the envelopes are not "
              "protecting anything", file=sys.stderr)
        return 1
    print(f"\nself-test OK: the seeded bend was caught "
          f"({len(evaluation.violations)} metrics out of band)")
    return 0


def update(args: argparse.Namespace) -> int:
    with tempfile.TemporaryDirectory() as cache:
        results, _ = run_sweep(cache, scale=GATE_SCALE, seed=GATE_SEED,
                               workloads=args.workloads, jobs=args.jobs)
    by_workload: dict[str, dict] = {}
    for (workload, config), result in results.items():
        by_workload.setdefault(workload, {})[config] = result
    for workload in sorted(by_workload):
        path = write_envelope(ENVELOPE_DIR, build_envelope(
            workload, by_workload[workload],
            scale=GATE_SCALE, seed=GATE_SEED))
        print(f"wrote {path}")
    print(f"{len(by_workload)} envelope(s) regenerated — review the diff "
          f"before committing")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="regenerate the committed envelopes")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate fails on a seeded bend")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=None,
                        metavar="WORKLOAD",
                        help="restrict the sweep (default: every "
                             "envelope; self-test default: sha dijkstra)")
    parser.add_argument("--flight-out", default=None, metavar="FILE",
                        help="write the gate run's flight timeline here "
                             "(CI uploads it when the gate fails)")
    args = parser.parse_args(argv)
    if args.update:
        return update(args)
    if args.self_test:
        return self_test(args)
    return gate(args)


if __name__ == "__main__":
    sys.exit(main())
