#!/usr/bin/env python3
"""DSE end-to-end smoke test (CI gate for `repro-cli dse`).

Generates a small design-space lattice (>= 8 points plus the paper
presets), sweeps one workload through the *supervised* scheduler with a
transient fault injected — the scheduler must retry it to success — and
asserts the flow's DSE guarantees:

* every design point completes (the frontier skips nothing);
* the frontier artifact is strict JSON, partitions the point set, and
  anchors the paper presets on or near the frontier;
* a warm re-run reproduces the identical point set and frontier from
  cache, with zero detailed-simulation re-executions;
* a fresh sweep at the other worker count (serial vs ``--jobs``) emits
  a byte-identical frontier artifact.

Usage::

    PYTHONPATH=src python scripts/smoke_dse.py [--points 8] [--scale 0.05]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.flow.dse import run_dse
from repro.flow.experiment import FlowSettings
from repro.pipeline.stages import DETAILED_STAGE
from repro.uarch.config import ALL_CONFIGS, config_id
from repro.uarch.space import SpaceSpec

WORKLOAD = "sha"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--base", default="LargeBOOM")
    args = parser.parse_args(argv)
    assert args.points >= 8, "smoke needs at least 8 design points"

    spec = SpaceSpec(base=args.base, count=args.points, seed=17)
    with tempfile.TemporaryDirectory() as tmp:
        # cold, with one transient I/O fault: the supervised scheduler
        # must retry it and still complete every design point
        faulty = FlowSettings(scale=args.scale,
                              faults="worker.experiment:io:n=1",
                              fault_seed=7)
        cold = run_dse(spec, settings=faulty, cache_dir=tmp,
                       jobs=args.jobs, workloads=[WORKLOAD])
        manifest = cold.manifest
        print("cold DSE sweep:")
        print(manifest.format())
        assert manifest.ok, (
            f"cold: sweep degraded ({len(manifest.failures)} failures) — "
            f"the transient fault was not retried to success")
        assert sum(manifest.retries.values()) >= 1, (
            "cold: the injected transient fault never triggered a retry")
        assert not cold.skipped, f"cold: skipped points {cold.skipped}"
        assert len(cold.points) >= args.points, (
            f"cold: {len(cold.points)} points, expected >= {args.points}")
        assert cold.frontier, "cold: empty Pareto frontier"
        assert cold.points_per_s > 0

        # frontier artifact: strict JSON, partitions the point set
        document = cold.document()
        text = json.dumps(document, indent=2, sort_keys=True,
                          allow_nan=False)
        artifact = Path(tmp) / "frontier.json"
        artifact.write_text(text + "\n")
        rebuilt = json.loads(artifact.read_text())
        names = {point["name"] for point in rebuilt["points"]}
        frontier = set(rebuilt["frontier"])
        dominated = set(rebuilt["dominated"])
        assert frontier | dominated == names
        assert not frontier & dominated

        # the paper presets anchor the frontier: all three are in the
        # point set, and the frontier keeps at least two of them
        preset_names = {config.name for config in ALL_CONFIGS}
        assert preset_names <= names, "presets missing from the lattice"
        on_frontier = preset_names & frontier
        assert len(on_frontier) >= 2, (
            f"only {sorted(on_frontier)} of the paper presets are on "
            f"the frontier")

        # warm, faults off: identical points and frontier, all cached
        warm = run_dse(spec, settings=FlowSettings(scale=args.scale),
                       cache_dir=tmp, jobs=args.jobs,
                       workloads=[WORKLOAD])
        print("\nwarm DSE sweep:")
        print(warm.manifest.format())
        assert warm.manifest.executions(DETAILED_STAGE) == 0, (
            "warm: detailed simulation ran again")
        assert [config_id(c) for c in warm.configs] == \
            [config_id(c) for c in cold.configs], "point set drifted"
        assert [p.name for p in warm.frontier] == \
            [p.name for p in cold.frontier], "frontier drifted"
        # the underlying result artifacts are byte-identical; the point
        # summaries recompute weighted means from them, so allow float
        # summation-order noise at the ULP level and nothing more
        for key, result in cold.results.items():
            assert warm.results[key].to_json() == result.to_json(), (
                f"warm result artifact differs for {key}")
        for point, again in zip(cold.points, warm.points):
            assert point.name == again.name
            assert abs(point.ipc - again.ipc) <= 1e-9 * max(
                1.0, abs(point.ipc))
            assert abs(point.tile_mw - again.tile_mw) <= 1e-9 * max(
                1.0, abs(point.tile_mw))

    # fan-out leg: the same sweep at the other worker count (fresh
    # cache, no faults) must emit a byte-identical frontier artifact —
    # serial batch priming and the parallel batch wave are execution
    # strategies, never model changes
    fanout = 1 if args.jobs > 1 else 2
    with tempfile.TemporaryDirectory() as tmp:
        other = run_dse(spec, settings=FlowSettings(scale=args.scale),
                        cache_dir=tmp, jobs=fanout, workloads=[WORKLOAD])
        print(f"\nDSE sweep at jobs={fanout}:")
        print(other.manifest.format())
        assert other.manifest.ok, f"jobs={fanout}: sweep degraded"
        assert not other.skipped, \
            f"jobs={fanout}: skipped points {other.skipped}"
        # compare everything but the run-timing section ("settings"
        # carries points_per_s / wall_seconds, which are wall clock,
        # not model output)
        def stable(document: dict) -> str:
            document = {key: value for key, value in document.items()
                        if key != "settings"}
            return json.dumps(document, indent=2, sort_keys=True,
                              allow_nan=False)

        assert stable(other.document()) == stable(rebuilt), (
            f"jobs={fanout}: frontier artifact differs from the "
            f"jobs={args.jobs} sweep's — fan-out must be byte-identical")

    print(f"\nsmoke OK: {len(cold.points)} design points, "
          f"{len(cold.frontier)} on the frontier "
          f"({', '.join(sorted(on_frontier))} among them), "
          f"{cold.points_per_s:.1f} points/s cold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
