#!/usr/bin/env python3
"""Observability smoke test: a traced parallel mini-sweep (CI gate).

Runs a small workload subset with tracing enabled across two pool
workers and asserts the observability pillars end to end:

* the merged trace covers every pipeline stage as a span, plus
  scheduler task lifecycle events and simulator heartbeats;
* every span's begin has a matching end (no torn or dangling spans in
  a clean run);
* the run manifest records per-task worker pids, wall-clock bounds and
  attempt counts, and the trace path;
* the metrics snapshot counted from the merged trace agrees with the
  manifest: artifact hits/misses/writes with its stage accounting, and
  completed scheduler tasks with its task records;
* the Chrome trace-event export is valid JSON with paired B/E phases;
* artifacts are byte-identical to an untraced run of the same sweep.

Usage::

    PYTHONPATH=src python scripts/smoke_trace.py [--scale 0.05] [--jobs 2]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.obs.render import to_chrome, trace_metrics
from repro.pipeline.artifacts import INTERNAL_DIRS
from repro.pipeline.stages import (
    CHECKPOINT_STAGE,
    DETAILED_STAGE,
    POWER_STAGE,
    PROFILE_STAGE,
    RESULT_STAGE,
    SELECTION_STAGE,
)
from repro.uarch.config import MEDIUM_BOOM, MEGA_BOOM

ALL_STAGES = (PROFILE_STAGE, SELECTION_STAGE, CHECKPOINT_STAGE,
              DETAILED_STAGE, POWER_STAGE, RESULT_STAGE)
WORKLOADS = ["qsort", "sha"]
CONFIGS = (MEDIUM_BOOM, MEGA_BOOM)


def _artifact_digests(cache_dir: Path) -> dict[str, str]:
    skip = {"run_manifest.json", "sweep_state.json"}
    digests = {}
    for path in sorted(cache_dir.rglob("*")):
        if not path.is_file():
            continue
        relative = path.relative_to(cache_dir)
        if relative.parts[0] in INTERNAL_DIRS or \
                relative.suffix == ".lock" or relative.name in skip:
            continue
        digests[str(relative)] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    settings = FlowSettings(scale=args.scale)
    with tempfile.TemporaryDirectory() as cache:
        runner = SweepRunner(settings, cache_dir=cache)
        results = runner.run_all(configs=CONFIGS, workloads=WORKLOADS,
                                 jobs=args.jobs, trace=True)
        manifest = runner.last_manifest
        assert manifest.ok, "traced sweep degraded"
        assert len(results) == len(WORKLOADS) * len(CONFIGS)

        # --- manifest: trace path, task records ----------------------
        assert manifest.trace, "manifest records no trace path"
        trace = json.loads(Path(manifest.trace).read_text())
        assert trace["skipped_lines"] == 0, "clean run tore trace lines"

        # tasks run in this process at --jobs 1, in pool workers above
        assert manifest.tasks, "sweep recorded no tasks"
        parent = os.getpid()
        for task in manifest.tasks:
            assert (task.pid == parent) == (args.jobs == 1), (
                f"task {task.key} ran in pid {task.pid} at "
                f"--jobs {args.jobs}")
            assert task.ended >= task.started
            assert task.attempts >= 1
        worker_pids = {task.pid for task in manifest.tasks}
        assert worker_pids <= set(trace["processes"]), (
            "task processes missing from the merged trace")
        print(f"manifest: {len(manifest.tasks)} tasks, "
              f"trace={manifest.trace}")

        # --- metrics snapshot: counted from the trace, equal to the
        # manifest's ledger ----------------------------------------------
        snapshot = trace_metrics(trace)
        counted = (snapshot["artifact.hit"], snapshot["artifact.miss"],
                   snapshot["artifact.write"])
        recorded = (manifest.total_hits, manifest.total_misses,
                    manifest.total_executions)
        assert counted == recorded, (
            f"trace counts hit/miss/write {counted}, manifest {recorded}")
        assert snapshot["scheduler.completed"] == len(manifest.tasks), (
            f"trace counts {snapshot['scheduler.completed']} completed "
            f"tasks, manifest records {len(manifest.tasks)}")
        print(f"metrics: {len(snapshot)} entries, hit/miss/write "
              f"{counted[0]}/{counted[1]}/{counted[2]}, "
              f"{snapshot['scheduler.completed']} tasks completed")

        # --- span coverage: every stage, scheduler events, heartbeats -
        events = trace["events"]
        span_names = {e["name"] for e in events if e["type"] == "B"}
        for stage in ALL_STAGES:
            assert f"stage.{stage}" in span_names, (
                f"stage {stage} has no span in the trace")
        instant_names = {e["name"] for e in events if e["type"] == "I"}
        assert {"task.submit", "task.done"} <= instant_names, (
            "scheduler lifecycle events missing")
        heartbeats = [e for e in events if e["type"] == "hb"]
        assert heartbeats, "no heartbeats recorded"
        print(f"trace: {len(events)} events, {len(span_names)} span "
              f"kinds, {len(heartbeats)} heartbeats, "
              f"{len(trace['processes'])} processes")

        # --- every B has its E ----------------------------------------
        open_spans: dict[tuple, int] = {}
        for event in events:
            key = (event.get("pid"), event.get("sid"))
            if event["type"] == "B":
                open_spans[key] = open_spans.get(key, 0) + 1
            elif event["type"] == "E":
                assert open_spans.get(key, 0) > 0, f"E without B: {event}"
                open_spans[key] -= 1
        dangling = {k: v for k, v in open_spans.items() if v}
        assert not dangling, f"unclosed spans: {dangling}"

        # --- Chrome export --------------------------------------------
        chrome = to_chrome(trace)
        chrome_events = json.loads(json.dumps(chrome))["traceEvents"]
        begins = sum(1 for e in chrome_events if e["ph"] == "B")
        ends = sum(1 for e in chrome_events if e["ph"] == "E")
        assert begins == ends > 0, f"chrome B/E mismatch: {begins}/{ends}"
        assert all(e["ts"] >= 0 for e in chrome_events)
        print(f"chrome export: {len(chrome_events)} events, "
              f"{begins} B/E pairs")

        traced_digests = _artifact_digests(Path(cache))

        # --- determinism: byte-identical artifacts without tracing ----
        with tempfile.TemporaryDirectory() as plain_cache:
            plain = SweepRunner(settings, cache_dir=plain_cache)
            plain.run_all(configs=CONFIGS, workloads=WORKLOADS,
                          jobs=args.jobs)
            assert plain.last_manifest.trace == ""
            plain_digests = _artifact_digests(Path(plain_cache))
        assert traced_digests == plain_digests, (
            "tracing perturbed the artifact store")
        print(f"determinism: {len(traced_digests)} artifacts "
              f"byte-identical with tracing on vs off")

    print("\nsmoke_trace: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
