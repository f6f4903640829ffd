#!/usr/bin/env python3
"""Preset-equivalence gate: the sweep path must not drift for the paper's
three presets (CI gate).

The design-space generalization turned the hardcoded
MediumBOOM/LargeBOOM/MegaBOOM axis into "any iterable of BoomConfigs".
This gate pins the invariant that refactor promised to keep: for the
three paper presets the refactored pipeline produces *bit-identical*
artifacts under *identical* cache keys.  It runs a pinned
(workload, preset) matrix against a fresh cache and compares

* the ``experiment_result`` stage fingerprint (the cache key), and
* the sha256 of the result's canonical JSON (the artifact bytes)

against the committed goldens in ``benchmarks/preset_goldens.json``,
which were generated from the pre-refactor tree.

Usage::

    PYTHONPATH=src python scripts/preset_gate.py            # verify
    PYTHONPATH=src python scripts/preset_gate.py --update   # regenerate
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.uarch.config import ALL_CONFIGS

#: pinned gate parameters — changing any of them invalidates the goldens
GATE_SCALE = 0.05
GATE_SEED = 17
GATE_WORKLOADS = ("sha", "dijkstra")

GOLDEN_PATH = (Path(__file__).resolve().parents[1]
               / "benchmarks" / "preset_goldens.json")


def collect() -> dict:
    """Fingerprints + artifact hashes for the pinned preset matrix."""
    settings = FlowSettings(scale=GATE_SCALE, seed=GATE_SEED)
    entries: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as cache:
        runner = SweepRunner(settings, cache_dir=cache)
        for config in ALL_CONFIGS:
            for workload in GATE_WORKLOADS:
                fingerprint = runner.pipeline.result_fingerprint(workload,
                                                                 config)
                result = runner.run(workload, config)
                digest = hashlib.sha256(
                    result.to_json().encode()).hexdigest()
                entries[f"{workload}/{config.name}"] = {
                    "result_fingerprint": fingerprint,
                    "artifact_sha256": digest,
                }
    return {
        "scale": GATE_SCALE,
        "seed": GATE_SEED,
        "workloads": list(GATE_WORKLOADS),
        "entries": entries,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="regenerate the committed goldens")
    args = parser.parse_args(argv)

    current = collect()
    if args.update:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(current, indent=2,
                                          sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH} ({len(current['entries'])} entries)")
        return 0

    golden = json.loads(GOLDEN_PATH.read_text())
    failures: list[str] = []
    for pin in ("scale", "seed", "workloads"):
        if golden[pin] != current[pin]:
            failures.append(f"pinned parameter {pin} drifted: "
                            f"{golden[pin]!r} -> {current[pin]!r}")
    for key, want in golden["entries"].items():
        got = current["entries"].get(key)
        if got is None:
            failures.append(f"{key}: missing from current run")
            continue
        if got["result_fingerprint"] != want["result_fingerprint"]:
            failures.append(
                f"{key}: cache key drifted "
                f"({want['result_fingerprint']} -> "
                f"{got['result_fingerprint']})")
        if got["artifact_sha256"] != want["artifact_sha256"]:
            failures.append(
                f"{key}: artifact bytes drifted "
                f"({want['artifact_sha256'][:16]}... -> "
                f"{got['artifact_sha256'][:16]}...)")
    if failures:
        print("PRESET EQUIVALENCE BROKEN:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"preset gate OK: {len(golden['entries'])} (workload, preset) "
          f"pairs bit-identical to the committed goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
