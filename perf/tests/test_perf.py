"""Tests of the benchmark itself, run in its ``--quick`` mode.

``python -m pytest perf/tests`` (under 30 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from perf import compare
from perf.run import ROOT, WORKLOADS
from perf.sampler import STAGES, CoreSampler, marker_lines
from perf.trace import LAYERS, LayerTracer, resolve

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, root=ROOT) -> tuple[subprocess.CompletedProcess,
                                                dict | None]:
    proc = subprocess.run(
        [sys.executable, str(root / "perf" / "run.py"), "--quick", *args],
        cwd=root, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, summary


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One quick traced run of every workload: (records, summary)."""
    out = tmp_path_factory.mktemp("records")
    proc, summary = run_bench("--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = {workload: json.loads(
        (out / f"{workload}-seed17-trace1.json").read_text())
        for workload in WORKLOADS}
    return records, summary


def test_metrics_match_benchmark_declaration(traced, tmp_path):
    records, summary = traced
    layer_names = {spec["name"]: spec["unit"] for spec in BENCH["per_layer"]}
    assert summary["metrics"].keys() == {
        f"{workload}.{name}" for workload in WORKLOADS
        for name in layer_names}
    for name, metric in summary["metrics"].items():
        assert metric["unit"] == layer_names[name.split(".", 1)[1]]

    # as BENCHMARK.json runs it: one workload, end-to-end metrics, none 0
    proc, summary = run_bench("--workload", "dse_cold", "--seed", "5",
                              "--seconds", "1", "--trace", "0",
                              "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    declared = {spec["name"]: spec["unit"] for spec in BENCH["end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in summary["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in summary["metrics"].values())
    for workload, record in records.items():
        assert declared.keys() <= record["e2e"].keys()
        assert record["e2e"]["failed_frac"]["value"] == 0


def test_layer_self_times_cover_traced_wall(traced):
    records, _ = traced
    for workload, record in records.items():
        per_layer = record["per_layer"]
        covered = sum(per_layer[f"{layer}.self_s"] for layer in LAYERS)
        assert 0.9 <= covered / record["traced"]["wall_s"] <= 1.0, workload
    trace = json.loads((ROOT / "perf" / "out" / "trace-dse_cold.json")
                       .read_text())
    assert {event["cat"] for event in trace["traceEvents"]} >= {
        "analysis", "flow", "uarch", "pipeline"}


def test_every_wrapper_is_restored():
    from repro.flow.experiment import run_experiment
    from repro.uarch.config import MEDIUM_BOOM

    def current() -> dict:
        return {(module, path): vars(owner)[name]
                for entries in LAYERS.values() for module, path in entries
                for owner, name in [resolve(module, path)]}

    originals = current()
    with LayerTracer("restore-test") as tracer:
        assert all(current()[key] is not value
                   for key, value in originals.items())
        run_experiment("sha", MEDIUM_BOOM, scale=0.05)
    assert tracer.totals["uarch"]["calls"] > 0
    assert all(current()[key] is value for key, value in originals.items())

    with pytest.raises(RuntimeError):
        with LayerTracer("restore-on-error"):
            raise RuntimeError("boom")
    assert all(current()[key] is value for key, value in originals.items())


def test_tampered_expected_digest_fails_the_run(tmp_path):
    expected = tmp_path / "expected"
    common = ("--workload", "sweep_cold", "--trace", "0",
              "--expected-dir", str(expected), "--out", str(tmp_path))
    proc, _ = run_bench(*common, "--update-expected")
    assert proc.returncode == 0, proc.stderr
    proc, summary = run_bench(*common)
    assert proc.returncode == 0 and "digests verified" in proc.stdout

    path = expected / "sweep_cold-seed17.json"
    pinned = json.loads(path.read_text())
    digests = pinned["inputs"]["17"]
    key = sorted(digests)[0]
    digests[key] = "0" * 64
    path.write_text(json.dumps(pinned))
    proc, summary = run_bench(*common)
    assert proc.returncode == 1
    assert summary["correct"] is False and summary["failed"] >= 1
    assert f"MISMATCH 17:{key}" in proc.stdout


def test_sampler_attributes_core_stages():
    from repro.flow.experiment import FlowSettings
    from repro.pipeline.artifacts import ArtifactStore
    from repro.pipeline.stages import ExperimentPipeline
    from repro.sim.batch import simulate_checkpoint
    from repro.uarch.config import MEDIUM_BOOM
    from repro.uarch.ftrace import FetchTrace
    from repro.uarch.core import BoomCore
    from repro.workloads.suite import get_workload

    _, stages = marker_lines(BoomCore._run_fused)
    assert set(STAGES) - {"other"} <= set(stages)

    settings = FlowSettings(scale=0.05)
    pipeline = ExperimentPipeline(ArtifactStore(None), settings)
    program = pipeline.program("sha")
    checkpoint = pipeline.checkpoints("sha")[0]
    interval = get_workload("sha").interval_for_scale(settings.scale)
    loops = {
        "generic": lambda: simulate_checkpoint(
            MEDIUM_BOOM, program, checkpoint, interval),
        "fused": lambda: simulate_checkpoint(
            MEDIUM_BOOM, program, checkpoint, interval,
            trace=FetchTrace(program, checkpoint.restore())),
    }
    for loop, simulate in loops.items():
        with CoreSampler() as sampler:
            deadline = time.monotonic() + 5.0
            while sampler.samples < 100 and time.monotonic() < deadline:
                simulate()
        hit = [stage for stage in STAGES if sampler.counts[stage]]
        assert len(set(hit) - {"other"}) >= 3, (loop, sampler.counts)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, summary = run_bench("--workload", "sweep_cold", "--seconds", "1",
                              "--trace", "0", root=tmp_path)
    assert proc.returncode != 0 and summary is None


@pytest.mark.parametrize("parent, change, verdict", [
    ([10.0] * 10, [8.0] * 10, "improved"),
    ([10.0] * 10, [10.5] * 10, "unchanged"),
    ([10.0] * 10, [13.0] * 10, "regressed"),
    ([6.0, 14.0] * 5, [13.0] * 10, "unresolved"),
    ([10.0] * 3, [8.0] * 3, "unchanged"),   # too few pairs to claim
])
def test_compare_verdicts(parent, change, verdict):
    assert compare.verdict(parent, change, "lower", 0.2)[0] == verdict
