"""The flight recorder: sampling semantics and the zero-impact pledge.

Two contracts are pinned here.  First, the recorder's own semantics:
samples partition the run (window cycle counts sum to the core's total),
the warmup→measure stats swap resets the delta baseline via object
identity, phase boundaries are closed under the *old* phase tag,
``finish`` emits its terminal sample exactly once (even when a check
fails mid-run), and timelines read back from a trace have a canonical
order independent of worker scheduling.  Second — the
reason the recorder may exist at all — observation-only: a sweep run
with flight recording armed produces byte-identical stage artifacts to
one run without it, on the serial and parallel paths alike.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.check import CHECK_ENV
from repro.check.invariants import CoreInvariantChecker
from repro.checkpoint.checkpoint import Checkpoint
from repro.errors import InvariantViolation
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.goldens import GOLDEN_SCALE, GOLDEN_SEED
from repro.obs.flight import (
    FLIGHT_ENV,
    FlightRecorder,
    _numeric_delta,
    flight_requested,
    flight_samples,
)
from repro.obs.session import latest_run_dir
from repro.obs.tracer import Tracer, configure_tracer, reset_tracer
from repro.sim.batch import simulate_checkpoint
from repro.sim.executor import Executor
from repro.uarch.config import MEDIUM_BOOM
from repro.uarch.core import BoomCore
from repro.workloads.suite import build_program

# The window must span several 4096-cycle observer strides so the
# recorder takes genuine periodic samples, not just boundary ones.
WARMUP = 500
WINDOW = 12_000


@pytest.fixture(scope="module")
def sha_checkpoint():
    program = build_program("sha", scale=0.3, seed=GOLDEN_SEED)
    executor = Executor(program)
    executor.run(max_instructions=1_500)
    checkpoint = Checkpoint.capture(
        executor.state, workload="sha", interval_index=0, weight=1.0,
        warmup_instructions=WARMUP)
    return program, checkpoint


def _samples(events: list[dict]) -> list[dict]:
    return [event["attrs"] for event in events
            if event["type"] == "I" and event["name"] == "flight"]


def _recorded_run(program, checkpoint, *, events, after=()):
    """A recorded warmup + window, traced into ``events``."""
    core = BoomCore(MEDIUM_BOOM, program, state=checkpoint.restore())
    recorder = FlightRecorder(core, Tracer(sink=events), workload="sha",
                              checkpoint=0)
    observers = [recorder, *after]
    core.run(WARMUP, observers)
    recorder.set_phase("measure")
    stats = core.begin_measurement()
    core.run(WINDOW, observers)
    recorder.finish()
    return core, recorder, stats


# ----------------------------------------------------------------------
# environment switch and delta arithmetic
# ----------------------------------------------------------------------

def test_flight_requested_parses_truthy_values():
    assert not flight_requested({})
    assert not flight_requested({FLIGHT_ENV: "0"})
    assert not flight_requested({FLIGHT_ENV: "off"})
    for value in ("1", "true", "YES", " on "):
        assert flight_requested({FLIGHT_ENV: value})


def test_numeric_delta_recurses_and_passes_through():
    current = {"cycles": 10, "nested": {"a": 5, "new": 2},
               "hist": [3, 4], "name": "x", "flag": True}
    baseline = {"cycles": 4, "nested": {"a": 2}, "hist": [1, 1],
                "name": "x", "flag": True}
    delta = _numeric_delta(current, baseline)
    assert delta == {"cycles": 6, "nested": {"a": 3, "new": 2},
                     "hist": [2, 3], "name": "x", "flag": True}
    # shape-mismatched lists fall back to the current values
    assert _numeric_delta([1, 2, 3], [1, 2]) == [1, 2, 3]


# ----------------------------------------------------------------------
# recorder semantics on a real core
# ----------------------------------------------------------------------

def test_samples_partition_the_run(sha_checkpoint):
    program, checkpoint = sha_checkpoint
    events: list[dict] = []
    core, recorder, _ = _recorded_run(program, checkpoint, events=events)
    samples = _samples(events)
    assert samples, "a multi-thousand-cycle run must produce samples"
    assert sum(sample["cycles"] for sample in samples) == core.cycle
    for sample in samples:
        expected = (sample["retired"] / sample["cycles"]
                    if sample["cycles"] else 0.0)
        assert sample["ipc"] == expected
    assert [sample["seq"] for sample in samples] == list(range(len(samples)))


def test_phase_boundary_and_measurement_swap(sha_checkpoint):
    program, checkpoint = sha_checkpoint
    events: list[dict] = []
    core, _, stats = _recorded_run(program, checkpoint, events=events)
    samples = _samples(events)
    phases = [sample["phase"] for sample in samples]
    assert "warmup" in phases and "measure" in phases
    # phases are contiguous: all warmup samples precede all measure ones
    assert phases == sorted(phases, key=["warmup", "measure"].index)
    # the measure-phase windows must cover exactly the fresh stats
    # object's counters: begin_measurement() swapped the baseline
    measure = [s for s in samples if s["phase"] == "measure"]
    assert sum(s["cycles"] for s in measure) == stats.to_dict()["cycles"]
    assert sum(s["retired"] for s in measure) == stats.to_dict()["retired"]


def test_samples_carry_the_telemetry_sections(sha_checkpoint):
    program, checkpoint = sha_checkpoint
    events: list[dict] = []
    _recorded_run(program, checkpoint, events=events)
    samples = _samples(events)
    busy = [s for s in samples if s["cycles"] > 0 and s["retired"] > 0]
    assert busy
    for sample in busy:
        assert set(sample["occupancy"]) == {"rob", "iq", "ldq", "stq",
                                            "fetch_buffer"}
        assert set(sample["rates"]) == {"fetch_stall_frac", "branch_mpki",
                                        "icache_mpki", "dcache_mpki"}
        assert sample["power"]["tile_mw"] > 0
        shares = sample["power"]["shares"]
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert "base" in sample["cpi_stack"]
        # every record must be strict JSON (the emitter's contract)
        json.dumps(sample, allow_nan=False)


def test_finish_emits_terminal_sample_exactly_once(sha_checkpoint):
    program, checkpoint = sha_checkpoint
    events: list[dict] = []
    _, recorder, _ = _recorded_run(program, checkpoint, events=events)
    samples = _samples(events)
    finals = [sample for sample in samples if sample["final"]]
    assert len(finals) == 1 and samples[-1]["final"]
    count = len(events)
    recorder.finish()
    recorder.finish()
    assert len(events) == count


def test_failed_check_still_leaves_the_final_sample(
        sha_checkpoint, monkeypatch):
    """A checkpoint whose check fails mid-run keeps its last window."""
    program, checkpoint = sha_checkpoint
    monkeypatch.setenv(CHECK_ENV, "1")
    monkeypatch.setenv(FLIGHT_ENV, "1")

    def failing_stride(self):
        raise InvariantViolation("test.mid_run", "forced",
                                 cycle=self.core.cycle)

    monkeypatch.setattr(CoreInvariantChecker, "__call__", failing_stride)
    events: list[dict] = []
    configure_tracer(sink=events)
    try:
        with pytest.raises(InvariantViolation):
            simulate_checkpoint(MEDIUM_BOOM, program, checkpoint, WINDOW)
    finally:
        reset_tracer()
    samples = _samples(events)
    assert [sample["final"] for sample in samples].count(True) == 1
    assert samples[-1]["final"] and samples[-1]["phase"] == "measure"
    # the span still ends, with the totals the core reached
    (end,) = [event for event in events if event["type"] == "E"
              and event["name"] == "detailed_sim.checkpoint"]
    assert end["attrs"]["retired"] > checkpoint.warmup_instructions
    assert end["attrs"]["cycles"] > 0


def test_wrapped_observer_still_sees_every_heartbeat(sha_checkpoint):
    # An observer listed after the recorder is called at every stride.
    program, checkpoint = sha_checkpoint
    events: list[dict] = []
    beats: list[int] = []
    _recorded_run(program, checkpoint, events=events,
                  after=[lambda: beats.append(len(events))])
    assert beats and beats == sorted(set(beats))
    # each call follows the recorder's sample of the same stride
    assert all(events[count - 1]["name"] == "flight" for count in beats)


# ----------------------------------------------------------------------
# reading samples back from a merged trace
# ----------------------------------------------------------------------

def test_flight_samples_canonical_order():
    def event(pid, seq, workload="sha", config="MediumBOOM"):
        sample = {"type": "flight", "pid": pid, "seq": seq,
                  "workload": workload, "config": config, "checkpoint": 0}
        return {"type": "I", "name": "flight", "pid": pid, "ts": 1.0,
                "uts": 1.0, "attrs": sample}

    # two "workers" whose samples interleave out of order, among spans
    trace = {"skipped_lines": 1, "events": [
        event(2, 1), {"type": "B", "name": "x", "pid": 1, "uts": 0.5},
        event(2, 0), event(1, 0, workload="qsort")]}
    doc = flight_samples(trace)
    order = [(s["workload"], s["pid"], s["seq"]) for s in doc["samples"]]
    assert order == [("qsort", 1, 0), ("sha", 2, 0), ("sha", 2, 1)]
    assert doc["skipped_lines"] == 1


def test_flight_samples_of_an_unrecorded_trace_are_empty():
    assert flight_samples({"events": []})["samples"] == []


def test_non_finite_sample_is_dropped(sha_checkpoint):
    program, checkpoint = sha_checkpoint
    events: list[dict] = []
    core = BoomCore(MEDIUM_BOOM, program, state=checkpoint.restore())
    recorder = FlightRecorder(core, Tracer(sink=events), workload="sha")
    recorder._emit({"type": "flight", "ipc": float("nan")})
    assert _samples(events) == []


# ----------------------------------------------------------------------
# the zero-impact pledge: byte-identical artifacts, recording on or off
# ----------------------------------------------------------------------

SCALE = 0.05
SWEEP_WORKLOADS = ["sha"]


def _sweep(cache, *, flight, jobs=1, monkeypatch=None):
    if flight:
        monkeypatch.setenv(FLIGHT_ENV, "1")
    runner = SweepRunner(FlowSettings(scale=SCALE), cache_dir=cache)
    results = runner.run_all(workloads=SWEEP_WORKLOADS, jobs=jobs,
                             trace=flight)
    if flight:
        monkeypatch.delenv(FLIGHT_ENV)
    return {key: result.to_dict() for key, result in results.items()}


def _artifact_digests(cache) -> dict[str, str]:
    """sha256 of every stage artifact (observability files excluded)."""
    out = {}
    for path in sorted(Path(cache).rglob("*.json")):
        relative = str(path.relative_to(cache))
        if relative.startswith("obs/") or path.name in (
                "run_manifest.json", "sweep_state.json"):
            continue
        out[relative] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def plain_reference(tmp_path_factory):
    cache = tmp_path_factory.mktemp("plain")
    results = _sweep(cache, flight=False)
    return results, _artifact_digests(cache)


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "parallel"])
def test_recording_is_byte_identical(tmp_path, monkeypatch,
                                     plain_reference, jobs):
    results = _sweep(tmp_path, flight=True, jobs=jobs,
                     monkeypatch=monkeypatch)
    assert results == plain_reference[0]
    assert _artifact_digests(tmp_path) == plain_reference[1]
    # ...and the recording actually happened: the merged trace holds
    # samples for every pair, warmup and measure phases, and the run
    # directory holds nothing beside the trace files.
    run_dir = latest_run_dir(tmp_path)
    assert run_dir is not None
    assert {path.name for path in run_dir.iterdir()
            if not path.name.startswith("events-")} == {"trace.json"}
    flight = flight_samples(json.loads((run_dir / "trace.json").read_text()))
    assert flight["skipped_lines"] == 0
    pairs = {(s["workload"], s["config"]) for s in flight["samples"]}
    assert len(pairs) == 3  # sha on all three presets
    assert {s["phase"] for s in flight["samples"]} >= {"warmup", "measure"}
    assert any(s["final"] for s in flight["samples"])


def test_recording_off_leaves_no_flight_files(tmp_path):
    _sweep(tmp_path, flight=False)
    assert not list(Path(tmp_path).rglob("flight*"))
