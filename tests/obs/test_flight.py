"""The flight recorder: sampling semantics and the zero-impact pledge.

Two contracts are pinned here.  First, the recorder's own semantics:
samples partition the run (window cycle counts sum to the core's total),
the warmup→measure stats swap resets the delta baseline via object
identity, phase boundaries are closed under the *old* phase tag,
``finish`` emits its terminal sample exactly once, and merged timelines
have a canonical order independent of worker scheduling.  Second — the
reason the recorder may exist at all — observation-only: a sweep run
with flight recording armed produces byte-identical stage artifacts to
one run without it, on the serial and parallel paths alike.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.checkpoint.checkpoint import Checkpoint
from repro.flow.experiment import FlowSettings
from repro.flow.sweep import SweepRunner
from repro.goldens import GOLDEN_SCALE, GOLDEN_SEED
from repro.obs.flight import (
    FLIGHT_ENV,
    FlightRecorder,
    _numeric_delta,
    flight_requested,
    read_flight_file,
    write_merged_flight,
)
from repro.obs.session import latest_run_dir
from repro.sim.executor import Executor
from repro.uarch.config import MEDIUM_BOOM
from repro.uarch.core import BoomCore
from repro.workloads.suite import build_program

# The window must span several 4096-cycle heartbeat strides so the
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


def _recorded_run(program, checkpoint, *, sink, wrapped=None):
    core = BoomCore(MEDIUM_BOOM, program, state=checkpoint.restore())
    recorder = FlightRecorder(core, workload="sha", checkpoint=0,
                              sink=sink, wrapped=wrapped)
    core.run(WARMUP, heartbeat=recorder)
    recorder.set_phase("measure")
    stats = core.begin_measurement()
    core.run(WINDOW, heartbeat=recorder)
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
    sink: list[dict] = []
    core, recorder, _ = _recorded_run(program, checkpoint, sink=sink)
    assert sink, "a multi-thousand-cycle run must produce samples"
    assert sum(sample["cycles"] for sample in sink) == core.cycle
    for sample in sink:
        expected = (sample["retired"] / sample["cycles"]
                    if sample["cycles"] else 0.0)
        assert sample["ipc"] == expected
    assert [sample["seq"] for sample in sink] == list(range(len(sink)))


def test_phase_boundary_and_measurement_swap(sha_checkpoint):
    program, checkpoint = sha_checkpoint
    sink: list[dict] = []
    core, _, stats = _recorded_run(program, checkpoint, sink=sink)
    phases = [sample["phase"] for sample in sink]
    assert "warmup" in phases and "measure" in phases
    # phases are contiguous: all warmup samples precede all measure ones
    assert phases == sorted(phases, key=["warmup", "measure"].index)
    # the measure-phase windows must cover exactly the fresh stats
    # object's counters: begin_measurement() swapped the baseline
    measure = [s for s in sink if s["phase"] == "measure"]
    assert sum(s["cycles"] for s in measure) == stats.to_dict()["cycles"]
    assert sum(s["retired"] for s in measure) == stats.to_dict()["retired"]


def test_samples_carry_the_telemetry_sections(sha_checkpoint):
    program, checkpoint = sha_checkpoint
    sink: list[dict] = []
    _recorded_run(program, checkpoint, sink=sink)
    busy = [s for s in sink if s["cycles"] > 0 and s["retired"] > 0]
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
    sink: list[dict] = []
    _, recorder, _ = _recorded_run(program, checkpoint, sink=sink)
    finals = [sample for sample in sink if sample["final"]]
    assert len(finals) == 1 and sink[-1]["final"]
    count = len(sink)
    recorder.finish()
    recorder.finish()
    assert len(sink) == count


def test_wrapped_observer_still_sees_every_heartbeat(sha_checkpoint):
    program, checkpoint = sha_checkpoint
    beats: list[tuple[int, int]] = []
    _recorded_run(program, checkpoint, sink=[],
                  wrapped=lambda retired, cycles: beats.append(
                      (retired, cycles)))
    assert beats
    assert all(cycles > 0 for _retired, cycles in beats)


# ----------------------------------------------------------------------
# torn-tolerant reading and canonical merge
# ----------------------------------------------------------------------

def test_read_flight_file_skips_torn_tail(tmp_path):
    path = tmp_path / "flight-1.jsonl"
    good = {"type": "flight", "seq": 0}
    path.write_text(json.dumps(good) + "\n"
                    + '{"type": "other"}\n'
                    + '{"type": "flight", "seq": 1, "tor')
    samples, skipped = read_flight_file(path)
    assert samples == [good]
    assert skipped == 2
    assert read_flight_file(tmp_path / "absent.jsonl") == ([], 1)


def test_write_merged_flight_canonical_order(tmp_path):
    def sample(pid, seq, workload="sha", config="MediumBOOM"):
        return {"type": "flight", "pid": pid, "seq": seq,
                "workload": workload, "config": config, "checkpoint": 0}

    # two "workers" whose files interleave out of order
    (tmp_path / "flight-2.jsonl").write_text(
        "\n".join(json.dumps(sample(2, seq)) for seq in (0, 1)) + "\n")
    (tmp_path / "flight-1.jsonl").write_text(
        json.dumps(sample(1, 0, workload="qsort")) + "\n")
    merged = write_merged_flight(tmp_path)
    assert merged is not None
    doc = json.loads(merged.read_text())
    order = [(s["workload"], s["pid"], s["seq"]) for s in doc["samples"]]
    assert order == [("qsort", 1, 0), ("sha", 2, 0), ("sha", 2, 1)]
    assert doc["skipped_lines"] == 0


def test_write_merged_flight_empty_run_is_none(tmp_path):
    assert write_merged_flight(tmp_path) is None


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
    # ...and the recording actually happened: the session merged a
    # timeline with samples for every pair, warmup and measure phases.
    run_dir = latest_run_dir(tmp_path)
    assert run_dir is not None
    flight = json.loads((run_dir / "flight.json").read_text())
    assert flight["skipped_lines"] == 0
    pairs = {(s["workload"], s["config"]) for s in flight["samples"]}
    assert len(pairs) == 3  # sha on all three presets
    assert {s["phase"] for s in flight["samples"]} >= {"warmup", "measure"}
    assert any(s["final"] for s in flight["samples"])


def test_recording_off_leaves_no_flight_files(tmp_path):
    _sweep(tmp_path, flight=False)
    assert not list(Path(tmp_path).rglob("flight*"))
