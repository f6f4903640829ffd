"""Optimized-vs-reference equivalence, pinned by committed goldens.

The fixtures under ``benchmarks/golden/`` were generated from the
pre-optimization tree (reference dispatch, unbatched stats), so these
tests assert that the superblock executor, the page-array memory fast
path, the decode-cached frontend, and the batched-stats core are all
*bit-identical* to the original semantics:

* retire streams — both dispatch modes' full retired-PC lists;
* final architectural state, output, and the dynamic block stream (the
  ``control_hook`` BBV contract);
* BBV profiles;
* superblocks capped at ``_MAX_BLOCK`` instructions: a synthetic
  straight-line run several caps long, under fuel budgets that end
  inside, exactly on, and past cap boundaries, plus a mid-run resume;
* final ``uarch.stats`` counters and power reports per config;
* batched multi-config replay (one shared fetch trace feeding every
  config, through the fused loop) vs each config alone on the generic
  loop — bit-identical cycle counts and stat dictionaries, including the
  ring-queue shape and a DSE-sampled off-preset point;
* the shared fetch trace records no more than one extension step past
  what its furthest consumer asked for.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint.checkpoint import Checkpoint
from repro.goldens import (
    GOLDEN_SCALE,
    GOLDEN_SEED,
    bbv_fixture,
    core_fixture,
    functional_fixture,
    load_golden,
    retire_pcs_from_blocks,
)
from repro.isa.assembler import assemble
from repro.pipeline.stages import profile_to_dict
from repro.profiling.bbv import BBVProfiler
from repro.sim import batch
from repro.sim.executor import _MAX_BLOCK, Executor, _blocks_for
from repro.uarch import ftrace
from repro.uarch.config import ALL_CONFIGS
from repro.uarch.core import BoomCore
from repro.uarch.ftrace import FetchTrace
from repro.uarch.space import SpaceSpec, generate_points
from repro.workloads.suite import build_program, get_workload, workload_names

WORKLOADS = workload_names()


def _program(workload: str):
    return build_program(workload, scale=GOLDEN_SCALE, seed=GOLDEN_SEED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_functional_superblock_matches_reference(workload):
    program = _program(workload)
    ref_blocks: list[tuple[int, int]] = []
    sup_blocks: list[tuple[int, int]] = []
    reference = functional_fixture(program, dispatch="reference",
                                   blocks_out=ref_blocks)
    superblock = functional_fixture(program, dispatch="superblock",
                                    blocks_out=sup_blocks)
    assert superblock == reference
    # The retire streams (expanded from the dynamic block streams) must
    # agree instruction for instruction.
    ref_pcs = retire_pcs_from_blocks(ref_blocks)
    assert retire_pcs_from_blocks(sup_blocks) == ref_pcs
    assert len(ref_pcs) == reference["retired"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_functional_matches_golden(workload):
    golden = load_golden(workload)
    assert functional_fixture(_program(workload)) == golden["functional"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bbv_profile_matches_golden(workload):
    golden = load_golden(workload)
    fixture = bbv_fixture(workload, _program(workload), GOLDEN_SCALE)
    assert fixture == golden["bbv"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_core_stats_and_power_match_golden(workload):
    golden = load_golden(workload)
    fixture = core_fixture(workload, _program(workload))
    assert fixture == golden["core"]


# ----------------------------------------------------------------------
# capped superblocks
# ----------------------------------------------------------------------

#: straight-line instructions in the synthetic loop body: several caps
_RUN = 5 * _MAX_BLOCK + 17
_LOOPS = 4


def _straight_line_program():
    """A loop whose body is one long straight-line run.

    The run mixes inlined ALU ops, stack stores and loads, and ``div``
    (a handler call, not inlined), so capped blocks exercise both code
    generation paths.  Its first ``_MAX_BLOCK`` instructions start at
    the entry pc, so a budget of ``k * _MAX_BLOCK`` ends exactly on a
    cap boundary.
    """
    body = []
    for k in range(_RUN):
        slot = -8 * (k % 16 + 1)
        body.append(("addi t0, t0, 7", "xor t1, t1, t0",
                     "slli t2, t0, 3", f"sd t2, {slot}(sp)",
                     f"ld t3, {-8 * ((k + 5) % 16 + 1)}(sp)",
                     "add t4, t4, t3", "div t5, t4, t0")[k % 7])
    lines = "\n        ".join(body)
    return assemble(f"""
    _start:
    loop:
        {lines}
        addi s1, s1, 1
        li t6, {_LOOPS}
        blt s1, t6, loop
        andi a0, t4, 127
        li a7, 93
        ecall
    """)


def _run_both(budgets: list[int | None], hook: bool):
    """Run both dispatches through ``budgets``; per-dispatch outcomes."""
    out = {}
    for dispatch in ("reference", "superblock"):
        executor = Executor(_straight_line_program(), dispatch=dispatch)
        blocks: list[tuple[int, int]] = []
        control = (lambda s, e: blocks.append((s, e))) if hook else None
        steps = []
        for budget in budgets:
            retired = executor.run(max_instructions=budget,
                                   control_hook=control)
            state = executor.state
            steps.append((retired, state.pc, list(state.x), state.exited))
        out[dispatch] = (steps, blocks, bytes(executor.state.output))
    return out


def test_straight_line_run_is_capped():
    program = _straight_line_program()
    executor = Executor(program)
    executor.run_to_completion()
    assert executor.state.exit_code == executor.state.x[10]
    totals = [block[1] for block in _blocks_for(program).values()]
    assert max(totals) <= _MAX_BLOCK + 1
    # The loop body really was split: the entry block is one full cap.
    assert _blocks_for(program)[program.entry][1] == _MAX_BLOCK


def test_capped_superblocks_match_reference_fixture():
    program = _straight_line_program()
    ref_blocks: list[tuple[int, int]] = []
    sup_blocks: list[tuple[int, int]] = []
    reference = functional_fixture(program, dispatch="reference",
                                   blocks_out=ref_blocks)
    superblock = functional_fixture(program, dispatch="superblock",
                                    blocks_out=sup_blocks)
    assert reference["exited"]
    assert reference["retired"] == _LOOPS * (_RUN + 3) + 3
    assert superblock == reference
    assert sup_blocks == ref_blocks
    # A capped block closes no dynamic block: one per loop trip, plus
    # the trailing exit block.
    assert len(ref_blocks) == _LOOPS + 1


def test_capped_superblocks_match_reference_bbv(monkeypatch):
    profiler = BBVProfiler(97)
    superblock = profile_to_dict(profiler.profile(_straight_line_program()))
    monkeypatch.setattr("repro.sim.executor.Executor",
                        lambda program: Executor(program,
                                                 dispatch="reference"))
    reference = profile_to_dict(profiler.profile(_straight_line_program()))
    assert superblock == reference


@pytest.mark.parametrize("hook", [False, True], ids=["plain", "profiled"])
@pytest.mark.parametrize("budget", [
    1, _MAX_BLOCK - 1, _MAX_BLOCK, _MAX_BLOCK + 1, 2 * _MAX_BLOCK,
    2 * _MAX_BLOCK + 5, _RUN, _RUN + 3, _RUN + 4, 3 * _RUN + 100])
def test_capped_superblocks_fuel_and_resume(budget, hook):
    """Budgets ending inside a capped block, on a cap boundary and past
    the loop's branch; then a resume from that mid-run pc to exit."""
    outcome = _run_both([budget, None], hook)
    assert outcome["superblock"] == outcome["reference"]
    steps = outcome["reference"][0]
    assert steps[0][0] == budget and not steps[0][3]
    assert steps[-1][3]


def test_capped_superblocks_chunked_resume():
    """Many short budgets re-enter capped blocks at shifting offsets."""
    budgets = [_MAX_BLOCK // 3] * 40 + [None]
    for hook in (False, True):
        outcome = _run_both(budgets, hook)
        assert outcome["superblock"] == outcome["reference"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_suite_superblocks_respect_the_cap(workload):
    """No block built for a suite workload exceeds the cap plus its
    terminator (sha's straight-line run once compiled as one
    1,059-instruction block)."""
    program = _program(workload)
    BBVProfiler(
        get_workload(workload).interval_for_scale(GOLDEN_SCALE)
    ).profile(program)
    totals = [block[1] for block in _blocks_for(program).values()]
    assert totals
    assert max(totals) <= _MAX_BLOCK + 1


# ----------------------------------------------------------------------
# batched multi-config replay vs the generic loop
# ----------------------------------------------------------------------

_BATCH_WARMUP = 500
_BATCH_WINDOW = 2_000


def _batch_checkpoint():
    """One mid-execution checkpoint of the golden sha program."""
    program = build_program("sha", scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    executor = Executor(program)
    executor.run(max_instructions=1_500)
    checkpoint = Checkpoint.capture(
        executor.state, workload="sha", interval_index=0, weight=1.0,
        warmup_instructions=_BATCH_WARMUP)
    return program, checkpoint


def _measure(core) -> tuple[int, str]:
    core.run(_BATCH_WARMUP)
    stats = core.begin_measurement()
    core.run(_BATCH_WINDOW)
    return core.cycle, json.dumps(stats.to_dict(), sort_keys=True)


def _serial_runs(program, checkpoint, configs):
    """Each config alone, on a core stepping the generic loop."""
    runs = {}
    for config in configs:
        core = BoomCore(config, program, state=checkpoint.restore())
        core._fused = False  # the reference: the generic loop (_step)
        runs[config.name] = _measure(core)
    return runs


def _batched_runs(program, checkpoint, configs):
    trace = FetchTrace(program, checkpoint.restore())
    return {config.name: _measure(BoomCore(config, program, trace=trace))
            for config in configs}


def test_batched_presets_bit_identical():
    """All three paper presets in ONE batch vs the generic loop, full
    stat dicts."""
    program, checkpoint = _batch_checkpoint()
    serial = _serial_runs(program, checkpoint, ALL_CONFIGS)
    batched = _batched_runs(program, checkpoint, ALL_CONFIGS)
    for config in ALL_CONFIGS:
        assert batched[config.name] == serial[config.name], config.name
    # The presets genuinely diverge from each other (the batch did not
    # collapse them onto one back-end).
    cycles = {serial[config.name][0] for config in ALL_CONFIGS}
    assert len(cycles) == len(ALL_CONFIGS)


def test_batched_ring_queue_shape_bit_identical():
    """The non-collapsing issue-queue shape replays identically."""
    program, checkpoint = _batch_checkpoint()
    ring = tuple(config.with_issue_queues("ring")
                 for config in ALL_CONFIGS[:2])
    serial = _serial_runs(program, checkpoint, ring)
    batched = _batched_runs(program, checkpoint, ring)
    assert batched == serial


def test_flight_recorder_is_observation_only():
    """A recorded run retires bit-identical state on every preset.

    The flight recorder is a core observer; this pins that sampling
    (the loop flushes IQ occupancy histograms mid-run, the recorder
    reads the stats tree) never perturbs the simulation: cycle counts
    and the full stat dictionaries match an unobserved run exactly.
    """
    from repro.obs.flight import FlightRecorder
    from repro.obs.tracer import Tracer

    program, checkpoint = _batch_checkpoint()
    for config in ALL_CONFIGS:
        plain = _measure(BoomCore(config, program,
                                  state=checkpoint.restore()))
        core = BoomCore(config, program, state=checkpoint.restore())
        recorder = FlightRecorder(core, Tracer(sink=[]), workload="sha")
        core.run(_BATCH_WARMUP, [recorder])
        recorder.set_phase("measure")
        stats = core.begin_measurement()
        core.run(_BATCH_WINDOW, [recorder])
        recorder.finish()
        observed = (core.cycle, json.dumps(stats.to_dict(),
                                           sort_keys=True))
        assert observed == plain, config.name


@pytest.mark.parametrize("workload", ["sha", "fft", "dijkstra"])
def test_observers_see_the_same_state_on_both_loops(workload):
    """At every stride an observer reads the same settled state from the
    fused loop as from the generic loop, on every preset."""
    program = build_program(workload, scale=0.3, seed=GOLDEN_SEED)
    executor = Executor(program)
    executor.run(max_instructions=1_500)
    checkpoint = Checkpoint.capture(
        executor.state, workload=workload, interval_index=0, weight=1.0,
        warmup_instructions=_BATCH_WARMUP)
    for config in ALL_CONFIGS:
        runs = []
        for fused in (True, False):
            core = BoomCore(config, program, state=checkpoint.restore())
            core._fused = fused
            records = []

            def observe(retired, cycles, core=core, records=records):
                records.append((retired, cycles, core.cycle, json.dumps(
                    core.stats.to_dict(), sort_keys=True)))

            core.run(_BATCH_WARMUP, [observe])
            core.begin_measurement()
            core.run(20_000, [observe])
            runs.append(records)
        assert len(runs[0]) >= 2, config.name
        assert runs[0] == runs[1], config.name


def test_batched_dse_sampled_point_bit_identical():
    """A generated off-preset design point joins the presets' batch."""
    sampled = generate_points(SpaceSpec(base="LargeBOOM", mode="random",
                                        count=1, seed=23,
                                        include_presets=False))
    assert len(sampled) == 1
    configs = ALL_CONFIGS + (sampled[0],)
    names = [config.name for config in configs]
    assert len(set(names)) == len(names)
    program, checkpoint = _batch_checkpoint()
    serial = _serial_runs(program, checkpoint, configs)
    batched = _batched_runs(program, checkpoint, configs)
    assert batched == serial


def test_batched_trace_stops_near_its_furthest_consumer(monkeypatch):
    """After a batch over the three presets, every shared trace ends at
    most one extension step past what its furthest consumer asked for
    (its cursor plus one fetch group)."""
    traces: list[FetchTrace] = []
    cores: list[BoomCore] = []

    class RecordingTrace(FetchTrace):
        def __init__(self, *args):
            super().__init__(*args)
            traces.append(self)

    class RecordingCore(BoomCore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            cores.append(self)

    monkeypatch.setattr("repro.uarch.ftrace.FetchTrace", RecordingTrace)
    monkeypatch.setattr("repro.uarch.core.BoomCore", RecordingCore)
    program, first = _batch_checkpoint()
    executor = Executor(program, state=first.restore())
    executor.run(max_instructions=4_000)
    second = Checkpoint.capture(
        executor.state, workload="sha", interval_index=1, weight=1.0,
        warmup_instructions=_BATCH_WARMUP)
    batch.simulate_raw_runs_batched(ALL_CONFIGS, program, [first, second],
                                    _BATCH_WINDOW)
    assert len(traces) == 2
    assert len(cores) == 2 * len(ALL_CONFIGS)
    fetch_width = max(config.fetch_width for config in ALL_CONFIGS)
    for trace in traces:
        assert not trace.exited
        furthest = max(core.frontend.pos for core in cores
                       if core.frontend.trace is trace)
        assert furthest >= _BATCH_WARMUP + _BATCH_WINDOW
        assert len(trace) <= furthest + fetch_width + ftrace._STEP
