"""What a batch shares, and what the fused loop settles in closed form.

Cores replaying one :class:`FetchTrace` share its oracle stream and,
per direction-predictor config, one run of the direction predictor
(:class:`~repro.uarch.bpu.DirectionMemo`).  These tests pin that sharing
is invisible — a core on a shared trace reads exactly as it would on a
private one, whichever core drives the memo — and that a dropped batch
frees its trace without the garbage collector.  The last group pins the
fused loop's in-place queue collapse: the ``issues``, ``shifts`` and
per-slot ``slot_writes`` it derives from the issued positions equal the
generic loop's entry-by-entry counts, with queues kept full.
"""

from __future__ import annotations

import gc
import json
import weakref
from dataclasses import replace

import pytest

from repro.checkpoint.checkpoint import Checkpoint
from repro.goldens import GOLDEN_SEED
from repro.isa.assembler import assemble
from repro.sim.executor import Executor
from repro.uarch.config import LARGE_BOOM, MEDIUM_BOOM, MEGA_BOOM
from repro.uarch.core import _OBSERVER_STRIDE, BoomCore
from repro.uarch.ftrace import FetchTrace
from repro.workloads.suite import build_program

_WARMUP = 1_500
_WINDOW = 3_000


def _checkpoint(workload: str = "qsort"):
    program = build_program(workload, scale=0.3, seed=GOLDEN_SEED)
    executor = Executor(program)
    executor.run(max_instructions=1_000)
    return program, Checkpoint.capture(
        executor.state, workload=workload, interval_index=0, weight=1.0,
        warmup_instructions=_WARMUP)


def _renamed(config, suffix: str, **predictor):
    return replace(config, name=f"{config.name}-{suffix}",
                   predictor=replace(config.predictor, **predictor))


#: equal direction params with different BTBs; different TAGE sizes;
#: gshare at two sizes
_EQUAL = (LARGE_BOOM, MEGA_BOOM, _renamed(MEGA_BOOM, "btb128",
                                          btb_entries=128))
_DIFFERENT = (MEDIUM_BOOM, LARGE_BOOM,
              _renamed(MEGA_BOOM, "tage1k", tage_table_entries=1024))
_GSHARE = (MEDIUM_BOOM.with_predictor("gshare"),
           MEGA_BOOM.with_predictor("gshare"),
           _renamed(LARGE_BOOM.with_predictor("gshare"), "gs1k",
                    gshare_entries=1024, gshare_history_bits=10))


def _stats(core: BoomCore, warmed: int, measured: int) -> tuple:
    return (warmed, measured, core.cycle, core.retired_total,
            json.dumps(core.stats.to_dict(), sort_keys=True))


def _private(program, checkpoint, config) -> tuple:
    core = BoomCore(config, program, state=checkpoint.restore())
    warmed = core.warm_up(_WARMUP)
    core.begin_measurement()
    return _stats(core, warmed, core.run(_WINDOW))


@pytest.mark.parametrize("configs, memos",
                         [(_EQUAL, 1), (_DIFFERENT, 3), (_GSHARE, 2)],
                         ids=["equal-params", "different-params", "gshare"])
@pytest.mark.parametrize("order", ["one-by-one", "interleaved"])
def test_shared_trace_cores_equal_private_trace_cores(configs, memos, order):
    """Run one after another, or phase by phase (so different cores
    drive the memo at different branches), cores on a shared trace end
    with the stats of cores on private traces."""
    program, checkpoint = _checkpoint()
    trace = FetchTrace(program, checkpoint.restore())
    cores = [BoomCore(config, program, trace=trace) for config in configs]
    warmed = {}
    shared = {}
    if order == "one-by-one":
        for config, core in zip(configs, cores):
            warmed[config.name] = core.warm_up(_WARMUP)
            core.begin_measurement()
            shared[config.name] = _stats(core, warmed[config.name],
                                         core.run(_WINDOW))
    else:
        for config, core in zip(configs, cores):
            warmed[config.name] = core.warm_up(_WARMUP)
        # The last core runs its window first: it drives the memo past
        # where the others stopped.
        for config, core in reversed(list(zip(configs, cores))):
            core.begin_measurement()
            shared[config.name] = _stats(core, warmed[config.name],
                                         core.run(_WINDOW))
    for config in configs:
        assert shared[config.name] == \
            _private(program, checkpoint, config), config.name
    # One memo per distinct direction config (BTB sizes do not count).
    assert len(trace.direction_memos) == memos


def test_memo_is_driven_once_per_branch():
    """A second core with the same direction params reads every
    prediction from the memo: the memo's own predictor is not stepped
    again."""
    program, checkpoint = _checkpoint()
    trace = FetchTrace(program, checkpoint.restore())
    first = BoomCore(MEDIUM_BOOM, program, trace=trace)
    first.run(_WINDOW)
    (memo,) = trace.direction_memos.values()
    driven = memo.predictor.stats.dir_updates
    assert driven == len(memo.outcomes) > 0
    second = BoomCore(MEGA_BOOM, program, trace=trace)
    second.run(_WINDOW // 2)
    assert memo.predictor.stats.dir_updates == driven
    assert second.stats.predictor.dir_updates > 0


def test_private_trace_keeps_no_memo_entries():
    """A private trace's only reader drives its predictor directly and
    records nothing, so a whole-program run stays bounded."""
    program, checkpoint = _checkpoint()
    core = BoomCore(MEDIUM_BOOM, program, state=checkpoint.restore())
    core.run(_WINDOW)
    assert core.stats.predictor.dir_updates > 0
    assert core.frontend.trace.direction_memos == {}
    assert core.bpu._memo.outcomes == []


def test_shared_trace_is_freed_without_the_collector():
    """Dropping a batch's cores and trace frees the trace by reference
    counting alone: nothing it owns points back at it."""
    program, checkpoint = _checkpoint()
    enabled = gc.isenabled()
    gc.disable()
    try:
        trace = FetchTrace(program, checkpoint.restore())
        cores = [BoomCore(config, program, trace=trace)
                 for config in _DIFFERENT + _GSHARE[:1]]
        for core in cores:
            core.warm_up(500)
            core.begin_measurement()
            core.run(1_000)
        assert len(trace.direction_memos) == 4
        alive = weakref.ref(trace)
        del trace, cores, core
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# the fused loop's in-place collapse vs the generic loop's
# ----------------------------------------------------------------------

def _queue_filling_program(iterations: int = 140) -> str:
    """Each iteration has three sections, each a serial divide and a run
    of work that waits on it: int adds, then stores (whose loads wait on
    their addresses), then FP adds.  The run outgrows the queue it waits
    in, so every issue queue fills and then drains several entries a
    cycle."""
    lines = ["    .data", "buf:", "    .space 512", "    .text", "_start:",
             "    la   s10, buf",
             "    li   t0, 1000003", "    li   t1, 3", "    li   t3, 7",
             "    li   s5, 9", "    fcvt.d.l ft0, s5",
             "    li   s5, 3", "    fcvt.d.l ft1, s5",
             f"    li   s0, {iterations}", "loop:", "    div  t0, t0, t1"]
    lines += [f"    add  {('t2', 't4', 't5')[index % 3]}, t0, t3"
              for index in range(48)]
    lines.append("    div  t0, t0, t1")
    for index in range(28):
        lines.append(f"    sd   t0, {8 * (index % 32)}(s10)")
        lines.append(f"    ld   s{6 + index % 3}, "
                     f"{8 * (index % 32) + 256}(s10)")
    lines.append("    fdiv.d ft0, ft0, ft1")
    lines += [f"    fadd.d ft{2 + index % 3}, ft0, ft1"
              for index in range(40)]
    lines += ["    addi t0, t0, 1000",
              "    addi s0, s0, -1",
              "    bnez s0, loop",
              "    li   a0, 0", "    li   a7, 93", "    ecall"]
    return "\n".join(lines)


#: the smallest queue rungs of the DSE space on a narrow core
_SMALL_QUEUES = replace(MEDIUM_BOOM, name="dse-small-queues",
                        int_iq_entries=8, mem_iq_entries=8,
                        fp_iq_entries=8)

_QUEUES = ("int_iq", "mem_iq", "fp_iq")


def _queue_counters(stats) -> dict:
    return {name: {key: getattr(stats, name).__dict__[key]
                   for key in ("issues", "shifts", "slot_writes", "writes",
                               "full_stall_cycles")}
            for name in _QUEUES}


@pytest.mark.parametrize("config", [MEDIUM_BOOM, MEGA_BOOM, _SMALL_QUEUES],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("observed", [False, True],
                         ids=["unobserved", "observed"])
def test_fused_collapse_counts_match_generic_loop(config, observed):
    program = assemble(_queue_filling_program())
    runs = []
    for fused in (True, False):
        core = BoomCore(config, program)
        core._fused = fused
        records = []

        def observe(retired, cycles, core=core, records=records):
            records.append((cycles, _queue_counters(core.stats)))

        core.run(observers=[observe] if observed else ())
        runs.append((core.cycle, records, _queue_counters(core.stats)))
    assert runs[0] == runs[1]
    cycles, records, counters = runs[0]
    if observed:
        assert len(records) >= 2
        assert cycles > 2 * _OBSERVER_STRIDE
    for name in _QUEUES:
        # The program really fills and collapses every queue.
        assert counters[name]["full_stall_cycles"] > 0, name
        assert counters[name]["shifts"] > 0, name
        assert sum(counters[name]["slot_writes"]) == \
            counters[name]["writes"] + counters[name]["shifts"], name
