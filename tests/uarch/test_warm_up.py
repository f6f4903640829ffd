"""``BoomCore.warm_up``: the same timing state as ``run``, less accounting.

An unobserved warm-up on the fused loop skips the counter updates that
only feed ``core.stats`` (which ``begin_measurement()`` then discards).
These tests pin both halves of that contract: the warm-up leaves every
piece of timing state — cycle and retire counts, the uops in flight in
the ROB, issue queues and LSQ, rename free lists, pending completions,
divider timers, live MSHRs, the fetch cursor — exactly where ``run``
leaves it, so the measured window that follows is bit-identical; and the
skip really happens when nobody observes, and never when someone does.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint.checkpoint import Checkpoint
from repro.goldens import GOLDEN_SEED
from repro.sim.executor import Executor
from repro.uarch.config import LARGE_BOOM, MEDIUM_BOOM, MEGA_BOOM
from repro.uarch.core import BoomCore
from repro.workloads.suite import build_program

_WARMUP = 2_000
_WINDOW = 1_000
#: long enough for several observer strides
_OBSERVED_WARMUP = 20_000

#: the fused loop on every preset, plus the generic loop (ring queues)
_CONFIGS = (MEDIUM_BOOM, LARGE_BOOM, MEGA_BOOM,
            MEGA_BOOM.with_issue_queues("ring"))


def _checkpoint(workload: str):
    program = build_program(workload, scale=0.3, seed=GOLDEN_SEED)
    executor = Executor(program)
    executor.run(max_instructions=1_500)
    return program, Checkpoint.capture(
        executor.state, workload=workload, interval_index=0, weight=1.0,
        warmup_instructions=_WARMUP)


def _seqs(uops) -> list:
    return [None if uop is None else uop.seq for uop in uops]


def _timing_state(core: BoomCore) -> dict:
    """Everything a later cycle's timing can depend on, as plain data."""
    queues = {name: _seqs(getattr(queue, "_slots", None) or queue._queue)
              for name, queue in core._queues.items()}
    rename = core.rename
    return {
        "cycle": core.cycle,
        "retired_total": core.retired_total,
        "branches_in_flight": core.branches_in_flight,
        "fp_in_flight": core.fp_in_flight,
        "rob": _seqs(core.rob),
        "iq": queues,
        "ldq": _seqs(core.lsu._ldq),
        "stq": _seqs(core.lsu._stq),
        "free": (rename.int_unit.free, rename.fp_unit.free),
        "completions": {cycle: _seqs(uops) for cycle, uops
                        in sorted(core._completions.items())},
        "dividers": (core.fus._div_busy_until, core.fus._fp_div_busy_until),
        "mshrs": (core.icache.mshrs_in_flight(core.cycle),
                  core.dcache.mshrs_in_flight(core.cycle)),
        "fetch": (core.frontend.pos, core.frontend.pc,
                  core.frontend.stall_until, core.frontend._seq,
                  _seqs([core.frontend.blocked_by]),
                  _seqs(core.frontend.buffer)),
    }


def _warm_then_measure(config, program, checkpoint, warm: str):
    core = BoomCore(config, program, state=checkpoint.restore())
    getattr(core, warm)(_WARMUP)
    after_warm = _timing_state(core)
    stats = core.begin_measurement()
    core.run(_WINDOW)
    return (after_warm, _timing_state(core),
            json.dumps(stats.to_dict(), sort_keys=True))


@pytest.mark.parametrize("workload", ["sha", "dijkstra", "qsort", "fft"])
@pytest.mark.parametrize("config", _CONFIGS,
                         ids=lambda c: f"{c.name}-{c.issue_queue_kind}")
def test_warm_up_leaves_the_state_run_leaves(workload, config):
    program, checkpoint = _checkpoint(workload)
    reference = _warm_then_measure(config, program, checkpoint, "run")
    warmed = _warm_then_measure(config, program, checkpoint, "warm_up")
    assert warmed[0] == reference[0]   # timing state after the warm-up
    assert warmed[1] == reference[1]   # ... and after the measured window
    assert warmed[2] == reference[2]   # the measured stats, every counter
    assert reference[0]["retired_total"] >= _WARMUP
    assert reference[0]["rob"]         # the window starts mid-flight


def test_unobserved_warm_up_skips_the_accounting():
    """The fast path is real: the discarded counters stay untouched."""
    program, checkpoint = _checkpoint("sha")
    core = BoomCore(MEGA_BOOM, program, state=checkpoint.restore())
    core.warm_up(_WARMUP)
    stats = core.stats
    assert core.retired_total > 0
    assert stats.accounting.dispatch_by_trace == {}
    assert stats.retired_by_class == {}
    assert stats.rob.occupancy == 0
    assert stats.int_regfile.reads == 0
    assert stats.int_iq.writes == 0
    # the timing counters still count
    assert stats.retired == core.retired_total
    assert stats.cycles == core.cycle


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "generic"])
def test_observed_warm_up_keeps_full_accounting(fused):
    """An observer, or the generic loop, reads what it reads under run."""
    program, checkpoint = _checkpoint("sha")
    runs = []
    for warm in ("run", "warm_up"):
        core = BoomCore(MEGA_BOOM, program, state=checkpoint.restore())
        core._fused = fused
        seen = []

        def observe(retired, cycles, core=core, seen=seen):
            seen.append(json.dumps(core.stats.to_dict(), sort_keys=True))

        getattr(core, warm)(_OBSERVED_WARMUP, [observe])
        assert len(seen) >= 2
        runs.append((seen, json.dumps(core.stats.to_dict(),
                                      sort_keys=True)))
    assert runs[0] == runs[1]
    assert json.loads(runs[1][1])["accounting"]["dispatch_by_trace"]


def test_unobserved_warm_up_on_the_generic_loop_keeps_accounting():
    program, checkpoint = _checkpoint("sha")
    stats = []
    for warm in ("run", "warm_up"):
        core = BoomCore(MEGA_BOOM.with_issue_queues("ring"), program,
                        state=checkpoint.restore())
        getattr(core, warm)(_WARMUP)
        stats.append(core.stats.to_dict())
    assert stats[0] == stats[1]
