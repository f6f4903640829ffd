"""Pipeline visualization: per-uop waterfall diagrams.

A debugging aid in the spirit of gem5's O3 pipeline viewer: run a small
program (or window) through the detailed core, record per-uop stage
timestamps, and render them as an ASCII waterfall —

::

    seq  pc        op            |D..I==C...R        |
      0  00001000  addi          |DI=C R             |
      1  00001004  ld            |DI====C  R         |

where ``D`` is dispatch, ``I`` issue, ``=`` execution, ``C`` completion
(writeback), and ``R`` retirement.

Example::

    from repro.uarch.pipeview import trace_program, render_waterfall

    timings = trace_program(program, MEDIUM_BOOM, max_uops=32)
    print(render_waterfall(timings))
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.program import Program
from repro.uarch.config import BoomConfig
from repro.uarch.core import BoomCore


@dataclass(frozen=True)
class UopTiming:
    """Stage timestamps of one retired uop."""

    seq: int
    pc: int
    mnemonic: str
    dispatch: int
    issue: int
    complete: int
    commit: int

    @property
    def queue_wait(self) -> int:
        """Cycles spent waiting in the issue queue."""
        return self.issue - self.dispatch

    @property
    def latency(self) -> int:
        """Execution latency (issue to result)."""
        return self.complete - self.issue


def trace_program(program: Program, config: BoomConfig,
                  max_uops: int = 64,
                  skip_instructions: int = 0) -> list[UopTiming]:
    """Run ``program`` and capture the first ``max_uops`` retirements
    after ``skip_instructions`` (e.g. to jump past a warm-up region).

    The skip is a warm-up: only uop timings are read, never the stats.
    """
    core = BoomCore(config, program)
    if skip_instructions:
        core.warm_up(skip_instructions)
    core.retire_log = []
    core.run(max_uops)
    timings = []
    for uop, commit_cycle in core.retire_log[:max_uops]:
        timings.append(UopTiming(
            seq=uop.seq,
            pc=uop.instr.pc,
            mnemonic=uop.instr.mnemonic,
            dispatch=uop.dispatch_cycle,
            issue=uop.issue_cycle,
            complete=uop.complete_cycle,
            commit=commit_cycle))
    return timings


def render_waterfall(timings: list[UopTiming],
                     max_columns: int = 100) -> str:
    """Render timings as an ASCII waterfall (one row per uop)."""
    if not timings:
        return "(no retired uops)"
    origin = min(t.dispatch for t in timings)
    span = max(t.commit for t in timings) - origin + 1
    columns = min(span, max_columns)
    header = (f"{'seq':>5}  {'pc':<10}{'op':<10} "
              f"|cycles {origin}..{origin + columns - 1}|")
    lines = [header]
    for timing in timings:
        row = [" "] * columns

        def put(cycle: int, glyph: str) -> None:
            index = cycle - origin
            if 0 <= index < columns:
                row[index] = glyph

        for cycle in range(timing.issue + 1, timing.complete):
            put(cycle, "=")
        put(timing.dispatch, "D")
        put(timing.issue, "I")
        put(timing.complete, "C")
        put(timing.commit, "R")
        lines.append(f"{timing.seq:>5}  {timing.pc:<#10x}"
                     f"{timing.mnemonic:<10} |{''.join(row)}|")
    return "\n".join(lines)


def summarize_timings(timings: list[UopTiming]) -> dict[str, float]:
    """Aggregate stage statistics over a timing capture."""
    if not timings:
        return {"uops": 0}
    count = len(timings)
    return {
        "uops": count,
        "avg_queue_wait": sum(t.queue_wait for t in timings) / count,
        "avg_latency": sum(t.latency for t in timings) / count,
        "avg_commit_delay": sum(t.commit - t.complete
                                for t in timings) / count,
        "span_cycles": max(t.commit for t in timings)
        - min(t.dispatch for t in timings) + 1,
    }
