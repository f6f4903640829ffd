"""Differential validation: detailed core vs. functional executor.

The detailed core is oracle-driven — its frontend replays a
:class:`~repro.uarch.ftrace.FetchTrace` recorded from a functional model
of the checkpoint — so a second, independent functional run from the
*same checkpoint* must agree with it exactly: same commit PC stream,
same final registers (FP compared bitwise), same memory pages.  Any
divergence means one of the two execution paths is wrong, and the report
pins down the first point where they disagree.

The comparison aligns the two runs on *recorded* instructions: the core
stops once its retire target is reached, possibly with uops still in
flight, and its trace runs ahead of fetch.  The trace's model
(``core.frontend.trace.state``) has executed every fetched instruction
plus the recorded entries fetch has not reached yet — so the reference
executor runs for exactly ``frontend.fetched + len(trace.entries) -
frontend.pos`` instructions.  The commit PC stream is checked as a
prefix (only retired uops have committed).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import DifferentialMismatch
from repro.sim.executor import Executor


def _f_bits(value: float) -> int:
    return int.from_bytes(struct.pack("<d", value), "little")


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one lockstep comparison."""

    config_name: str
    #: instructions both models executed (recorded by the detailed core's
    #: fetch trace: everything fetched plus the trace's lookahead)
    instructions: int
    #: committed uops whose PCs were checked against the reference stream
    commit_pcs_checked: int
    #: human-readable description of the first divergence, or ``None``
    divergence: str | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def format(self) -> str:
        status = "OK" if self.ok else f"DIVERGED: {self.divergence}"
        return (f"differential [{self.config_name}] "
                f"{self.instructions} instructions, "
                f"{self.commit_pcs_checked} commit PCs checked: {status}")


def _first_divergence(detailed, reference) -> str | None:
    """Compare final architectural state; return the first mismatch."""
    for index, (got, want) in enumerate(zip(detailed.x, reference.x)):
        if got != want:
            return (f"x{index}: detailed=0x{got:x} reference=0x{want:x}")
    for index, (got, want) in enumerate(zip(detailed.f, reference.f)):
        if _f_bits(got) != _f_bits(want):
            return (f"f{index}: detailed bits 0x{_f_bits(got):x} "
                    f"reference bits 0x{_f_bits(want):x}")
    if detailed.pc != reference.pc:
        return f"pc: detailed=0x{detailed.pc:x} reference=0x{reference.pc:x}"
    if detailed.fcsr != reference.fcsr:
        return f"fcsr: detailed={detailed.fcsr} reference={reference.fcsr}"
    got_pages = detailed.memory.snapshot_pages()
    want_pages = reference.memory.snapshot_pages()
    for number in sorted(set(got_pages) | set(want_pages)):
        got = got_pages.get(number)
        want = want_pages.get(number)
        if got != want:
            side = ("missing in detailed" if got is None
                    else "missing in reference" if want is None
                    else "contents differ")
            return f"memory page {number}: {side}"
    return None


def diff_core_against_reference(core, program, reference_state,
                                raise_on_mismatch: bool = True
                                ) -> DifferentialReport:
    """Diff an already-run detailed core against a fresh reference run.

    ``core`` must have been constructed with ``retire_log`` enabled and
    run to whatever point is being validated; ``reference_state`` must be
    an independent restore of the same starting checkpoint.
    """
    frontend = core.frontend
    trace = frontend.trace
    detailed_state = trace.state
    recorded = frontend.fetched + len(trace.entries) - frontend.pos

    reference_pcs: list[int] = []

    def hook(block_start: int, block_end: int) -> None:
        reference_pcs.extend(range(block_start, block_end + 4, 4))

    executor = Executor(program, state=reference_state)
    executed = executor.run(max_instructions=recorded, control_hook=hook)

    divergence = None
    checked = 0
    if executed != recorded:
        divergence = (f"instruction count: detailed recorded {recorded}, "
                      f"reference executed {executed}")
    else:
        # Commit order is program order, so the retire log must be a
        # prefix of the reference PC stream.
        for index, (uop, _cycle) in enumerate(core.retire_log or ()):
            if index >= len(reference_pcs):
                divergence = (f"commit #{index}: detailed committed "
                              f"pc=0x{uop.instr.pc:x} beyond the "
                              f"reference stream")
                break
            if uop.instr.pc != reference_pcs[index]:
                divergence = (f"commit #{index}: detailed "
                              f"pc=0x{uop.instr.pc:x} reference "
                              f"pc=0x{reference_pcs[index]:x}")
                break
            checked += 1
        if divergence is None:
            divergence = _first_divergence(detailed_state, reference_state)
    report = DifferentialReport(config_name=core.config.name,
                                instructions=recorded,
                                commit_pcs_checked=checked,
                                divergence=divergence)
    if divergence is not None and raise_on_mismatch:
        raise DifferentialMismatch(report.format())
    return report
