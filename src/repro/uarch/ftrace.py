"""Config-invariant fetch trace: the oracle instruction stream.

The detailed core is oracle-driven: branch outcomes and effective
addresses are known at fetch time.  A :class:`FetchTrace` is the one
place in the core that steps the functional model for them: it records,
per dynamic instruction, the decoded template, fetch pc, effective
address, taken flag, and next pc.  Those outcomes are a pure function of
the checkpointed architectural state — identical for *every* uarch
config that replays the same checkpoint — so a batch of configs shares
one trace, and each config's :class:`~repro.uarch.frontend.FetchUnit`
replays it through its own private timing (I-cache, predictor, fetch
buffer).  A core given no trace records a private one.

The trace extends lazily: configs consume it at different rates
(different fetch widths and stall patterns), so each
:meth:`FetchTrace.ensure` call records only up to the requested count
plus a small step.  A shared trace therefore ends at most one step past
the furthest position any consumer asked for and is never trimmed; a
private trace's only reader drops the entries it has consumed before
each extension.  Every recorded entry costs a functional step and a live
tuple, and a trace held by a batch sets much of the cold flow's memory
peak.

``state`` is the functional model: it has executed every entry recorded
so far, including those no consumer has fetched yet.
"""

from __future__ import annotations

from repro.isa.program import Program, TEXT_BASE
from repro.sim.state import ArchState, MASK64
from repro.uarch.decode import DecodedOp, decode_program

#: Trace-entry tuple layout: (decoded template, pc, effective address,
#: taken flag, next pc).
Entry = tuple[DecodedOp, int, int, bool, int]

#: entries recorded past the requested count per extension, so a
#: consumer advancing a fetch group at a time does not call back every
#: cycle
_STEP = 256


class FetchTrace:
    """Lazily-built oracle fetch stream for one checkpoint replay."""

    __slots__ = ("program", "entries", "start_pc", "exited", "state",
                 "_ops", "direction_memos", "__weakref__")

    def __init__(self, program: Program, state: ArchState) -> None:
        self.program = program
        self.entries: list[Entry] = []
        self.start_pc = state.pc
        self.exited = state.exited
        self.state = state
        self._ops = decode_program(program)
        #: direction-predictor key -> :class:`~repro.uarch.bpu.
        #: DirectionMemo` shared by the cores replaying this trace
        self.direction_memos: dict = {}

    def __len__(self) -> int:
        return len(self.entries)

    def ensure(self, count: int) -> None:
        """Extend the trace to ``count + _STEP`` entries (or exhaustion).

        The step keeps replay-side extension checks off most cycles
        without recording far beyond what any consumer reads.
        """
        entries = self.entries
        if self.exited or len(entries) >= count:
            return
        state = self.state
        ops = self._ops
        append = entries.append
        x = state.x
        budget = count + _STEP - len(entries)
        while budget > 0 and not state.exited:
            pc = state.pc
            dec = ops[(pc - TEXT_BASE) >> 2]
            if dec.is_mem:
                mem_addr = (x[dec.rs1] + dec.imm) & MASK64
            else:
                mem_addr = 0
            next_pc = dec.fn(state, dec.instr)
            if next_pc is not None:
                state.pc = next_pc
                append((dec, pc, mem_addr, True, next_pc))
            else:
                next_pc = pc + 4
                state.pc = next_pc
                append((dec, pc, mem_addr, False, next_pc))
            budget -= 1
        self.exited = state.exited
