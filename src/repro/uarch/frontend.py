"""The fetch stage: instruction cache, branch prediction, fetch buffer.

The detailed core is oracle-driven: fetch replays the dynamic instruction
stream a :class:`~repro.uarch.ftrace.FetchTrace` records from the
functional model, so branch outcomes and memory addresses are known at
fetch.  The *timing* consequences are then modeled faithfully:

* the I-cache is accessed once per active fetch cycle; misses stall fetch;
* a fetch group ends at a taken control-flow instruction or a cache-line
  boundary;
* BTB misses on taken control flow cost a short front-end bubble
  (redirect-at-decode);
* a mispredicted branch stops instruction supply until it resolves in the
  backend plus a redirect penalty — the trace-driven equivalent of
  fetching the wrong path and squashing it.

Fetched uops land in the fetch buffer, which decouples fetch from decode
(the paper's explanation for the I-cache's uniform access pattern).
"""

from __future__ import annotations

from collections import deque

from repro.uarch.bpu import BranchPredictionUnit
from repro.uarch.cache import L1Cache
from repro.uarch.config import BoomConfig
from repro.uarch.ftrace import FetchTrace
from repro.uarch.stats import FrontendStats
from repro.uarch.uop import COMPLETED, Uop
from repro.isa.instructions import OpClass

#: cycles from mispredict resolution until new uops reach the buffer
#: (front-end refill through fetch, decode and rename)
REDIRECT_PENALTY = 5
#: decode-stage redirect for taken control flow the BTB did not know
BTB_BUBBLE = 2

_LINE_SHIFT = 6


class FetchUnit:
    """Trace-replaying fetch with a real predictor and I-cache in the loop.

    Replays the config-invariant instruction stream recorded in ``trace``
    through this config's private fetch timing (I-cache, predictor,
    fetch-group boundaries, fetch buffer) with a private cursor ``pos``.
    One trace may feed many units (a batch); a unit that ``owns_trace``
    is its only reader and drops the entries it has consumed whenever it
    extends the trace, so a whole-program run holds a bounded window of
    the dynamic stream instead of all of it.
    """

    def __init__(self, config: BoomConfig, trace: FetchTrace,
                 bpu: BranchPredictionUnit, icache: L1Cache,
                 stats: FrontendStats, owns_trace: bool = False) -> None:
        self.config = config
        self.trace = trace
        self.owns_trace = owns_trace
        self.bpu = bpu
        self.icache = icache
        self.stats = stats
        self.buffer: deque[Uop] = deque()
        self.stall_until = 0
        self.blocked_by: Uop | None = None
        self._seq = 0
        self.pc = trace.start_pc
        self.pos = 0

    def rebind_stats(self, stats: FrontendStats) -> None:
        self.stats = stats

    @property
    def exited(self) -> bool:
        """True once the exit instruction has been fetched: the cursor is
        past the end of an exhausted trace."""
        trace = self.trace
        return trace.exited and self.pos >= len(trace.entries)

    @property
    def fetched(self) -> int:
        """Total uops fetched since construction."""
        return self._seq

    @property
    def out_of_instructions(self) -> bool:
        return self.exited and not self.buffer

    def extend(self, ahead: int) -> None:
        """Record the trace to at least ``ahead`` entries past the cursor.

        An owned trace first drops the entries already consumed.
        """
        trace = self.trace
        if self.owns_trace and self.pos:
            del trace.entries[:self.pos]
            self.pos = 0
        trace.ensure(self.pos + ahead)

    def cycle(self, cycle: int) -> None:
        """Run one fetch cycle."""
        stats = self.stats
        stats.fetch_buffer_occupancy += len(self.buffer)
        trace = self.trace
        fetch_width = self.config.fetch_width
        if len(trace.entries) < self.pos + fetch_width and not trace.exited:
            self.extend(fetch_width)
        if trace.exited and self.pos >= len(trace.entries):
            return
        if self.blocked_by is not None:
            blocker = self.blocked_by
            if blocker.state == COMPLETED and \
                    cycle >= blocker.complete_cycle + REDIRECT_PENALTY:
                self.blocked_by = None
            else:
                stats.fetch_stall_cycles += 1
                return
        if cycle < self.stall_until:
            stats.fetch_stall_cycles += 1
            return
        space = self.config.fetch_buffer_entries - len(self.buffer)
        if space <= 0:
            return
        # One I-cache access and one predictor lookup per active cycle.
        latency = self.icache.access(self.pc, cycle)
        stats.icache_accesses += 1
        self.bpu.stats.lookups += 1
        if latency is None:
            self.stall_until = cycle + 1
            stats.fetch_stall_cycles += 1
            return
        if latency > self.icache.hit_latency:
            stats.icache_misses += 1
            self.stall_until = cycle + latency
            stats.fetch_stall_cycles += 1
            return
        self._fetch_group(cycle, min(fetch_width, space))

    def _fetch_group(self, cycle: int, budget: int) -> None:
        entries = self.trace.entries
        end = len(entries)
        stats = self.stats
        buffer = self.buffer
        pos = self.pos
        line = self.pc >> _LINE_SHIFT
        seq = self._seq
        while budget > 0 and pos < end:
            dec, pc, mem_addr, taken, next_pc = entries[pos]
            if pc >> _LINE_SHIFT != line:
                break  # next line is a new fetch group (new I$ access)
            uop = dec.make_uop(seq)
            seq += 1
            if dec.is_mem:
                uop.mem_addr = mem_addr
            pos += 1
            self.pc = next_pc
            buffer.append(uop)
            stats.fetch_buffer_writes += 1
            budget -= 1
            if dec.is_control:
                if self._predict(uop, pc, taken, next_pc, cycle):
                    break
        self._seq = seq
        self.pos = pos

    def _predict(self, uop: Uop, pc: int, taken: bool,
                 actual_next: int, cycle: int) -> bool:
        """Drive the predictor for one control uop.

        Returns True when the fetch group must end this cycle (taken
        control flow or a discovered mispredict).
        """
        bpu = self.bpu
        opclass = uop.opclass
        mispredicted = False
        bubble = False
        if opclass is OpClass.BRANCH:
            uop.taken = taken
            mispredicted = bpu.predict_conditional(pc, taken, actual_next)
        elif opclass is OpClass.JAL:
            uop.taken = True
            bubble = bpu.predict_jump(pc, actual_next)
            if uop.instr.rd == 1:  # call: push the return address
                bpu.ras.push(pc + 4)
        else:  # JALR
            uop.taken = True
            instr = uop.instr
            is_return = instr.rd == 0 and instr.rs1 in (1, 5)
            is_call = instr.rd == 1
            mispredicted = bpu.predict_indirect(
                pc, actual_next, is_return=is_return, is_call=is_call,
                return_address=pc + 4)
        if mispredicted:
            uop.mispredicted = True
            self.blocked_by = uop
            return True
        if taken:
            if bubble:
                # Taken control flow the BTB did not know: the target is
                # only available after decode, costing a short bubble.
                uop.btb_bubble = True
                self.stall_until = cycle + 1 + BTB_BUBBLE
            # Correctly-predicted taken control flow ends the fetch group.
            return True
        return False
