"""Per-program decode cache: the detailed core's uop-template store.

Each static instruction is decoded exactly once per :class:`Program`: its
semantic handler, opclass, issue queue, destination kind, register-read
counts, renamed source list, and classification flags are precomputed into
a :class:`DecodedOp` template.  Fetch then stamps out :class:`Uop`
instances from the template with direct slot stores — no per-fetch spec
walks, enum property lookups, or string comparisons.

The decode table is shared between every :class:`~repro.uarch.ftrace.
FetchTrace` built for the same program (checkpointed detailed runs build
one trace per SimPoint), via an id-keyed cache with weakref eviction —
the same lifetime scheme as the functional executor's superblock cache.
"""

from __future__ import annotations

import weakref

from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.sim.semantics import semantics_for
from repro.uarch.uop import DISPATCHED, _NEVER, Uop


class DecodedOp:
    """Immutable per-static-instruction template for fast uop creation."""

    __slots__ = ("fn", "instr", "opclass", "opclass_name", "queue",
                 "dest_kind", "x_reads", "f_reads", "src_regs", "is_load",
                 "is_store", "is_mem", "is_control", "addr_ready",
                 "rs1", "imm", "trace_key")

    def __init__(self, instr: Instruction) -> None:
        self.fn = semantics_for(instr)
        self.instr = instr
        opclass = instr.opclass
        self.opclass = opclass
        self.opclass_name = opclass.name
        self.queue = opclass.issue_queue
        spec = instr.spec
        x_reads = 0
        f_reads = 0
        for cls, reg in ((spec.src1, instr.rs1), (spec.src2, instr.rs2),
                         (spec.src3, instr.rs3)):
            if cls == "x":
                if reg:
                    x_reads += 1
            elif cls == "f":
                f_reads += 1
        self.x_reads = x_reads
        self.f_reads = f_reads
        self.src_regs = instr.source_regs()
        if instr.writes_x:
            self.dest_kind = "x"
        elif instr.writes_f:
            self.dest_kind = "f"
        else:
            self.dest_kind = ""
        self.is_load = instr.is_load
        self.is_store = instr.is_store
        self.is_mem = self.is_load or self.is_store
        self.is_control = opclass.is_control
        self.addr_ready = not self.is_store
        self.rs1 = instr.rs1
        self.imm = instr.imm
        self.trace_key = f"{instr.pc:#x}"

    def make_uop(self, seq: int) -> Uop:
        """Stamp out one in-flight uop from this template (hot path)."""
        uop = Uop.__new__(Uop)
        uop.seq = seq
        uop.instr = self.instr
        uop.opclass = self.opclass
        uop.opclass_name = self.opclass_name
        uop.queue = self.queue
        uop.srcs = ()
        uop.src_regs = self.src_regs
        uop.dest_kind = self.dest_kind
        uop.x_reads = self.x_reads
        uop.f_reads = self.f_reads
        uop.state = DISPATCHED
        uop.complete_cycle = _NEVER
        uop.taken = False
        uop.mispredicted = False
        uop.fp_snapshotted = False
        uop.btb_bubble = False
        uop.is_load = self.is_load
        uop.is_store = self.is_store
        uop.is_control = self.is_control
        uop.mem_addr = 0
        uop.addr_ready = self.addr_ready
        uop.dispatch_cycle = -1
        uop.issue_cycle = -1
        uop.trace_key = self.trace_key
        return uop


#: Program identity -> decode table, evicted when the program is collected.
_DECODE_CACHES: dict[int, list[DecodedOp]] = {}


def _assign_trace_keys(table: list[DecodedOp]) -> None:
    """Label every template with its static basic-block leader pc.

    Leaders are the program entry, every instruction after a control
    transfer, and every statically-known branch/jump target.  The label is
    a pure function of the program text, so the serial and batched engines
    attribute dispatches to identical trace keys.
    """
    if not table:
        return
    pcs = {dec.instr.pc for dec in table}
    leaders = {table[0].instr.pc}
    for dec in table:
        if dec.is_control:
            instr = dec.instr
            leaders.add(instr.pc + 4)
            if dec.opclass_name in ("BRANCH", "JAL"):
                target = instr.pc + instr.imm
                if target in pcs:
                    leaders.add(target)
    current = table[0].instr.pc
    for dec in table:
        pc = dec.instr.pc
        if pc in leaders:
            current = pc
        dec.trace_key = f"{current:#x}"


def decode_program(program: Program) -> list[DecodedOp]:
    """Return the (shared, cached) decode table for ``program``."""
    key = id(program)
    table = _DECODE_CACHES.get(key)
    if table is None:
        table = [DecodedOp(instr) for instr in program.instructions]
        _assign_trace_keys(table)
        _DECODE_CACHES[key] = table
        weakref.finalize(program, _DECODE_CACHES.pop, key, None)
    return table
