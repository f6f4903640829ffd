"""The functional ISA simulator (our Spike analogue).

The executor runs a pre-decoded :class:`~repro.isa.program.Program` against
an :class:`~repro.sim.state.ArchState` at interpreter speed.  It serves
three roles in the experimental flow (paper Fig. 4):

1. **profiling** — with a ``control_hook`` installed it reports every
   dynamic basic block so :mod:`repro.profiling` can build the basic-block
   vectors gem5 produces in the paper's flow;
2. **checkpoint creation** — ``run(max_instructions=N)`` retires exactly
   ``N`` instructions so checkpoints land on precise SimPoint boundaries;
3. **reference execution** — workload self-checks compare detailed-core
   results against this model.

Two dispatch strategies are available (``dispatch=`` constructor arg):

``superblock`` (default)
    Each static basic block (split into pieces of at most ``_MAX_BLOCK``
    straight-line instructions) is lazily translated — once, at first
    entry — into a fused handler function, so the fetch -> decode ->
    dict-lookup cycle and the per-instruction loop overhead are paid per
    *block* instead of per dynamic instruction (the same trick binary
    translators play, minus the codegen).  Retire counts,
    ``control_hook`` semantics, and exception behavior are bit-identical
    to the reference loop; the equivalence suite in
    ``tests/sim/test_equivalence.py`` pins both to golden fixtures
    captured from the pre-optimization implementation.

``reference``
    The original per-instruction loop, kept as the semantic baseline the
    optimized path is diffed against (and for A/B benchmarking).

Example::

    from repro.isa.assembler import assemble
    from repro.sim.executor import Executor

    program = assemble(SOURCE)
    executor = Executor(program)
    executor.run()
    assert executor.state.exit_code == 0
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.isa.program import Program, TEXT_BASE
from repro.sim.semantics import _sext32, semantics_for
from repro.sim.state import MASK64, ArchState, to_signed

#: ``control_hook(block_start_pc, block_end_pc)`` is invoked when a dynamic
#: basic block ends (i.e., at every executed control-flow instruction); the
#: block spans the instructions from start to end inclusive.
ControlHook = Callable[[int, int], None]

_DEFAULT_FUEL = 1 << 62

#: most straight-line instructions one superblock compiles; a longer run
#: is split into capped blocks that fall through to the next.  Without
#: the cap a straight-line kernel (sha) compiles one exec'd function per
#: entry offset into a 1,000+ instruction run, and that codegen sets the
#: functional pass's memory high-water mark.
_MAX_BLOCK = 64

#: superblock tuple layout: (block_fn, total_count, has_ecall,
#: term_is_control, end_pc); ``block_fn(state)`` executes the whole block
#: and returns the next pc (never ``None``)
_Block = tuple

#: per-program superblock caches, shared by every executor bound to the
#: same Program object (the sweep builds many executors per program —
#: profiling, checkpointing, self-checks — and translation cost must be
#: paid once, not per executor).  Keyed by id() because the Program
#: dataclass is unhashable; a weakref finalizer evicts the entry when the
#: program dies so a recycled id can never serve stale blocks.
_BLOCK_CACHES: dict[int, list] = {}


def _blocks_for(program: Program) -> list:
    key = id(program)
    cache = _BLOCK_CACHES.get(key)
    if cache is None:
        cache = [None] * len(program.instructions)
        _BLOCK_CACHES[key] = cache
        weakref.finalize(program, _BLOCK_CACHES.pop, key, None)
    return cache


#: expression templates for x-register-writing ops: each must replicate
#: its semantics.py handler exactly, with register indices and immediates
#: folded in as constants (``_x`` is ``state.x``, ``_mem`` is
#: ``state.memory``, ``_M``/``_sg``/``_sx`` are MASK64/to_signed/_sext32)
_XW_TEMPLATES: dict[str, Callable[[int, int, int], str]] = {
    "add": lambda r1, r2, imm: f"(_x[{r1}] + _x[{r2}]) & _M",
    "sub": lambda r1, r2, imm: f"(_x[{r1}] - _x[{r2}]) & _M",
    "and": lambda r1, r2, imm: f"_x[{r1}] & _x[{r2}]",
    "or": lambda r1, r2, imm: f"_x[{r1}] | _x[{r2}]",
    "xor": lambda r1, r2, imm: f"_x[{r1}] ^ _x[{r2}]",
    "sll": lambda r1, r2, imm: f"(_x[{r1}] << (_x[{r2}] & 63)) & _M",
    "srl": lambda r1, r2, imm: f"_x[{r1}] >> (_x[{r2}] & 63)",
    "sra": lambda r1, r2, imm: f"(_sg(_x[{r1}]) >> (_x[{r2}] & 63)) & _M",
    "slli": lambda r1, r2, imm: f"(_x[{r1}] << {imm}) & _M",
    "srli": lambda r1, r2, imm: f"_x[{r1}] >> {imm}",
    "srai": lambda r1, r2, imm: f"(_sg(_x[{r1}]) >> {imm}) & _M",
    "addi": lambda r1, r2, imm: f"(_x[{r1}] + {imm}) & _M",
    "andi": lambda r1, r2, imm: f"_x[{r1}] & {imm & MASK64}",
    "ori": lambda r1, r2, imm: f"_x[{r1}] | {imm & MASK64}",
    "xori": lambda r1, r2, imm: f"_x[{r1}] ^ {imm & MASK64}",
    "slti": lambda r1, r2, imm: f"1 if _sg(_x[{r1}]) < {imm} else 0",
    "sltiu": lambda r1, r2, imm: f"1 if _x[{r1}] < {imm & MASK64} else 0",
    "slt": lambda r1, r2, imm:
        f"1 if _sg(_x[{r1}]) < _sg(_x[{r2}]) else 0",
    "sltu": lambda r1, r2, imm: f"1 if _x[{r1}] < _x[{r2}] else 0",
    "lui": lambda r1, r2, imm: f"{_sext32(imm << 12)}",
    "addw": lambda r1, r2, imm: f"_sx(_x[{r1}] + _x[{r2}])",
    "addiw": lambda r1, r2, imm: f"_sx(_x[{r1}] + {imm})",
    "slliw": lambda r1, r2, imm: f"_sx(_x[{r1}] << {imm})",
    "srliw": lambda r1, r2, imm:
        f"_sx((_x[{r1}] & 4294967295) >> {imm})",
    "mul": lambda r1, r2, imm: f"(_x[{r1}] * _x[{r2}]) & _M",
    "ld": lambda r1, r2, imm: f"_mem.load((_x[{r1}] + {imm}) & _M, 8)",
    "lwu": lambda r1, r2, imm: f"_mem.load((_x[{r1}] + {imm}) & _M, 4)",
    "lw": lambda r1, r2, imm:
        f"_sx(_mem.load((_x[{r1}] + {imm}) & _M, 4))",
    "lbu": lambda r1, r2, imm: f"_mem.load((_x[{r1}] + {imm}) & _M, 1)",
    "lhu": lambda r1, r2, imm: f"_mem.load((_x[{r1}] + {imm}) & _M, 2)",
}

_STORE_WIDTHS = {"sd": 8, "sw": 4, "sh": 2, "sb": 1}

#: unsigned branch comparison operators (signed ones go through ``_sg``)
_BRANCH_OPS = {"beq": "==", "bne": "!=", "bltu": "<", "bgeu": ">="}
_SIGNED_BRANCH_OPS = {"blt": "<", "bge": ">="}


def _inline_body_lines(instr) -> list[str] | None:
    """Inline source for a straight-line instruction, or ``None``."""
    m = instr.mnemonic
    template = _XW_TEMPLATES.get(m)
    if template is not None:
        if not instr.rd:
            return []  # the handler is a no-op for rd == x0
        return [f"    _x[{instr.rd}] = "
                f"{template(instr.rs1, instr.rs2, instr.imm)}"]
    width = _STORE_WIDTHS.get(m)
    if width is not None:
        return [f"    _mem.store((_x[{instr.rs1}] + {instr.imm}) & _M, "
                f"_x[{instr.rs2}], {width})"]
    if m in ("lb", "lh"):
        if not instr.rd:
            return []
        width, bound, bias = (1, 0x80, 0x100) if m == "lb" \
            else (2, 0x8000, 0x10000)
        return [f"    _v = _mem.load((_x[{instr.rs1}] + {instr.imm}) "
                f"& _M, {width})",
                f"    _x[{instr.rd}] = "
                f"(_v - {bias} if _v >= {bound} else _v) & _M"]
    return None


def _inline_term_lines(instr) -> list[str] | None:
    """Inline source for a control terminator (ends in ``return``)."""
    m = instr.mnemonic
    target = None if instr.imm is None else instr.pc + instr.imm
    op = _BRANCH_OPS.get(m)
    if op is not None:
        return [f"    return {target} "
                f"if _x[{instr.rs1}] {op} _x[{instr.rs2}] else _fall"]
    op = _SIGNED_BRANCH_OPS.get(m)
    if op is not None:
        return [f"    return {target} "
                f"if _sg(_x[{instr.rs1}]) {op} _sg(_x[{instr.rs2}]) "
                f"else _fall"]
    if m == "jal":
        lines = []
        if instr.rd:
            lines.append(f"    _x[{instr.rd}] = "
                         f"{(instr.pc + 4) & MASK64}")
        lines.append(f"    return {target}")
        return lines
    if m == "jalr":
        # Target before link write: rs1 may alias rd.
        lines = [f"    _v = (_x[{instr.rs1}] + {instr.imm}) "
                 f"& {MASK64 & ~1}"]
        if instr.rd:
            lines.append(f"    _x[{instr.rd}] = "
                         f"{(instr.pc + 4) & MASK64}")
        lines.append("    return _v")
        return lines
    return None


def _fuse_block(body: list, term, fall_pc: int) -> Callable:
    """Compile one static basic block into a single function.

    Each instruction either inlines to specialized source (the templates
    above, with register numbers and immediates folded to constants) or
    falls back to a handler call bound as a default argument.  The
    terminator and the next-pc selection are fused in as well: the block
    function returns the next pc directly (the fall-through pc when the
    terminator does not redirect, or when there is no terminator), so
    executing a block costs one call with no loop bookkeeping, list
    indexing, or bounds/control checks — straight-line instructions
    cannot branch, exit, or leave the text segment by construction.
    """
    namespace: dict = {}
    binds = []
    lines = []
    for k, (fn, instr) in enumerate(body):
        inline = _inline_body_lines(instr)
        if inline is None:
            namespace[f"_f{k}"] = fn
            namespace[f"_i{k}"] = instr
            binds.append(f"_f{k}=_f{k}, _i{k}=_i{k}")
            lines.append(f"    _f{k}(_s, _i{k})")
        else:
            lines.extend(inline)
    namespace["_fall"] = fall_pc
    binds.append("_fall=_fall")
    if term is not None:
        term_fn, term_instr, term_control = term
        inline = _inline_term_lines(term_instr) if term_control else None
        if inline is None:
            namespace["_t"] = term_fn
            namespace["_it"] = term_instr
            binds.append("_t=_t, _it=_it")
            lines.append("    _r = _t(_s, _it)")
            lines.append("    return _r if _r is not None else _fall")
        else:
            lines.extend(inline)
    else:
        lines.append("    return _fall")
    text = "\n".join(lines)
    prologue = []
    for probe, setup, value in (("_x[", "    _x = _s.x", None),
                                ("_mem.", "    _mem = _s.memory", None),
                                ("_M", None, MASK64),
                                ("_sg(", None, to_signed),
                                ("_sx(", None, _sext32)):
        if probe in text:
            if setup is not None:
                prologue.append(setup)
            else:
                name = probe.rstrip("(")
                namespace[name] = value
                binds.append(f"{name}={name}")
    source = (f"def _block(_s, {', '.join(binds)}):\n"
              + "\n".join(prologue + lines) + "\n")
    exec(source, namespace)
    return namespace["_block"]


class Executor:
    """Functional simulator bound to one program and one state."""

    def __init__(self, program: Program,
                 state: ArchState | None = None,
                 dispatch: str = "superblock") -> None:
        if dispatch not in ("superblock", "reference"):
            raise ValueError(f"unknown dispatch strategy: {dispatch!r}")
        self.program = program
        self.state = state if state is not None else \
            ArchState.for_program(program)
        self.dispatch = dispatch
        # Bind semantics once: the hot loop indexes (fn, instr, is_control).
        self._ops = [(semantics_for(instr), instr,
                      instr.opclass.is_control)
                     for instr in program.instructions]
        # Lazily-built superblock cache, keyed by entry instruction index
        # and shared across executors of the same program.
        self._blocks: list[_Block | None] = _blocks_for(program)

    def run(self, max_instructions: Optional[int] = None,
            control_hook: Optional[ControlHook] = None) -> int:
        """Execute until exit or until ``max_instructions`` retire.

        Returns the number of instructions retired by this call.  With a
        ``control_hook``, the hook fires once per executed control-flow
        instruction with the dynamic basic block it terminates; the final
        partial block (ended by exit or by the instruction budget) is also
        reported.
        """
        state = self.state
        state.require_not_exited()
        if self.dispatch == "reference":
            if control_hook is None:
                return self._run_plain(max_instructions)
            return self._run_profiled(max_instructions, control_hook)
        if control_hook is None:
            return self._run_super_plain(max_instructions)
        return self._run_super_profiled(max_instructions, control_hook)

    # ------------------------------------------------------------------
    # superblock dispatch
    # ------------------------------------------------------------------

    def _build_block(self, index: int) -> _Block:
        """Translate the static basic block entered at ``index``.

        A block extends from the entry to the first control-flow
        instruction or ``ecall`` (the only handler that can set
        ``exited``), to the end of the text segment, or to ``_MAX_BLOCK``
        straight-line instructions, whichever comes first.  The cap
        bounds compile memory; a capped block has no terminator, so like
        one ended by the text segment it falls through without closing
        the dynamic block, and retire counts and the ``control_hook``
        stream are unchanged.  Entries at different offsets into the same
        straight-line run get their own (overlapping) blocks, so any
        resume pc works.
        """
        ops = self._ops
        count = len(ops)
        body = []
        term = None
        i = index
        while i < count:
            fn, instr, is_control = ops[i]
            if is_control or instr.mnemonic == "ecall":
                term = (fn, instr, is_control)
                break
            if len(body) == _MAX_BLOCK:
                break
            body.append((fn, instr))
            i += 1
        if term is not None:
            term_control = term[2]
            has_ecall = not term_control
            end_pc = term[1].pc
            total = len(body) + 1
        else:
            term_control = False
            has_ecall = False
            end_pc = TEXT_BASE + ((i - 1) << 2)
            total = len(body)
        block_fn = _fuse_block(body, term, end_pc + 4)
        block = (block_fn, total, has_ecall, term_control, end_pc)
        self._blocks[index] = block
        return block

    def _run_super_plain(self, max_instructions: Optional[int]) -> int:
        state = self.state
        blocks = self._blocks
        count = len(self._ops)
        pc = state.pc
        fuel = max_instructions if max_instructions is not None \
            else _DEFAULT_FUEL
        retired = 0
        while fuel > 0:
            index = (pc - TEXT_BASE) >> 2
            if not 0 <= index < count:
                raise SimulationError(f"pc left text segment: 0x{pc:x}")
            block = blocks[index]
            if block is None:
                block = self._build_block(index)
            total = block[1]
            if total > fuel:
                # The budget ends inside this block: finish with the
                # per-instruction loop so the retire count lands exactly.
                ops = self._ops
                while fuel > 0:
                    index = (pc - TEXT_BASE) >> 2
                    if not 0 <= index < count:
                        raise SimulationError(
                            f"pc left text segment: 0x{pc:x}")
                    fn, instr, _ = ops[index]
                    next_pc = fn(state, instr)
                    retired += 1
                    fuel -= 1
                    if state.exited:
                        pc += 4
                        break
                    pc = next_pc if next_pc is not None else pc + 4
                break
            pc = block[0](state)
            retired += total
            fuel -= total
            if block[2] and state.exited:
                # Only ecall-terminated blocks can exit; the block fn
                # already left pc at the ecall's fall-through.
                break
        state.pc = pc
        state.retired += retired
        return retired

    def _run_super_profiled(self, max_instructions: Optional[int],
                            control_hook: ControlHook) -> int:
        state = self.state
        blocks = self._blocks
        ops = self._ops
        count = len(ops)
        pc = state.pc
        fuel = max_instructions if max_instructions is not None \
            else _DEFAULT_FUEL
        retired = 0
        # The *dynamic* block start: unlike a superblock entry, a dynamic
        # block only closes at control flow — an ecall (not a control op)
        # ends a superblock but leaves the dynamic block open, and a
        # budget-bounded resume re-enters mid-block.
        block_start = pc
        last_pc = pc
        while fuel > 0:
            index = (pc - TEXT_BASE) >> 2
            if not 0 <= index < count:
                raise SimulationError(f"pc left text segment: 0x{pc:x}")
            block = blocks[index]
            if block is None:
                block = self._build_block(index)
            block_fn, total, has_ecall, term_control, end_pc = block
            if total > fuel:
                # Budget ends inside this block: per-instruction tail.
                while fuel > 0:
                    index = (pc - TEXT_BASE) >> 2
                    if not 0 <= index < count:
                        raise SimulationError(
                            f"pc left text segment: 0x{pc:x}")
                    fn, instr, is_control = ops[index]
                    next_pc = fn(state, instr)
                    retired += 1
                    fuel -= 1
                    last_pc = pc
                    if state.exited:
                        pc += 4
                        break
                    if is_control:
                        control_hook(block_start, last_pc)
                        pc = next_pc if next_pc is not None else pc + 4
                        block_start = pc
                    else:
                        pc = next_pc if next_pc is not None else pc + 4
                break
            pc = block_fn(state)
            retired += total
            fuel -= total
            last_pc = end_pc
            if term_control:
                control_hook(block_start, end_pc)
                block_start = pc
            elif has_ecall and state.exited:
                # An exit does not close the dynamic block here: the
                # trailing-close below reports it, like the reference.
                break
        if retired and (state.exited or pc != block_start):
            # Close the trailing partial block (exit / fuel exhausted).
            if last_pc >= block_start:
                control_hook(block_start, last_pc)
        state.pc = pc
        state.retired += retired
        return retired

    # ------------------------------------------------------------------
    # reference dispatch (the semantic baseline)
    # ------------------------------------------------------------------

    def _run_plain(self, max_instructions: Optional[int]) -> int:
        state = self.state
        ops = self._ops
        count = len(ops)
        pc = state.pc
        fuel = max_instructions if max_instructions is not None \
            else _DEFAULT_FUEL
        retired = 0
        while fuel > 0:
            index = (pc - TEXT_BASE) >> 2
            if not 0 <= index < count:
                raise SimulationError(f"pc left text segment: 0x{pc:x}")
            fn, instr, _ = ops[index]
            next_pc = fn(state, instr)
            retired += 1
            fuel -= 1
            if state.exited:
                pc += 4
                break
            pc = next_pc if next_pc is not None else pc + 4
        state.pc = pc
        state.retired += retired
        return retired

    def _run_profiled(self, max_instructions: Optional[int],
                      control_hook: ControlHook) -> int:
        state = self.state
        ops = self._ops
        count = len(ops)
        pc = state.pc
        fuel = max_instructions if max_instructions is not None \
            else _DEFAULT_FUEL
        retired = 0
        block_start = pc
        last_pc = pc
        while fuel > 0:
            index = (pc - TEXT_BASE) >> 2
            if not 0 <= index < count:
                raise SimulationError(f"pc left text segment: 0x{pc:x}")
            fn, instr, is_control = ops[index]
            next_pc = fn(state, instr)
            retired += 1
            fuel -= 1
            last_pc = pc
            if state.exited:
                pc += 4
                break
            if is_control:
                control_hook(block_start, last_pc)
                pc = next_pc if next_pc is not None else pc + 4
                block_start = pc
            else:
                pc = next_pc if next_pc is not None else pc + 4
        if retired and (state.exited or pc != block_start):
            # Close the trailing partial block (exit / fuel exhausted).
            if last_pc >= block_start:
                control_hook(block_start, last_pc)
        state.pc = pc
        state.retired += retired
        return retired

    def run_to_completion(self, limit: int = 200_000_000) -> int:
        """Run until the program exits; raise if ``limit`` is exceeded."""
        retired = self.run(max_instructions=limit)
        if not self.state.exited:
            raise SimulationError(
                f"program did not exit within {limit} instructions")
        return retired
