"""The functional ISA simulator (our Spike analogue).

The executor runs a pre-decoded :class:`~repro.isa.program.Program` against
an :class:`~repro.sim.state.ArchState` at interpreter speed.  It serves
three roles in the experimental flow (paper Fig. 4):

1. **profiling** — ``run(counts=BlockCounts(interval))`` counts every
   dynamic basic block into per-interval vectors inside the dispatch
   loop, the way gem5's SimPoint probe counts inside the CPU model;
   :mod:`repro.profiling.bbv` turns the counts into basic-block vectors.
   A ``control_hook`` receives the same dynamic block stream as raw
   ``(start_pc, end_pc)`` pairs instead;
2. **checkpoint creation** — ``run(max_instructions=N)`` retires exactly
   ``N`` instructions so checkpoints land on precise SimPoint boundaries;
3. **reference execution** — workload self-checks compare detailed-core
   results against this model.

Two dispatch strategies are available (``dispatch=`` constructor arg):

``superblock`` (default)
    Each static basic block (split into pieces of at most ``_MAX_BLOCK``
    straight-line instructions) is lazily translated — once, at first
    entry — into one fused Python function, so the fetch -> decode ->
    dict-lookup cycle and the per-instruction loop overhead are paid per
    *block* instead of per dynamic instruction (the same trick binary
    translators play).  ALU, branch, load/store, FP add/sub/mul and
    unsigned divide ops compile to specialized source; a load or store
    reads or writes its page with one ``struct`` call and falls back to
    the instruction's semantics handler (and so to :class:`Memory`) when
    the access crosses a page, touches a page for the first time, or
    lies outside the memory's direct page range.  Blocks are looked up
    by entry pc in a per-program dict; each record caches the id and
    length of the dynamic block it closes when entered at that block's
    start, so the profiling loop updates the interval vector and tests
    the interval boundary inline.  Retire counts, the dynamic block
    stream, and exception behavior are bit-identical to the reference
    loop; ``tests/sim/test_equivalence.py`` pins both to golden fixtures
    captured from the pre-optimization implementation, and
    ``tests/sim/test_superblock_fuzz.py`` diffs them on random programs.

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

import re
import struct
import weakref
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.isa.program import Program, TEXT_BASE
from repro.sim.memory import F64, PAGE_MASK, PAGE_SHIFT, SIGNED, UNSIGNED
from repro.sim.semantics import CANONICAL_NAN, _sext32, semantics_for
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

#: superblock record, keyed by entry pc: (block_fn, total, has_ecall,
#: closes, end_pc, key, length).  ``block_fn(state)`` executes the whole
#: block and returns the next pc (never ``None``); ``closes`` is set when
#: a control-flow terminator ends the dynamic block; ``key``/``length``
#: are that dynamic block's :func:`block_key` and instruction count when
#: it starts at the entry pc.
_Block = tuple


def block_key(start_pc: int, end_pc: int) -> int:
    """Integer id of the dynamic block ``start_pc .. end_pc`` (inclusive).

    Text-segment pcs fit in 32 bits, so the pair packs into one small
    int — a cheaper dict key than the tuple.
    """
    return (start_pc << 32) | end_pc


def block_of(key: int) -> tuple[int, int]:
    """The ``(start_pc, end_pc)`` pair :func:`block_key` packed."""
    return key >> 32, key & 0xFFFFFFFF


class BlockCounts:
    """Per-interval dynamic-block counts, the raw form of a BBV profile.

    Each closed dynamic block adds its instruction count to the current
    interval's vector (``block_key -> instructions``, in first-seen
    order); an interval closes as soon as it holds ``interval_size``
    instructions, and ``on_interval()`` (if given) is called after each
    close, with the executor's ``state.pc`` and ``state.retired`` at the
    close, so it can snapshot the state there.  The superblock loop
    performs this update inline; the reference loop and budget tails
    call :meth:`close`.  Counts carry over between :meth:`Executor.run`
    calls; the trailing partial interval stays in ``current``/``filled``.
    """

    __slots__ = ("interval_size", "vectors", "lengths", "current",
                 "filled", "on_interval")

    def __init__(self, interval_size: int,
                 on_interval: Callable[[], None] | None = None) -> None:
        self.interval_size = interval_size
        self.vectors: list[dict[int, int]] = []
        self.lengths: list[int] = []
        self.current: dict[int, int] = {}
        self.filled = 0
        self.on_interval = on_interval

    def close(self, start_pc: int, end_pc: int) -> None:
        """Count one dynamic block (a :data:`ControlHook`)."""
        key = block_key(start_pc, end_pc)
        length = ((end_pc - start_pc) >> 2) + 1
        current = self.current
        current[key] = current.get(key, 0) + length
        self.filled += length
        if self.filled >= self.interval_size:
            self.vectors.append(current)
            self.lengths.append(self.filled)
            self.current = {}
            self.filled = 0
            if self.on_interval is not None:
                self.on_interval()


#: per-program superblock caches, shared by every executor bound to the
#: same Program object (the sweep builds many executors per program —
#: profiling, checkpointing, self-checks — and translation cost must be
#: paid once, not per executor).  Keyed by id() because the Program
#: dataclass is unhashable; a weakref finalizer evicts the entry when the
#: program dies so a recycled id can never serve stale blocks.
_BLOCK_CACHES: dict[int, dict[int, _Block]] = {}


def _blocks_for(program: Program) -> dict[int, _Block]:
    key = id(program)
    cache = _BLOCK_CACHES.get(key)
    if cache is None:
        cache = {}
        _BLOCK_CACHES[key] = cache
        weakref.finalize(program, _BLOCK_CACHES.pop, key, None)
    return cache


def release_blocks(program: Program) -> None:
    """Drop ``program``'s superblock cache while the program lives on.

    The next executor of the program compiles its blocks again.  The
    pipeline calls this once a workload's checkpoints are captured: the
    detailed core never runs the functional executor.
    """
    _BLOCK_CACHES.pop(id(program), None)


#: expression templates for x-register-writing ops: each must replicate
#: its semantics.py handler exactly, with register indices and immediates
#: folded in as constants (``_x`` is ``state.x``, ``_M``/``_sg``/``_sx``
#: are MASK64/to_signed/_sext32)
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
    "divu": lambda r1, r2, imm:
        f"_M if _x[{r2}] == 0 else _x[{r1}] // _x[{r2}]",
    "remu": lambda r1, r2, imm:
        f"_x[{r1}] if _x[{r2}] == 0 else _x[{r1}] % _x[{r2}]",
}

#: f-register-writing ops (``_f`` is ``state.f``); f0 is a real register,
#: so these write even when rd == 0.  A NaN result is replaced by the
#: canonical NaN ``_N``, as the handlers do.
_FW_TEMPLATES: dict[str, Callable[[int, int], str]] = {
    "fadd.d": lambda r1, r2: f"_f[{r1}] + _f[{r2}]",
    "fsub.d": lambda r1, r2: f"_f[{r1}] - _f[{r2}]",
    "fmul.d": lambda r1, r2: f"_f[{r1}] * _f[{r2}]",
}

#: memory ops compiled to a direct page access (``_d`` is the memory's
#: direct page list, ``_a`` the effective address): mnemonic -> statement
#: over the page ``{p}`` and offset ``{o}``, calling an accessor of the
#: ``struct`` layouts :mod:`repro.sim.memory` defines (bound in
#: :data:`_CONSTANTS`; a single byte is a plain index).
#: Loads that sign-extend mask into the unsigned 64-bit domain; stores
#: mask their value as ``Memory.store`` does.
_MEM_TEMPLATES: dict[str, str] = {
    "ld": "_x[{rd}] = _uq({p}, {o})[0]",
    "lwu": "_x[{rd}] = _ui({p}, {o})[0]",
    "lw": "_x[{rd}] = _si({p}, {o})[0] & _M",
    "lhu": "_x[{rd}] = _uh({p}, {o})[0]",
    "lh": "_x[{rd}] = _sh({p}, {o})[0] & _M",
    "lbu": "_x[{rd}] = {p}[{o}]",
    "lb": "_x[{rd}] = _sb({p}, {o})[0] & _M",
    "fld": "_f[{rd}] = _ud({p}, {o})[0]",
    "sd": "_pq({p}, {o}, _x[{rs2}])",
    "sw": "_pi({p}, {o}, _x[{rs2}] & 4294967295)",
    "sh": "_ph({p}, {o}, _x[{rs2}] & 65535)",
    "sb": "{p}[{o}] = _x[{rs2}] & 255",
    "fsd": "_pd({p}, {o}, _f[{rs2}])",
}

#: loads whose handler is a no-op for rd == x0 (fld writes f0)
_X_LOADS = frozenset(m for m, template in _MEM_TEMPLATES.items()
                     if template.startswith("_x["))

#: what a direct page access raises when it must take the slow path:
#: page number past the direct range (IndexError), untouched page
#: (TypeError on ``None``), access crossing the page end (struct.error)
_MISS = (IndexError, TypeError, struct.error)

#: names the generated source may reference, bound as default arguments
_CONSTANTS = {
    "_M": MASK64, "_sg": to_signed, "_sx": _sext32, "_MISS": _MISS,
    "_N": CANONICAL_NAN,
    "_uq": UNSIGNED[8].unpack_from, "_ui": UNSIGNED[4].unpack_from,
    "_uh": UNSIGNED[2].unpack_from, "_si": SIGNED[4].unpack_from,
    "_sh": SIGNED[2].unpack_from, "_sb": SIGNED[1].unpack_from,
    "_ud": F64.unpack_from, "_pq": UNSIGNED[8].pack_into,
    "_pi": UNSIGNED[4].pack_into, "_ph": UNSIGNED[2].pack_into,
    "_pd": F64.pack_into,
}

#: state views the generated source may reference, loaded once per call
_VIEWS = (("_x", "_s.x"), ("_f", "_s.f"), ("_d", "_s.memory.direct"))

#: unsigned branch comparison operators (signed ones go through ``_sg``)
_BRANCH_OPS = {"beq": "==", "bne": "!=", "bltu": "<", "bgeu": ">="}
_SIGNED_BRANCH_OPS = {"blt": "<", "bge": ">="}


def _mem_lines(instr, fallback: str) -> list[str]:
    """Inline source for a load or store with a direct page access.

    ``fallback`` calls the instruction's semantics handler, which goes
    through :class:`Memory` for the slow cases (see :data:`_MISS`).
    """
    statement = _MEM_TEMPLATES[instr.mnemonic].format(
        rd=instr.rd, rs2=instr.rs2,
        p=f"_d[_a >> {PAGE_SHIFT}]", o=f"_a & {PAGE_MASK}")
    # x registers always hold values in [0, 2**64): no mask for imm == 0
    address = (f"_x[{instr.rs1}]" if not instr.imm
               else f"(_x[{instr.rs1}] + {instr.imm}) & _M")
    return [f"    _a = {address}",
            "    try:",
            f"        {statement}",
            "    except _MISS:",
            f"        {fallback}"]


def _inline_body_lines(instr, fallback: str) -> list[str] | None:
    """Inline source for a straight-line instruction, or ``None``."""
    m = instr.mnemonic
    template = _XW_TEMPLATES.get(m)
    if template is not None:
        if not instr.rd:
            return []  # the handler is a no-op for rd == x0
        return [f"    _x[{instr.rd}] = "
                f"{template(instr.rs1, instr.rs2, instr.imm)}"]
    template = _FW_TEMPLATES.get(m)
    if template is not None:
        return [f"    _v = {template(instr.rs1, instr.rs2)}",
                f"    _f[{instr.rd}] = _v if _v == _v else _N"]
    if m in _MEM_TEMPLATES:
        if m in _X_LOADS and not instr.rd:
            return []
        return _mem_lines(instr, fallback)
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
        call = f"_h{k}(_s, _i{k})"
        inline = _inline_body_lines(instr, call)
        if inline is None:
            inline = [f"    {call}"]
        if any(call in line for line in inline):
            namespace[f"_h{k}"] = fn
            namespace[f"_i{k}"] = instr
            binds.append(f"_h{k}=_h{k}, _i{k}=_i{k}")
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
    names = set(re.findall(r"\b_\w+", "\n".join(lines)))
    prologue = [f"    {name} = {view}" for name, view in _VIEWS
                if name in names]
    for name, value in _CONSTANTS.items():
        if name in names:
            namespace[name] = value
            binds.append(f"{name}={name}")
    source = (f"def _block(_s, {', '.join(binds)}):\n"
              + "\n".join(prologue + lines) + "\n")
    exec(source, namespace)
    # popped, not read: a function stored in its own ``__globals__`` is a
    # reference cycle, and would outlive its block cache until a gen-2 GC
    return namespace.pop("_block")


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
        # Lazily-built superblock cache, keyed by entry pc and shared
        # across executors of the same program.
        self._blocks: dict[int, _Block] = _blocks_for(program)

    def run(self, max_instructions: Optional[int] = None,
            control_hook: Optional[ControlHook] = None,
            counts: Optional[BlockCounts] = None) -> int:
        """Execute until exit or until ``max_instructions`` retire.

        Returns the number of instructions retired by this call.  With a
        ``control_hook``, the hook fires once per executed control-flow
        instruction with the dynamic basic block it terminates; the final
        partial block (ended by exit or by the instruction budget) is also
        reported.  With ``counts``, the same dynamic blocks are counted
        into it instead (the BBV profiling pass); give one or the other.
        """
        state = self.state
        state.require_not_exited()
        if control_hook is not None and counts is not None:
            raise ValueError("pass control_hook or counts, not both")
        fuel = max_instructions if max_instructions is not None \
            else _DEFAULT_FUEL
        close = counts.close if counts is not None else control_hook
        if self.dispatch == "reference":
            return self._run_reference(fuel, close, state.pc)
        if close is None:
            return self._run_super_plain(fuel)
        return self._run_super_profiled(fuel, close, counts)

    # ------------------------------------------------------------------
    # superblock dispatch
    # ------------------------------------------------------------------

    def _build_block(self, pc: int) -> _Block:
        """Translate the static basic block entered at ``pc``.

        A block extends from the entry to the first control-flow
        instruction or ``ecall`` (the only handler that can set
        ``exited``), to the end of the text segment, or to ``_MAX_BLOCK``
        straight-line instructions, whichever comes first.  The cap
        bounds compile memory; a capped block has no terminator, so like
        one ended by the text segment it falls through without closing
        the dynamic block, and retire counts and the dynamic block stream
        are unchanged.  Entries at different offsets into the same
        straight-line run get their own (overlapping) blocks, so any
        resume pc works.  This miss path is where a pc outside the text
        segment is caught.
        """
        ops = self._ops
        count = len(ops)
        index = (pc - TEXT_BASE) >> 2
        if not 0 <= index < count:
            raise SimulationError(f"pc left text segment: 0x{pc:x}")
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
            closes = term[2]
            end_pc = term[1].pc
            total = len(body) + 1
        else:
            closes = False
            end_pc = TEXT_BASE + ((i - 1) << 2)
            total = len(body)
        block = (_fuse_block(body, term, end_pc + 4), total,
                 term is not None and not closes, closes, end_pc,
                 block_key(pc, end_pc), ((end_pc - pc) >> 2) + 1)
        self._blocks[pc] = block
        return block

    def _run_super_plain(self, fuel: int) -> int:
        state = self.state
        blocks = self._blocks
        pc = state.pc
        retired = 0
        while fuel > 0:
            block = blocks.get(pc)
            if block is None:
                block = self._build_block(pc)
            total = block[1]
            if total > fuel:
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
        if fuel > 0 and not state.exited:
            # The budget ends inside this block: finish with the
            # per-instruction loop so the retire count lands exactly.
            retired += self._run_reference(fuel, None, pc)
        return retired

    def _run_super_profiled(self, fuel: int, close: ControlHook,
                            counts: Optional[BlockCounts]) -> int:
        """The superblock loop that reports dynamic blocks.

        With ``counts`` the vector update and the interval-boundary test
        run inline (``close`` is ``counts.close`` and serves only the
        per-instruction tail); otherwise every block goes to ``close``.
        """
        state = self.state
        blocks = self._blocks
        pc = state.pc
        base = state.retired
        retired = 0
        # The *dynamic* block start: unlike a superblock entry, a dynamic
        # block only closes at control flow — an ecall (not a control op)
        # and a capped block end a superblock but leave the dynamic block
        # open, and a budget-bounded resume re-enters mid-block.
        block_start = pc
        last_pc = pc
        inline = counts is not None
        if inline:
            interval = counts.interval_size
            vectors = counts.vectors
            lengths = counts.lengths
            current = counts.current
            filled = counts.filled
            on_interval = counts.on_interval
        while fuel > 0:
            entry = pc
            block = blocks.get(pc)
            if block is None:
                block = self._build_block(pc)
            block_fn, total, has_ecall, closes, end_pc, key, length = block
            if total > fuel:
                break
            pc = block_fn(state)
            retired += total
            fuel -= total
            last_pc = end_pc
            if closes:
                if inline:
                    if block_start != entry:
                        # the block began before this superblock (after
                        # a capped piece or an ecall): block_key, inlined
                        key = (block_start << 32) | end_pc
                        length = ((end_pc - block_start) >> 2) + 1
                    current[key] = current.get(key, 0) + length
                    filled += length
                    if filled >= interval:
                        vectors.append(current)
                        lengths.append(filled)
                        current = {}
                        filled = 0
                        if on_interval is not None:
                            state.pc = pc
                            state.retired = base + retired
                            on_interval()
                else:
                    close(block_start, end_pc)
                block_start = pc
            elif has_ecall and state.exited:
                # An exit does not close the dynamic block here: the
                # trailing-close below reports it, like the reference.
                break
        if inline:
            counts.current = current
            counts.filled = filled
        state.pc = pc
        state.retired = base + retired
        if fuel > 0 and not state.exited:
            # Budget ends inside this block: the per-instruction loop
            # continues the open dynamic block and closes it.
            return retired + self._run_reference(fuel, close, block_start)
        if retired and (state.exited or pc != block_start) \
                and last_pc >= block_start:
            # Close the trailing partial block (exit / fuel exhausted).
            close(block_start, last_pc)
        return retired

    # ------------------------------------------------------------------
    # reference dispatch (the semantic baseline)
    # ------------------------------------------------------------------

    def _run_reference(self, fuel: int, close: Optional[ControlHook],
                       block_start: int) -> int:
        """One instruction per iteration from ``state.pc``.

        ``block_start`` is where the open dynamic block began (``state.pc``
        unless this continues a superblock run); with ``close`` set, each
        control-flow instruction and the trailing partial block are
        reported to it, with ``state.pc`` and ``state.retired`` current.
        """
        state = self.state
        ops = self._ops
        count = len(ops)
        pc = state.pc
        base = state.retired
        retired = 0
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
            pc = next_pc if next_pc is not None else pc + 4
            if is_control and close is not None:
                state.pc = pc
                state.retired = base + retired
                close(block_start, last_pc)
                block_start = pc
        state.pc = pc
        state.retired = base + retired
        if close is not None and retired \
                and (state.exited or pc != block_start) \
                and last_pc >= block_start:
            # Close the trailing partial block (exit / fuel exhausted).
            close(block_start, last_pc)
        return retired

    def run_to_completion(self, limit: int = 200_000_000) -> int:
        """Run until the program exits; raise if ``limit`` is exceeded."""
        retired = self.run(max_instructions=limit)
        if not self.state.exited:
            raise SimulationError(
                f"program did not exit within {limit} instructions")
        return retired
