"""Differential fuzz: the superblock executor against the reference loop.

Random terminating programs run on both dispatch strategies under the
same instruction budgets (stop, then resume), and everything the flow
observes must agree: retire counts, pcs, integer and FP registers (bit
patterns), program output, the touched-page set and page contents, the
raw dynamic block stream, and the BBV counts at several interval sizes,
vector by vector in insertion order.  The superblock's inline BBV update
is also checked against counts rebuilt from the raw block stream.

The generator aims at what the compiled superblocks special-case:

* sub-word loads and stores aliasing the same bytes;
* accesses that cross a page, touch a page for the first time, straddle
  the end of the memory's direct page range, or lie beyond it;
* NaN (quiet, signalling, with payload, negative), -0.0 and infinities
  passed through ``fld``/``fsd`` and into FP arithmetic (whose NaN
  results must be the canonical NaN on both engines), and FP arithmetic
  that overflows;
* straight-line runs longer than the 64-instruction superblock cap;
* ``ecall`` inside a run, forward branches, and calls.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.isa.assembler import assemble
from repro.isa.program import HEAP_BASE
from repro.sim.executor import _MAX_BLOCK, BlockCounts, Executor, \
    _blocks_for, block_key

#: data registers the generator reads and writes
_REGS = ("t0", "t1", "t2", "t3", "t4", "t5", "t6",
         "a0", "a1", "a2", "a3", "a4", "a5")
#: FP registers that fld loads bit patterns into (NaN payloads included)
_FREGS = ("ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "fa0", "fa1")
#: FP registers seeded from integers, so arithmetic also sees finite
#: values; fld never writes them, but arithmetic reads and writes both sets
_ARITH_FREGS = ("fs0", "fs1", "fs2", "fs3")
#: base registers, never written by the body: .data, a heap page end
#: (first touch, crossing), the end of the direct page range, far memory
_BASES = ("s2", "s3", "s4", "s5")
_BASE_VALUES = {
    "s3": HEAP_BASE + 3 * 4096 - 4,
    "s4": (1 << 25) - 4,
    "s5": 0x4000_0000 + 4096 - 2,
}
#: binary64 bit patterns seeded into the data segment
_SPECIAL_BITS = (
    0x0000000000000000, 0x8000000000000000,          # +0.0, -0.0
    0x7FF0000000000000, 0xFFF0000000000000,          # +inf, -inf
    0x7FF8000000000000, 0xFFF8000000000000,          # quiet NaNs
    0x7FF8000000000123, 0x7FF0000000000001,          # payload, signalling
    0x3FF8000000000000, 0x0000000000000001,          # 1.5, denormal
)
_R_OPS = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
          "sltu", "mul", "addw", "divu", "remu", "div", "rem")
_I_OPS = ("addi", "andi", "ori", "xori", "slti", "sltiu", "addiw")
_SHIFT_OPS = {"slli": 63, "srli": 63, "srai": 63, "slliw": 31,
              "srliw": 31}
_LOADS = ("ld", "lw", "lwu", "lh", "lhu", "lb", "lbu")
_STORES = ("sd", "sw", "sh", "sb")
_FP_OPS = ("fadd.d", "fsub.d", "fmul.d")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


def _straight(rng: random.Random) -> list[str]:
    """One straight-line instruction (or an ``ecall`` pair)."""
    kind = rng.random()
    reg = lambda: rng.choice(_REGS)  # noqa: E731
    freg = lambda: rng.choice(_FREGS)  # noqa: E731
    anyf = lambda: rng.choice(_FREGS + _ARITH_FREGS)  # noqa: E731
    mem = lambda: f"{rng.randint(-12, 12)}({rng.choice(_BASES)})"  # noqa
    if kind < 0.22:
        return [f"{rng.choice(_R_OPS)} {reg()}, {reg()}, {reg()}"]
    if kind < 0.34:
        return [f"{rng.choice(_I_OPS)} {reg()}, {reg()}, "
                f"{rng.randint(-2048, 2047)}"]
    if kind < 0.40:
        op = rng.choice(sorted(_SHIFT_OPS))
        return [f"{op} {reg()}, {reg()}, {rng.randint(0, _SHIFT_OPS[op])}"]
    if kind < 0.42:
        return [f"lui {reg()}, {rng.randint(0, 0xFFFFF)}"]
    if kind < 0.60:
        # rd == x0 must not touch memory at all
        rd = "zero" if rng.random() < 0.05 else reg()
        return [f"{rng.choice(_LOADS)} {rd}, {mem()}"]
    if kind < 0.74:
        return [f"{rng.choice(_STORES)} {reg()}, {mem()}"]
    if kind < 0.80:
        return [f"fld {freg()}, {mem()}"]
    if kind < 0.86:
        return [f"fsd {anyf()}, {mem()}"]
    if kind < 0.94:
        return [f"{rng.choice(_FP_OPS)} {anyf()}, {anyf()}, {anyf()}"]
    if kind < 0.97:
        return [f"fmv.x.d {reg()}, {anyf()}"]
    return ["li a7, 1", "ecall"]  # print_int: ends a superblock only


def generate_program(seed: int) -> str:
    """A random terminating program: setup, a looped body, exit."""
    rng = random.Random(seed)
    dwords = ", ".join(f"0x{bits:x}" for bits in _SPECIAL_BITS)
    lines = [".data", "vals:", f"    .dword {dwords}", "buf:",
             "    .space 64", ".text", "_start:", "    la s2, buf"]
    for base, value in _BASE_VALUES.items():
        lines.append(f"    li {base}, {value}")
    for reg in _REGS:
        lines.append(f"    li {reg}, {rng.getrandbits(64)}")
    lines.append("    la a6, vals")
    for k, freg in enumerate(_FREGS):
        lines.append(f"    fld {freg}, {8 * (k % len(_SPECIAL_BITS))}(a6)")
    for freg in _ARITH_FREGS:
        lines += [f"    li a6, {rng.randint(-10**6, 10**6)}",
                  f"    fcvt.d.l {freg}, a6"]
    lines += [f"    li s1, {rng.randint(2, 6)}", "loop:"]
    labels = 0
    for _ in range(rng.randint(4, 10)):
        roll = rng.random()
        if roll < 0.15:
            # a straight-line run past the superblock cap
            for _ in range(rng.randint(_MAX_BLOCK + 1, 3 * _MAX_BLOCK)):
                lines += [f"    {op}" for op in _straight(rng)]
        elif roll < 0.35:
            a, b = rng.choice(_REGS), rng.choice(_REGS)
            lines.append(f"    {rng.choice(_BRANCHES)} {a}, {b}, "
                         f"skip{labels}")
            for _ in range(rng.randint(1, 5)):
                lines += [f"    {op}" for op in _straight(rng)]
            lines.append(f"skip{labels}:")
            labels += 1
        elif roll < 0.45:
            lines.append("    call func")
        else:
            for _ in range(rng.randint(1, 20)):
                lines += [f"    {op}" for op in _straight(rng)]
    lines += ["    addi s1, s1, -1", "    bnez s1, loop",
              "    andi a0, t0, 255", "    li a7, 93", "    ecall",
              "func:"]
    for _ in range(rng.randint(1, 8)):
        lines += [f"    {op}" for op in _straight(rng)]
    lines.append("    ret")
    return "\n".join(lines)


def _budgets(rng: random.Random) -> list[int | None]:
    """Instruction budgets for one stop-and-resume schedule."""
    picks = (1, 2, 3, _MAX_BLOCK - 1, _MAX_BLOCK, _MAX_BLOCK + 1)
    return [rng.choice(picks) if rng.random() < 0.5
            else rng.randint(1, 400)
            for _ in range(rng.randint(0, 8))] + [None]


def _fbits(values: list[float]) -> list[bytes]:
    return [struct.pack("<d", value) for value in values]


def _observe(program, dispatch: str, budgets, hook=None, counts=None):
    """Run ``budgets`` in turn; every step's outcome and the end state."""
    executor = Executor(program, dispatch=dispatch)
    state = executor.state
    steps = []
    for budget in budgets:
        if state.exited:
            break
        retired = executor.run(max_instructions=budget,
                               control_hook=hook, counts=counts)
        steps.append((retired, state.pc, state.exited, list(state.x),
                      _fbits(state.f), bytes(state.output)))
    return steps, state.memory.snapshot_pages()


def _counts_view(counts: BlockCounts) -> tuple:
    """Everything a BBV profile is built from, insertion order kept."""
    return ([list(vector.items()) for vector in counts.vectors],
            counts.lengths, list(counts.current.items()), counts.filled)


def _counts_from_blocks(blocks, interval_size: int) -> tuple:
    """The interval counts of a raw block stream, the hook-based way."""
    vectors, lengths, current, filled = [], [], {}, 0
    for start, end in blocks:
        key = block_key(start, end)
        length = ((end - start) >> 2) + 1
        current[key] = current.get(key, 0) + length
        filled += length
        if filled >= interval_size:
            vectors.append(list(current.items()))
            lengths.append(filled)
            current, filled = {}, 0
    return vectors, lengths, list(current.items()), filled


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_superblock_matches_reference(seed):
    program = assemble(generate_program(seed))
    budgets = _budgets(random.Random(seed))
    plain = {dispatch: _observe(program, dispatch, budgets)
             for dispatch in ("reference", "superblock")}
    assert plain["superblock"] == plain["reference"]
    assert plain["reference"][0][-1][2], "program must exit"

    streams = {}
    for dispatch in ("reference", "superblock"):
        blocks: list[tuple[int, int]] = []
        observed = _observe(program, dispatch, budgets,
                            hook=lambda s, e: blocks.append((s, e)))
        assert observed == plain[dispatch]
        streams[dispatch] = blocks
    assert streams["superblock"] == streams["reference"]

    for interval_size in (1, 7, _MAX_BLOCK, 997):
        views = {}
        for dispatch in ("reference", "superblock"):
            counts = BlockCounts(interval_size)
            observed = _observe(program, dispatch, budgets, counts=counts)
            assert observed == plain[dispatch]
            views[dispatch] = _counts_view(counts)
        assert views["superblock"] == views["reference"]
        assert views["superblock"] == _counts_from_blocks(
            streams["reference"], interval_size)


def test_fuzz_reaches_the_special_cases():
    """The generated programs really exercise what the fuzz is for."""
    capped = crossed = far = ecalls = 0
    for seed in SEEDS:
        program = assemble(generate_program(seed))
        executor = Executor(program)
        executor.run_to_completion(limit=10_000_000)
        pages = executor.state.memory.snapshot_pages()
        crossed += (_BASE_VALUES["s3"] >> 12) + 1 in pages
        far += any(number >= 1 << 13 for number in pages)
        ecalls += bool(executor.state.output)
        capped += any(block[1] == _MAX_BLOCK
                      for block in _blocks_for(program).values())
    assert capped and crossed and far and ecalls


def test_signalling_nan_payload_survives_fld_fsd():
    """A NaN's exact bits go through a compiled fld/fsd pair."""
    program = assemble("""
    .data
    src: .dword 0x7ff0000000000001, 0xfff8000000000abc, 0x8000000000000000
    dst: .space 24
    .text
    _start:
        la t0, src
        la t1, dst
        fld ft0, 0(t0)
        fld ft1, 8(t0)
        fld ft2, 16(t0)
        fsd ft0, 0(t1)
        fsd ft1, 8(t1)
        fsd ft2, 16(t1)
        li a0, 0
        li a7, 93
        ecall
    """)
    for dispatch in ("reference", "superblock"):
        executor = Executor(program, dispatch=dispatch)
        executor.run_to_completion()
        memory = executor.state.memory
        dst = program.symbol("dst")
        assert memory.read_bytes(dst, 24) == \
            memory.read_bytes(program.symbol("src"), 24)


def test_nan_results_are_canonical_cold_and_warm():
    """Every NaN an FP op computes is 0x7ff8000000000000 on both engines.

    The loop runs long enough for CPython to specialize the handlers'
    and the compiled blocks' bytecode, which changes the NaN bits a raw
    float operation returns.
    """
    program = assemble("""
    .data
    src: .dword 0x7ff8000000000123, 0xfff8000000000abc, 0x7ff0000000000000
    dst: .space 64
    .text
    _start:
        la t0, src
        la t1, dst
        fld ft0, 0(t0)
        fld ft1, 8(t0)
        fld ft2, 16(t0)
        li s1, 40
    loop:
        fadd.d fa0, ft0, ft1
        fsd fa0, 0(t1)
        fadd.d fa0, ft1, ft0
        fsd fa0, 8(t1)
        fsub.d fa0, ft2, ft2
        fsd fa0, 16(t1)
        fmul.d fa0, ft1, ft0
        fsd fa0, 24(t1)
        fdiv.d fa0, ft1, ft0
        fsd fa0, 32(t1)
        fsqrt.d fa0, ft1
        fsd fa0, 40(t1)
        fmadd.d fa0, ft1, ft2, ft0
        fsd fa0, 48(t1)
        fnmsub.d fa0, ft2, ft2, ft1
        fsd fa0, 56(t1)
        addi s1, s1, -1
        bnez s1, loop
        li a0, 0
        li a7, 93
        ecall
    """)
    canonical = (0x7FF8000000000000).to_bytes(8, "little")
    for dispatch in ("reference", "superblock"):
        executor = Executor(program, dispatch=dispatch)
        memory = executor.state.memory
        while not executor.state.exited:
            executor.run(max_instructions=17)
            dst = memory.read_bytes(program.symbol("dst"), 64)
            for slot in range(0, 64, 8):
                assert dst[slot:slot + 8] in (bytes(8), canonical), dispatch
        assert memory.read_bytes(program.symbol("dst"), 64) == canonical * 8
