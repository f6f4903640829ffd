"""The ``bitcount`` workload (MiBench): three bit-counting kernels.

MiBench's bitcount exercises several counting algorithms in sequence; the
paper reports 3 SimPoints for it, one per major phase.  We reproduce three
phases with sharply different microarchitectural signatures:

1. **Kernighan** — ``while x: x &= x - 1`` — a data-dependent loop, so the
   branch predictor sees an irregular exit condition;
2. **SWAR** — the branch-free mask-and-add popcount — pure high-ILP ALU
   work on two interleaved accumulators;
3. **nibble table** — 4-bit table lookups — load-dominated.

All three phases count bits of the same pseudo-random word stream (an
in-register xorshift, so the phases are compute-only apart from the table
loads) and must agree; the program exits 0 only if all three counts match
the Python mirror.
"""

from __future__ import annotations

from repro.workloads.data import byte_directive, Xorshift64Star

_MASK = (1 << 64) - 1

_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_H01 = 0x0101010101010101


def _sizes(scale: float) -> tuple[int, int, int]:
    # Phase iteration counts tuned so the three phases are roughly equal
    # and the total matches Table II (495M @ full scale -> 495k @ 1:1000).
    kernighan = max(8, int(1200 * scale))
    swar = max(8, int(7200 * scale))
    table = max(8, int(1350 * scale))
    return kernighan, swar, table


def _xorshift_step(x: int) -> int:
    x ^= (x << 13) & _MASK
    x ^= x >> 7
    x ^= (x << 17) & _MASK
    return x


def _mirror(scale: float, seed: int) -> tuple[int, int, int]:
    kernighan, swar, table = _sizes(scale)
    counts = []
    for iterations in (kernighan, swar, table):
        x = (seed * 0x9E3779B97F4A7C15 + 1) & _MASK
        total = 0
        for _ in range(iterations):
            x = _xorshift_step(x)
            total = (total + bin(x).count("1")) & _MASK
        counts.append(total)
    return tuple(counts)


_PRNG_STEP = """\
    slli t4, {x}, 13
    xor  {x}, {x}, t4
    srli t4, {x}, 7
    xor  {x}, {x}, t4
    slli t4, {x}, 17
    xor  {x}, {x}, t4
"""


def build(scale: float, seed: int) -> str:
    """Generate the bitcount assembly program for ``scale``."""
    kernighan, swar, table = _sizes(scale)
    expected = _mirror(scale, seed)
    seed_value = (seed * 0x9E3779B97F4A7C15 + 1) & _MASK
    nibble_table = bytes(bin(n).count("1") for n in range(16))

    lines = [
        "    .data",
        "nibbles:",
        byte_directive(nibble_table),
        "counts_out: .dword 0, 0, 0",
        "    .text",
        "_start:",
    ]

    # ---- phase 1: Kernighan ------------------------------------------
    lines += [
        f"    li   t0, {seed_value}",   # x
        f"    li   t1, {kernighan}",    # iterations
        "    li   s0, 0",               # count accumulator
        "kern_loop:",
        _PRNG_STEP.format(x="t0").rstrip(),
        "    mv   t2, t0",
        "kern_inner:",
        "    beqz t2, kern_next",
        "    addi t3, t2, -1",
        "    and  t2, t2, t3",
        "    addi s0, s0, 1",
        "    j    kern_inner",
        "kern_next:",
        "    addi t1, t1, -1",
        "    bnez t1, kern_loop",
    ]

    # ---- phase 2: SWAR (two interleaved accumulators) ----------------
    lines += [
        f"    li   t0, {seed_value}",
        f"    li   t1, {swar}",
        "    li   s1, 0",
        f"    li   a2, {_M1}",
        f"    li   a3, {_M2}",
        f"    li   a4, {_M4}",
        f"    li   a5, {_H01}",
        "swar_loop:",
        _PRNG_STEP.format(x="t0").rstrip(),
        "    srli t2, t0, 1",
        "    and  t2, t2, a2",
        "    sub  t2, t0, t2",          # pairs
        "    srli t3, t2, 2",
        "    and  t3, t3, a3",
        "    and  t2, t2, a3",
        "    add  t2, t2, t3",          # nibbles
        "    srli t3, t2, 4",
        "    add  t2, t2, t3",
        "    and  t2, t2, a4",          # bytes
        "    mul  t2, t2, a5",
        "    srli t2, t2, 56",          # horizontal sum
        "    add  s1, s1, t2",
        "    addi t1, t1, -1",
        "    bnez t1, swar_loop",
    ]

    # ---- phase 3: nibble table lookups --------------------------------
    lines += [
        f"    li   t0, {seed_value}",
        f"    li   t1, {table}",
        "    li   s2, 0",
        "    la   a6, nibbles",
        "table_loop:",
        _PRNG_STEP.format(x="t0").rstrip(),
        "    mv   t2, t0",
        "    li   t5, 16",               # 16 nibbles per dword
        "table_inner:",
        "    andi t3, t2, 15",
        "    add  t3, t3, a6",
        "    lbu  t3, 0(t3)",
        "    add  s2, s2, t3",
        "    srli t2, t2, 4",
        "    addi t5, t5, -1",
        "    bnez t5, table_inner",
        "    addi t1, t1, -1",
        "    bnez t1, table_loop",
    ]

    # ---- self-check ----------------------------------------------------
    lines += [
        "    la   t0, counts_out",
        "    sd   s0, 0(t0)",
        "    sd   s1, 8(t0)",
        "    sd   s2, 16(t0)",
        "    li   a0, 1",
        f"    li   t1, {expected[0]}",
        "    bne  s0, t1, bc_done",
        f"    li   t1, {expected[1]}",
        "    bne  s1, t1, bc_done",
        f"    li   t1, {expected[2]}",
        "    bne  s2, t1, bc_done",
        "    li   a0, 0",
        "bc_done:",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)
