"""The ``qsort`` workload (MiBench): quicksort over doubles.

MiBench's qsort sorts records with floating-point comparison keys; the
paper lists it (with fft/ifft) among the only three FP-register users.
Signature: every comparison is an ``fld`` + ``flt.d`` pair, and the
partition walk's branch outcomes are data-dependent — a mispredict-heavy,
FP-compare-heavy kernel.  It is also by far the shortest benchmark in
Table II (22.9M instructions at full scale).

Implementation: iterative Lomuto-partition quicksort with an explicit
(lo, hi) stack in memory, followed by an in-order verification sweep.
"""

from __future__ import annotations

import struct

from repro.workloads.data import double_directive, Xorshift64Star

_MASK = (1 << 64) - 1


def _element_count(scale: float) -> int:
    return max(8, int(205 * scale))


def _values(seed: int, count: int) -> list[float]:
    rng = Xorshift64Star(seed ^ 0x0507)
    return [rng.next_double() * 1000.0 - 500.0 for _ in range(count)]


def _mirror(scale: float, seed: int) -> int:
    values = sorted(_values(seed, _element_count(scale)))
    checksum = 0
    for value in values:
        checksum ^= int.from_bytes(struct.pack("<d", value), "little")
    return checksum & _MASK


def build(scale: float, seed: int) -> str:
    """Generate the qsort assembly program for ``scale``."""
    count = _element_count(scale)
    values = _values(seed, count)
    expected = _mirror(scale, seed)

    lines = [
        "    .data",
        "array:", double_directive(values),
        "stack:", f"    .space {32 * (count + 8)}",
        "checksum_out: .dword 0",
        "    .text",
        "_start:",
        "    la   s0, array",
        "    la   s1, stack",
        # push (0, count-1)
        "    sd   zero, 0(s1)",
        f"    li   t0, {count - 1}",
        "    sd   t0, 8(s1)",
        "    addi s2, s1, 16",           # stack pointer (one past top)
        "qsort_loop:",
        "    beq  s2, s1, sorted",       # stack empty
        "    addi s2, s2, -16",
        "    ld   s3, 0(s2)",            # lo
        "    ld   s4, 8(s2)",            # hi
        "    bge  s3, s4, qsort_loop",
        # ---- Lomuto partition: pivot = a[hi] ----
        "    slli t0, s4, 3",
        "    add  t0, t0, s0",
        "    fld  fa0, 0(t0)",           # pivot
        "    addi s5, s3, -1",           # i
        "    mv   s6, s3",               # j
        "part_loop:",
        "    slli t1, s6, 3",
        "    add  t1, t1, s0",
        "    fld  fa1, 0(t1)",           # a[j]
        "    flt.d t2, fa1, fa0",
        "    beqz t2, part_next",
        "    addi s5, s5, 1",
        "    slli t3, s5, 3",
        "    add  t3, t3, s0",
        "    fld  fa2, 0(t3)",           # swap a[i] <-> a[j]
        "    fsd  fa1, 0(t3)",
        "    fsd  fa2, 0(t1)",
        "part_next:",
        "    addi s6, s6, 1",
        "    bne  s6, s4, part_loop",
        # swap a[i+1] <-> a[hi]
        "    addi s5, s5, 1",
        "    slli t1, s5, 3",
        "    add  t1, t1, s0",
        "    fld  fa1, 0(t1)",
        "    fsd  fa0, 0(t1)",
        "    slli t2, s4, 3",
        "    add  t2, t2, s0",
        "    fsd  fa1, 0(t2)",
        # push (lo, p-1) and (p+1, hi)
        "    addi t0, s5, -1",
        "    sd   s3, 0(s2)",
        "    sd   t0, 8(s2)",
        "    addi s2, s2, 16",
        "    addi t0, s5, 1",
        "    sd   t0, 0(s2)",
        "    sd   s4, 8(s2)",
        "    addi s2, s2, 16",
        "    j    qsort_loop",
        # ---- verify ascending order and fold the checksum ----
        "sorted:",
        "    li   a3, 0",                # checksum
        "    li   a4, 0",                # order violations
        "    li   t0, 0",
        f"    li   t4, {count}",
        "verify_loop:",
        "    slli t1, t0, 3",
        "    add  t1, t1, s0",
        "    fld  fa0, 0(t1)",
        "    fmv.x.d t2, fa0",
        "    xor  a3, a3, t2",
        "    beqz t0, verify_next",
        "    fld  fa1, -8(t1)",
        "    fle.d t3, fa1, fa0",
        "    bnez t3, verify_next",
        "    addi a4, a4, 1",
        "verify_next:",
        "    addi t0, t0, 1",
        "    bne  t0, t4, verify_loop",
        "    la   t0, checksum_out",
        "    sd   a3, 0(t0)",
        "    li   a0, 1",
        "    bnez a4, qs_done",          # not sorted
        f"    li   t1, {expected}",
        "    bne  a3, t1, qs_done",
        "    li   a0, 0",
        "qs_done:",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)
