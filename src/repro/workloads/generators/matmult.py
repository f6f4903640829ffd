"""The ``matmult`` workload (Embench): integer matrix multiply.

Embench's matmult-int multiplies two integer matrices.  Its signature in
the paper: the *data-cache hotspot* — streaming loads of one matrix row
combined with strided (column) loads of the other keep the L1D and its
MSHRs busier than any other benchmark, while IPC stays moderate (one
load-limited multiply-accumulate chain per inner iteration).

The column walk of B has a stride of ``8 * n`` bytes, and the combined
working set (A + B + C at 8 bytes per element) exceeds every L1D in
Table I, so the kernel streams misses continuously — the traffic the
paper attributes to matmult, and the reason LargeBOOM (whose 32 KiB L1D
thrashes less than MediumBOOM's 16 KiB) wins it on perf-per-watt.
"""

from __future__ import annotations

from repro.workloads.data import dword_directive, Xorshift64Star

_MASK = (1 << 64) - 1


def _dimension(scale: float) -> int:
    return max(4, round(44 * scale ** (1.0 / 3.0)))


def _matrices(seed: int, n: int) -> tuple[list[int], list[int]]:
    rng = Xorshift64Star(seed ^ 0xA7A7)
    a = [rng.next_below(1 << 15) for _ in range(n * n)]
    b = [rng.next_below(1 << 15) for _ in range(n * n)]
    return a, b


def _mirror(scale: float, seed: int) -> int:
    n = _dimension(scale)
    a, b = _matrices(seed, n)
    checksum = 0
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = (acc + a[i * n + k] * b[k * n + j]) & _MASK
            checksum = (checksum + acc) & _MASK
    return checksum


def build(scale: float, seed: int) -> str:
    """Generate the matmult assembly program for ``scale``."""
    n = _dimension(scale)
    a, b = _matrices(seed, n)
    expected = _mirror(scale, seed)
    row_bytes = 8 * n

    lines = [
        "    .data",
        "mat_a:",
        dword_directive(a),
        "mat_b:",
        dword_directive(b),
        "mat_c:",
        f"    .space {8 * n * n}",
        "checksum_out: .dword 0",
        "    .text",
        "_start:",
        "    la   s0, mat_a",
        "    la   s1, mat_b",
        "    la   s2, mat_c",
        f"    li   s5, {row_bytes}",    # column stride of B
        "    li   s7, 0",               # checksum
        f"    li   s8, {n}",
        "    li   s9, 0",               # i
        "row_loop:",
        "    li   s10, 0",              # j
        "col_loop:",
        # t0 walks A's row i, t1 walks B's column j.
        f"    mul  t0, s9, s5",
        "    add  t0, t0, s0",          # &a[i][0]
        "    slli t1, s10, 3",
        "    add  t1, t1, s1",          # &b[0][j]
        "    add  t2, t0, s5",          # end of A row
        "    li   s6, 0",               # accumulator
        "inner_loop:",
        "    ld   t3, 0(t0)",
        "    ld   t4, 0(t1)",
        "    mul  t5, t3, t4",
        "    add  s6, s6, t5",
        "    addi t0, t0, 8",
        "    add  t1, t1, s5",
        "    bne  t0, t2, inner_loop",
        # store C[i][j] and fold into the checksum
        "    mul  t3, s9, s8",
        "    add  t3, t3, s10",
        "    slli t3, t3, 3",
        "    add  t3, t3, s2",
        "    sd   s6, 0(t3)",
        "    add  s7, s7, s6",
        "    addi s10, s10, 1",
        "    bne  s10, s8, col_loop",
        "    addi s9, s9, 1",
        "    bne  s9, s8, row_loop",
        # ---- self-check ----
        "    la   t0, checksum_out",
        "    sd   s7, 0(t0)",
        f"    li   t1, {expected}",
        "    li   a0, 1",
        "    bne  s7, t1, mm_done",
        "    li   a0, 0",
        "mm_done:",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)
