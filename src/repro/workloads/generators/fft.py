"""The ``fft`` and ``ifft`` workloads (MiBench): radix-2 complex FFT.

MiBench's FFT/inverse-FFT pair are the floating-point anchors of the suite:
in the paper they (with qsort) are the only benchmarks that touch the FP
register file, and they dominate Floating Point Issue Unit power.

The kernel is the iterative Cooley-Tukey radix-2 decimation-in-time FFT
with a precomputed twiddle table and a table-driven bit-reversal pass,
applied ``rounds`` times back-to-back over the same signal.  ``ifft`` uses
the conjugate twiddles and adds a 1/N normalization sweep per transform
(which is why Table II shows it slightly longer than ``fft``).

A bit-exact Python mirror (same operation order, no FMA) computes the
expected XOR-of-bit-patterns checksum the program verifies before exit.
"""

from __future__ import annotations

import math
import struct

from repro.workloads.data import (
    double_directive,
    word_directive,
    Xorshift64Star,
)

_MASK = (1 << 64) - 1


def _dimensions(scale: float, inverse: bool) -> tuple[int, int]:
    """Choose (N, rounds) so dynamic instructions track the Table II target."""
    if scale >= 0.5:
        n = 512
    elif scale >= 0.15:
        n = 256
    else:
        n = 128
    log_n = n.bit_length() - 1
    per_transform = (n // 2) * log_n * 31 + n * 20
    if inverse:
        per_transform += n * 11
    target = (266_643_273 if inverse else 266_217_322) / 1000 * scale
    rounds = max(1, round(target / per_transform))
    return n, rounds


def _bit_reverse(value: int, bits: int) -> int:
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def _twiddles(n: int, inverse: bool) -> tuple[list[float], list[float]]:
    sign = 1.0 if inverse else -1.0
    wre = [math.cos(2.0 * math.pi * k / n) for k in range(n // 2)]
    wim = [sign * math.sin(2.0 * math.pi * k / n) for k in range(n // 2)]
    return wre, wim


def _signal(seed: int, n: int) -> tuple[list[float], list[float]]:
    rng = Xorshift64Star(seed ^ 0xFF7)
    re = [rng.next_double() * 2.0 - 1.0 for _ in range(n)]
    im = [rng.next_double() * 2.0 - 1.0 for _ in range(n)]
    return re, im


def _transform(re: list[float], im: list[float], wre: list[float],
               wim: list[float], rev: list[int], inverse: bool,
               inv_n: float) -> None:
    """One in-place FFT pass, operation-ordered exactly like the assembly."""
    n = len(re)
    for i in range(n):
        j = rev[i]
        if i < j:
            re[i], re[j] = re[j], re[i]
            im[i], im[j] = im[j], im[i]
    length = 2
    while length <= n:
        half = length // 2
        step = n // length
        for base in range(0, n, length):
            for j in range(half):
                k = j * step
                wr, wi = wre[k], wim[k]
                u, v = base + j, base + j + half
                ure, uim = re[u], im[u]
                bre, bim = re[v], im[v]
                vre = bre * wr - bim * wi
                vim = bre * wi + bim * wr
                re[u] = ure + vre
                im[u] = uim + vim
                re[v] = ure - vre
                im[v] = uim - vim
        length *= 2
    if inverse:
        for i in range(n):
            re[i] = re[i] * inv_n
            im[i] = im[i] * inv_n


def _bits(value: float) -> int:
    return int.from_bytes(struct.pack("<d", value), "little")


def _mirror(scale: float, seed: int, inverse: bool) -> int:
    n, rounds = _dimensions(scale, inverse)
    log_n = n.bit_length() - 1
    re, im = _signal(seed, n)
    wre, wim = _twiddles(n, inverse)
    rev = [_bit_reverse(i, log_n) for i in range(n)]
    inv_n = 1.0 / n
    for _ in range(rounds):
        _transform(re, im, wre, wim, rev, inverse, inv_n)
    checksum = 0
    for i in range(n):
        checksum ^= _bits(re[i])
        checksum ^= _bits(im[i])
    return checksum & _MASK


def _build(scale: float, seed: int, inverse: bool) -> str:
    n, rounds = _dimensions(scale, inverse)
    log_n = n.bit_length() - 1
    re, im = _signal(seed, n)
    wre, wim = _twiddles(n, inverse)
    rev = [_bit_reverse(i, log_n) for i in range(n)]
    expected = _mirror(scale, seed, inverse)
    inv_n_bits = _bits(1.0 / n)
    tag = "ifft" if inverse else "fft"

    lines = [
        "    .data",
        "sig_re:", double_directive(re),
        "sig_im:", double_directive(im),
        "tw_re:", double_directive(wre),
        "tw_im:", double_directive(wim),
        "revtab:", word_directive(rev),
        "checksum_out: .dword 0",
        "    .text",
        "_start:",
        "    la   s0, sig_re",
        "    la   s1, sig_im",
        "    la   s2, tw_re",
        "    la   s3, tw_im",
        "    la   s4, revtab",
        f"    li   s5, {n}",
        f"    li   s11, {rounds}",
        "round_loop:",
        # ---- bit-reversal permutation (table-driven) ----
        "    li   t0, 0",
        "bitrev_loop:",
        "    slli t1, t0, 2",
        "    add  t1, t1, s4",
        "    lw   t1, 0(t1)",             # j = rev[i]
        "    bge  t0, t1, bitrev_next",   # swap only when i < j
        "    slli t2, t0, 3",
        "    slli t3, t1, 3",
        "    add  t4, t2, s0",
        "    add  t5, t3, s0",
        "    fld  ft0, 0(t4)",
        "    fld  ft1, 0(t5)",
        "    fsd  ft1, 0(t4)",
        "    fsd  ft0, 0(t5)",
        "    add  t4, t2, s1",
        "    add  t5, t3, s1",
        "    fld  ft0, 0(t4)",
        "    fld  ft1, 0(t5)",
        "    fsd  ft1, 0(t4)",
        "    fsd  ft0, 0(t5)",
        "bitrev_next:",
        "    addi t0, t0, 1",
        "    bne  t0, s5, bitrev_loop",
        # ---- butterfly stages ----
        "    li   s6, 2",                 # length
        "stage_loop:",
        "    srli s7, s6, 1",             # half
        "    divu s8, s5, s6",            # step
        "    slli s9, s7, 3",             # half in bytes
        "    li   s10, 0",                # base offset (bytes)
        "base_loop:",
        "    li   a2, 0",                 # j
        "butterfly:",
        "    slli t1, a2, 3",
        "    add  t0, s10, t1",           # u offset
        "    add  t2, t0, s9",            # v offset
        "    add  t3, t0, s0",            # &re[u]
        "    add  t4, t0, s1",            # &im[u]
        "    add  t5, t2, s0",            # &re[v]
        "    add  t6, t2, s1",            # &im[v]
        "    mul  a0, a2, s8",            # k = j * step
        "    slli a0, a0, 3",
        "    add  a1, a0, s2",
        "    fld  ft0, 0(a1)",            # wr
        "    add  a1, a0, s3",
        "    fld  ft1, 0(a1)",            # wi
        "    fld  fa0, 0(t3)",            # ure
        "    fld  fa1, 0(t4)",            # uim
        "    fld  fa2, 0(t5)",            # bre
        "    fld  fa3, 0(t6)",            # bim
        "    fmul.d fa4, fa2, ft0",
        "    fmul.d ft2, fa3, ft1",
        "    fsub.d fa4, fa4, ft2",       # vre
        "    fmul.d fa5, fa2, ft1",
        "    fmul.d ft2, fa3, ft0",
        "    fadd.d fa5, fa5, ft2",       # vim
        "    fadd.d ft2, fa0, fa4",
        "    fsd  ft2, 0(t3)",
        "    fadd.d ft2, fa1, fa5",
        "    fsd  ft2, 0(t4)",
        "    fsub.d ft2, fa0, fa4",
        "    fsd  ft2, 0(t5)",
        "    fsub.d ft2, fa1, fa5",
        "    fsd  ft2, 0(t6)",
        "    addi a2, a2, 1",
        "    bne  a2, s7, butterfly",
        "    slli t0, s6, 3",
        "    add  s10, s10, t0",          # base += length (bytes)
        "    slli t0, s5, 3",
        "    bne  s10, t0, base_loop",
        "    slli s6, s6, 1",
        "    ble  s6, s5, stage_loop",
    ]
    if inverse:
        lines += [
            # ---- 1/N normalization sweep ----
            "    la   t0, inv_n_const",
            "    fld  ft3, 0(t0)",
            "    li   t0, 0",
            "norm_loop:",
            "    slli t1, t0, 3",
            "    add  t2, t1, s0",
            "    fld  ft0, 0(t2)",
            "    fmul.d ft0, ft0, ft3",
            "    fsd  ft0, 0(t2)",
            "    add  t2, t1, s1",
            "    fld  ft0, 0(t2)",
            "    fmul.d ft0, ft0, ft3",
            "    fsd  ft0, 0(t2)",
            "    addi t0, t0, 1",
            "    bne  t0, s5, norm_loop",
        ]
    lines += [
        "    addi s11, s11, -1",
        "    bnez s11, round_loop",
        # ---- checksum: XOR of all bit patterns ----
        "    li   a3, 0",
        "    li   t0, 0",
        "check_loop:",
        "    slli t1, t0, 3",
        "    add  t2, t1, s0",
        "    fld  ft0, 0(t2)",
        "    fmv.x.d t3, ft0",
        "    xor  a3, a3, t3",
        "    add  t2, t1, s1",
        "    fld  ft0, 0(t2)",
        "    fmv.x.d t3, ft0",
        "    xor  a3, a3, t3",
        "    addi t0, t0, 1",
        "    bne  t0, s5, check_loop",
        "    la   t0, checksum_out",
        "    sd   a3, 0(t0)",
        f"    li   t1, {expected}",
        "    li   a0, 1",
        f"    bne  a3, t1, {tag}_done",
        "    li   a0, 0",
        f"{tag}_done:",
        "    li   a7, 93",
        "    ecall",
    ]
    if inverse:
        # inv_n constant lives in .data; insert before .text directive.
        index = lines.index("    .text")
        lines.insert(index, f"inv_n_const: .dword {inv_n_bits}")
    return "\n".join(lines)


def build_fft(scale: float, seed: int) -> str:
    """Generate the forward-FFT assembly program."""
    return _build(scale, seed, inverse=False)


def build_ifft(scale: float, seed: int) -> str:
    """Generate the inverse-FFT assembly program."""
    return _build(scale, seed, inverse=True)
