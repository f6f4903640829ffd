"""The ``basicmath`` workload (MiBench): integer math kernels.

MiBench's basicmath solves cubic equations, integer square roots, and
angle conversions.  Matching the paper's observation that only fft/ifft/
qsort touch the FP register file, this reproduction keeps everything in
integer arithmetic (fixed-point where needed) — which also gives the
benchmark its signature: regular visits to the *unpipelined divider*
interleaved with polynomial ALU work, for a mid-to-low IPC.

Phases (Table II reports 2 SimPoints; the first two phases dominate):

1. **isqrt** — Newton's method integer square roots plus a polynomial
   residual check (div + ALU mix),
2. **cbrt**  — fixed-point cube roots via Newton iteration (mul+div),
3. **convert** — degree/radian conversions and a GCD tail (rem-bound).
"""

from __future__ import annotations

from repro.workloads.data import dword_directive, Xorshift64Star

_MASK = (1 << 64) - 1


def _sizes(scale: float) -> tuple[int, int, int]:
    isqrt = max(8, int(2450 * scale))
    cbrt = max(8, int(1900 * scale))
    convert = max(8, int(2700 * scale))
    return isqrt, cbrt, convert


def _values(seed: int, count: int) -> list[int]:
    rng = Xorshift64Star(seed ^ 0xB00)
    return [rng.next_u64() >> 32 | 1 for _ in range(count)]


def _poly_mix(value: int) -> int:
    """The polynomial residual: pure ALU work between divides."""
    acc = value
    acc = (acc * 3 + 0x9E37) & _MASK
    acc ^= acc >> 9
    acc = (acc + (acc << 4)) & _MASK
    acc ^= acc >> 13
    acc = (acc * 5 + 0x79B9) & _MASK
    acc ^= acc >> 7
    return acc


def _isqrt(value: int) -> int:
    """Newton integer square root: 3 iterations from a coarse seed."""
    guess = value // 2 + 1
    for _ in range(3):
        guess = (guess + value // guess) // 2
    return guess


def _cbrt_fixed(value: int) -> int:
    """Fixed-point cube root: 3 Newton iterations, all integer ops."""
    guess = (value >> 2) + 1
    for _ in range(3):
        square = (guess * guess) & _MASK
        if square == 0:
            square = 1
        guess = (2 * guess + value // square) // 3
        if guess == 0:
            guess = 1
    return guess


def _mirror(scale: float, seed: int) -> int:
    isqrt_n, cbrt_n, convert_n = _sizes(scale)
    checksum = 0
    values = _values(seed, 64)
    for index in range(isqrt_n):
        value = (values[index % 64] + index) & _MASK
        checksum = (checksum + _isqrt(value)) & _MASK
        checksum = (checksum + _poly_mix(value)) & _MASK
        checksum = (checksum + _poly_mix(value ^ index)) & _MASK
    for index in range(cbrt_n):
        checksum = (checksum + _cbrt_fixed((values[index % 64] >> 8) + index)) \
            & _MASK
    # Conversions: degrees->radians in 16.16 fixed point, then GCD.
    rad_factor = 0x477  # round(pi/180 * 65536)
    for index in range(convert_n):
        degrees = (values[index % 64] + index) % 721
        radians = (degrees * rad_factor) >> 4
        checksum = (checksum + radians) & _MASK
        a, b = (values[index % 64] % 10000) + 1, (index % 97) + 1
        while b:
            a, b = b, a % b
        checksum = (checksum + a) & _MASK
        checksum = (checksum + _poly_mix(degrees)) & _MASK
    return checksum


def build(scale: float, seed: int) -> str:
    """Generate the basicmath assembly program for ``scale``."""
    isqrt_n, cbrt_n, convert_n = _sizes(scale)
    values = _values(seed, 64)
    expected = _mirror(scale, seed)

    def poly_asm(value_reg: str) -> list[str]:
        # Mirror of _poly_mix, operating on value_reg into t5 (t6 scratch).
        return [
            f"    slli t5, {value_reg}, 1",
            f"    add  t5, t5, {value_reg}",        # *3
            "    li   t6, 0x9E37",
            "    add  t5, t5, t6",
            "    srli t6, t5, 9",
            "    xor  t5, t5, t6",
            "    slli t6, t5, 4",
            "    add  t5, t5, t6",                  # + (acc<<4)
            "    srli t6, t5, 13",
            "    xor  t5, t5, t6",
            "    slli t6, t5, 2",
            "    add  t5, t6, t5",                  # *5
        ]

    def poly_tail() -> list[str]:
        return [
            "    li   t6, 0x79B9",
            "    add  t5, t5, t6",
            "    srli t6, t5, 7",
            "    xor  t5, t5, t6",
            "    add  s1, s1, t5",
        ]

    lines = [
        "    .data",
        "values:",
        dword_directive(values),
        "checksum_out: .dword 0",
        "    .text",
        "_start:",
        "    la   s0, values",
        "    li   s1, 0",            # checksum
    ]

    # ---- phase 1: integer square roots + polynomial residual ----------
    lines += [
        f"    li   s2, {isqrt_n}",
        "    li   s3, 0",            # index
        "isqrt_loop:",
        "    andi t0, s3, 63",
        "    slli t0, t0, 3",
        "    add  t0, t0, s0",
        "    ld   t1, 0(t0)",        # value
        "    add  t1, t1, s3",
        "    srli t2, t1, 1",
        "    addi t2, t2, 1",        # guess
        "    li   t3, 3",
        "isqrt_newton:",
        "    divu t4, t1, t2",
        "    add  t2, t2, t4",
        "    srli t2, t2, 1",
        "    addi t3, t3, -1",
        "    bnez t3, isqrt_newton",
        "    add  s1, s1, t2",
    ]
    lines += poly_asm("t1") + poly_tail()
    lines += ["    xor  s9, t1, s3"]
    lines += poly_asm("s9") + poly_tail()
    lines += [
        "    addi s3, s3, 1",
        "    bne  s3, s2, isqrt_loop",
    ]

    # ---- phase 2: fixed-point cube roots ------------------------------
    lines += [
        f"    li   s2, {cbrt_n}",
        "    li   s3, 0",
        "cbrt_loop:",
        "    andi t0, s3, 63",
        "    slli t0, t0, 3",
        "    add  t0, t0, s0",
        "    ld   t1, 0(t0)",
        "    srli t1, t1, 8",
        "    add  t1, t1, s3",       # value
        "    srli t2, t1, 2",
        "    addi t2, t2, 1",        # guess
        "    li   t3, 3",
        "    li   t6, 3",
        "cbrt_newton:",
        "    mul  t4, t2, t2",
        "    bnez t4, cbrt_div",
        "    li   t4, 1",
        "cbrt_div:",
        "    divu t4, t1, t4",
        "    slli t5, t2, 1",
        "    add  t4, t4, t5",
        "    divu t2, t4, t6",
        "    bnez t2, cbrt_ok",
        "    li   t2, 1",
        "cbrt_ok:",
        "    addi t3, t3, -1",
        "    bnez t3, cbrt_newton",
        "    add  s1, s1, t2",
        "    addi s3, s3, 1",
        "    bne  s3, s2, cbrt_loop",
    ]

    # ---- phase 3: conversions + GCD tail + residual --------------------
    lines += [
        f"    li   s2, {convert_n}",
        "    li   s3, 0",
        "    li   s4, 0x477",        # fixed-point pi/180
        "    li   s5, 721",
        "    li   s6, 10000",
        "    li   s7, 97",
        "conv_loop:",
        "    andi t0, s3, 63",
        "    slli t0, t0, 3",
        "    add  t0, t0, s0",
        "    ld   t1, 0(t0)",
        "    add  t2, t1, s3",
        "    remu t2, t2, s5",       # degrees
        "    mv   s8, t2",
        "    mul  t2, t2, s4",
        "    srli t2, t2, 4",        # radians (fixed point)
        "    add  s1, s1, t2",
        "    remu t3, t1, s6",
        "    addi t3, t3, 1",        # a
        "    remu t4, s3, s7",
        "    addi t4, t4, 1",        # b
        "gcd_loop:",
        "    beqz t4, gcd_done",
        "    remu t2, t3, t4",
        "    mv   t3, t4",
        "    mv   t4, t2",
        "    j    gcd_loop",
        "gcd_done:",
        "    add  s1, s1, t3",
    ]
    lines += poly_asm("s8") + poly_tail()
    lines += [
        "    addi s3, s3, 1",
        "    bne  s3, s2, conv_loop",
    ]

    # ---- self-check ----------------------------------------------------
    lines += [
        "    la   t0, checksum_out",
        "    sd   s1, 0(t0)",
        f"    li   t1, {expected}",
        "    li   a0, 1",
        "    bne  s1, t1, bm_done",
        "    li   a0, 0",
        "bm_done:",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)
