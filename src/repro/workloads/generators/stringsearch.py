"""The ``stringsearch`` workload (MiBench): Boyer-Moore-Horspool search.

MiBench's stringsearch scans a text corpus for a list of patterns with the
Horspool variant of Boyer-Moore.  Microarchitectural signature: byte-load
dominated with data-dependent skip distances, so both the memory issue
queue and the branch predictor work hard; the paper singles it out (with
dijkstra) as a top driver of Memory Issue Unit power.

Two phases per pattern (skip-table construction, then the scan) across a
pattern list give SimPoint the 2 phases Table II reports.
"""

from __future__ import annotations

from repro.workloads.data import byte_directive, Xorshift64Star

_ALPHABET = b"abcdefghijklmnopqrstuvwxyz"
_NUM_PATTERNS = 12


def _text_length(scale: float) -> int:
    return max(256, int(4300 * scale))


def _corpus(seed: int, scale: float) -> tuple[bytes, list[bytes]]:
    rng = Xorshift64Star(seed ^ 0x57E)
    length = _text_length(scale)
    text = bytearray(_ALPHABET[rng.next_below(26)] for _ in range(length))
    patterns: list[bytes] = []
    for index in range(_NUM_PATTERNS):
        m = 6 + rng.next_below(5)
        pattern = bytes(_ALPHABET[rng.next_below(26)] for _ in range(m))
        if index % 2 == 0 and length > 4 * m:
            # Splice "present" patterns into the text at a few spots.
            for _ in range(1 + rng.next_below(3)):
                position = rng.next_below(length - m)
                text[position:position + m] = pattern
        patterns.append(pattern)
    return bytes(text), patterns


def _horspool(text: bytes, pattern: bytes) -> int:
    """Reference Horspool scan; mirrors the assembly exactly."""
    n, m = len(text), len(pattern)
    skip = [m] * 256
    for i in range(m - 1):
        skip[pattern[i]] = m - 1 - i
    matches = 0
    position = 0
    while position <= n - m:
        j = m - 1
        while j >= 0 and text[position + j] == pattern[j]:
            j -= 1
        if j < 0:
            matches += 1
        position += skip[text[position + m - 1]]
    return matches


def _mirror(scale: float, seed: int) -> int:
    text, patterns = _corpus(seed, scale)
    return sum(_horspool(text, p) for p in patterns)


def build(scale: float, seed: int) -> str:
    """Generate the stringsearch assembly program for ``scale``."""
    text, patterns = _corpus(seed, scale)
    expected = _mirror(scale, seed)

    lines = [
        "    .data",
        "text:",
        byte_directive(text),
        "    .align 3",
    ]
    for index, pattern in enumerate(patterns):
        lines.append(f"pat{index}:")
        lines.append(byte_directive(pattern))
    lines += ["    .align 3",
              "skiptab: .space 256",
              "matches_out: .dword 0",
              "    .text",
              "_start:",
              "    la   s0, text",
              f"    li   s1, {len(text)}",
              "    li   s2, 0",            # total matches
              ]

    for index, pattern in enumerate(patterns):
        m = len(pattern)
        lines += [
            f"    la   s4, pat{index}",
            f"    li   t6, {m}",
            # ---- build the skip table (256 byte stores) ----
            "    la   s5, skiptab",
            "    addi t0, s5, 256",
            "    mv   t1, s5",
            f"fill{index}:",
            "    sb   t6, 0(t1)",
            "    addi t1, t1, 1",
            f"    bne  t1, t0, fill{index}",
            "    li   t1, 0",
            f"    li   t2, {m - 1}",
            f"skipset{index}:",
            f"    beq  t1, t2, scan{index}_init",
            "    add  t3, s4, t1",
            "    lbu  t3, 0(t3)",
            "    add  t3, t3, s5",
            "    sub  t4, t2, t1",
            "    sb   t4, 0(t3)",
            "    addi t1, t1, 1",
            f"    j    skipset{index}",
            # ---- Horspool scan ----
            f"scan{index}_init:",
            "    li   t0, 0",                 # position
            f"    li   t1, {len(text) - m}",  # limit
            f"scan{index}:",
            f"    blt  t1, t0, next{index}",
            f"    li   t2, {m - 1}",          # j
            f"cmp{index}:",
            f"    bltz t2, match{index}",
            "    add  t3, t0, t2",
            "    add  t3, t3, s0",
            "    lbu  t3, 0(t3)",
            "    add  t4, s4, t2",
            "    lbu  t4, 0(t4)",
            f"    bne  t3, t4, shift{index}",
            "    addi t2, t2, -1",
            f"    j    cmp{index}",
            f"match{index}:",
            "    addi s2, s2, 1",
            f"shift{index}:",
            f"    addi t3, t0, {m - 1}",
            "    add  t3, t3, s0",
            "    lbu  t3, 0(t3)",
            "    add  t3, t3, s5",
            "    lbu  t3, 0(t3)",
            "    add  t0, t0, t3",
            f"    j    scan{index}",
            f"next{index}:",
        ]

    lines += [
        "    la   t0, matches_out",
        "    sd   s2, 0(t0)",
        f"    li   t1, {expected}",
        "    li   a0, 1",
        "    bne  s2, t1, ss_done",
        "    li   a0, 0",
        "ss_done:",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)
