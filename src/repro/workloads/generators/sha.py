"""The ``sha`` workload (MiBench): four-lane interleaved hash rounds.

Behavioural signature (paper §IV): the highest-IPC benchmark in the suite —
its abundant integer ILP saturates the decode width of every BOOM
configuration, maximizes integer-register-file traffic, and leaves the
issue queues nearly empty (instructions issue as fast as they arrive).

To reproduce that signature the kernel hashes **four independent lanes**
interleaved instruction-by-instruction, so a 4-wide core always finds four
independent chains.  Three code phases give SimPoint distinct clusters,
matching the 3 SimPoints Table II reports for sha:

1. message-schedule expansion (load/xor/store sweep over the w buffer),
2. round function A over ``blocks_a`` blocks (pure ALU),
3. round function B over ``blocks_b`` blocks (pure ALU, different mix).

The generator computes the expected digest with a bit-exact Python mirror;
the program exits 0 only if the architectural result matches.
"""

from __future__ import annotations

from repro.workloads.data import dword_directive, Xorshift64Star

_MASK = (1 << 64) - 1
_W_SIZE = 256  # dwords in the message buffer

#: (a, b, c) register triplets for the four interleaved lanes.
_LANES = (("s0", "s1", "s2"), ("s3", "s4", "s5"),
          ("s6", "s7", "s8"), ("s9", "s10", "s11"))
_TEMPS = ("t3", "t4", "t5", "t6")


def _sizes(scale: float) -> tuple[int, int, int]:
    sched_iters = max(32, int(1200 * scale))
    blocks_a = max(1, int(52 * scale))
    blocks_b = max(1, int(47 * scale))
    return sched_iters, blocks_a, blocks_b


def _initial_state(seed: int) -> list[int]:
    rng = Xorshift64Star(seed ^ 0x5A5A)
    return [rng.next_u64() | 1 for _ in range(12)]


def _initial_w(seed: int) -> list[int]:
    rng = Xorshift64Star(seed)
    return [rng.next_u64() for _ in range(_W_SIZE)]


def _mirror(scale: float, seed: int) -> int:
    """Bit-exact Python model of the assembly kernel; returns the digest."""
    sched_iters, blocks_a, blocks_b = _sizes(scale)
    w = _initial_w(seed)
    state = _initial_state(seed)

    # Phase 1: schedule expansion with wrap at index W-2.
    index = 0
    for _ in range(sched_iters):
        value = (w[index + 1] ^ (w[index] >> 7)) & _MASK
        w[index + 1] = (value + w[index]) & _MASK
        index += 1
        if index == _W_SIZE - 1:
            index = 0

    # Phase 2: rounds A.
    for block in range(blocks_a, 0, -1):
        for round_index in range(32):
            message = (w[round_index % 16] + block) & _MASK
            for lane in range(4):
                a, b, c = state[3 * lane:3 * lane + 3]
                a = (a + message) & _MASK
                a ^= b
                a ^= a >> 17
                c = (c + ((b << 5) & _MASK)) & _MASK
                b ^= c
                state[3 * lane:3 * lane + 3] = [a, b, c]

    # Phase 3: rounds B.
    for block in range(blocks_b, 0, -1):
        for round_index in range(32):
            message = (w[round_index % 16] + block) & _MASK
            for lane in range(4):
                a, b, c = state[3 * lane:3 * lane + 3]
                a ^= message
                a = (a + c) & _MASK
                b ^= c >> 11
                c = (c + ((a << 3) & _MASK)) & _MASK
                a ^= b
                state[3 * lane:3 * lane + 3] = [a, b, c]

    digest = 0
    for value in state:
        digest = ((digest ^ value) * 0x100000001B3) & _MASK
    return digest


def _round_a(lane: int, message: str) -> list[str]:
    a, b, c = _LANES[lane]
    u = _TEMPS[lane]
    return [
        f"    add  {a}, {a}, {message}",
        f"    xor  {a}, {a}, {b}",
        f"    srli {u}, {a}, 17",
        f"    xor  {a}, {a}, {u}",
        f"    slli {u}, {b}, 5",
        f"    add  {c}, {c}, {u}",
        f"    xor  {b}, {b}, {c}",
    ]


def _round_b(lane: int, message: str) -> list[str]:
    a, b, c = _LANES[lane]
    u = _TEMPS[lane]
    return [
        f"    xor  {a}, {a}, {message}",
        f"    add  {a}, {a}, {c}",
        f"    srli {u}, {c}, 11",
        f"    xor  {b}, {b}, {u}",
        f"    slli {u}, {a}, 3",
        f"    add  {c}, {c}, {u}",
        f"    xor  {a}, {a}, {b}",
    ]


def _emit_block_loop(label: str, blocks: int, round_fn) -> list[str]:
    lines = [f"    li   a4, {blocks}", f"{label}:"]
    for round_index in range(32):
        offset = 8 * (round_index % 16)
        lines.append(f"    ld   t2, {offset}(a5)")
        lines.append("    add  t2, t2, a4")
        # Interleave the four lanes instruction-by-instruction for ILP.
        lane_bodies = [round_fn(lane, "t2") for lane in range(4)]
        for step in range(7):
            for lane in range(4):
                lines.append(lane_bodies[lane][step])
    lines += [
        "    addi a4, a4, -1",
        f"    bnez a4, {label}",
    ]
    return lines


def build(scale: float, seed: int) -> str:
    """Generate the sha assembly program for ``scale``."""
    sched_iters, blocks_a, blocks_b = _sizes(scale)
    w = _initial_w(seed)
    state = _initial_state(seed)
    expected = _mirror(scale, seed)

    lines = [
        "    .data",
        "wbuf:",
        dword_directive(w),
        "digest_out: .dword 0",
        "    .text",
        "_start:",
        "    la   a5, wbuf",
        # -- phase 1: schedule expansion --
        "    mv   t0, a5",
        f"    li   t1, {sched_iters}",
        "    li   a1, 0",
        f"    li   a6, {8 * (_W_SIZE - 1)}",
        "sched_loop:",
        "    ld   a2, 0(t0)",
        "    ld   a3, 8(t0)",
        "    srli a7, a2, 7",
        "    xor  a3, a3, a7",
        "    add  a3, a3, a2",
        "    sd   a3, 8(t0)",
        "    addi t0, t0, 8",
        "    addi a1, a1, 8",
        "    addi t1, t1, -1",
        "    beqz t1, sched_done",
        "    bne  a1, a6, sched_loop",
        "    mv   t0, a5",
        "    li   a1, 0",
        "    j    sched_loop",
        "sched_done:",
    ]
    # -- lane state initialization --
    for index, value in enumerate(state):
        register = _LANES[index // 3][index % 3]
        lines.append(f"    li   {register}, {value}")
    # -- phase 2 and 3: the two round kernels --
    lines += _emit_block_loop("block_a", blocks_a, _round_a)
    lines += _emit_block_loop("block_b", blocks_b, _round_b)
    # -- finalize: fold the twelve state registers into a digest --
    lines += [
        "    li   a0, 0",
        f"    li   t2, {0x100000001B3}",
    ]
    for lane in range(4):
        for register in _LANES[lane]:
            lines.append(f"    xor  a0, a0, {register}")
            lines.append("    mul  a0, a0, t2")
    lines += [
        "    la   t0, digest_out",
        "    sd   a0, 0(t0)",
        f"    li   t1, {expected}",
        "    li   a1, 0",
        "    beq  a0, t1, sha_pass",
        "    li   a1, 1",
        "sha_pass:",
        "    mv   a0, a1",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)
