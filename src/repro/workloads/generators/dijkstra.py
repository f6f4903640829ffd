"""The ``dijkstra`` workload (MiBench): shortest paths on a dense graph.

MiBench's dijkstra computes shortest paths over an adjacency matrix.  Its
signature in the paper: *the* Integer Issue Unit hotspot — long chains of
dependent loads and compares (the min-scan, then the relaxation scan) keep
issue-queue occupancy high even though IPC is modest, and the memory issue
unit is the busiest in the suite alongside stringsearch (Fig. 8 contrasts
its per-slot power with sha's).

The kernel is the classic O(V^2) matrix formulation: per extracted node,
a linear min-scan over ``dist`` followed by a relaxation scan over the
node's matrix row.
"""

from __future__ import annotations

from repro.workloads.data import word_directive, Xorshift64Star

_MASK = (1 << 64) - 1
_INF = (1 << 40)
_SOURCES = 3
_DENSITY_PERCENT = 70


def _vertex_count(scale: float) -> int:
    return max(6, round(44 * scale ** 0.5))


def _graph(seed: int, n: int) -> list[int]:
    rng = Xorshift64Star(seed ^ 0xD17)
    matrix = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            if i != j and rng.next_below(100) < _DENSITY_PERCENT:
                matrix[i * n + j] = 1 + rng.next_below(100)
    return matrix


def _mirror(scale: float, seed: int) -> int:
    n = _vertex_count(scale)
    matrix = _graph(seed, n)
    checksum = 0
    for source in range(_SOURCES):
        start = (source * 7) % n
        dist = [_INF] * n
        visited = [0] * n
        dist[start] = 0
        for _ in range(n):
            best = _INF
            best_index = -1
            for i in range(n):
                if not visited[i] and dist[i] < best:
                    best = dist[i]
                    best_index = i
            if best_index < 0:
                break
            visited[best_index] = 1
            row = best_index * n
            for j in range(n):
                weight = matrix[row + j]
                if weight and not visited[j]:
                    candidate = best + weight
                    if candidate < dist[j]:
                        dist[j] = candidate
        checksum = (checksum + sum(dist)) & _MASK
    return checksum


def build(scale: float, seed: int) -> str:
    """Generate the dijkstra assembly program for ``scale``."""
    n = _vertex_count(scale)
    matrix = _graph(seed, n)
    expected = _mirror(scale, seed)

    lines = [
        "    .data",
        "adj:",
        word_directive(matrix),
        "dist:",
        f"    .space {8 * n}",
        "visited:",
        f"    .space {n}",
        "    .align 3",
        "checksum_out: .dword 0",
        "    .text",
        "_start:",
        "    la   s0, adj",
        "    la   s1, dist",
        "    la   s2, visited",
        f"    li   s3, {n}",
        f"    li   s4, {_INF}",
        "    li   s5, 0",                 # checksum
        "    li   s6, 0",                 # source counter
        "source_loop:",
        # start = (source * 7) % n
        "    li   t0, 7",
        "    mul  t0, s6, t0",
        "    remu t0, t0, s3",
        # init dist / visited
        "    li   t1, 0",
        "init_loop:",
        "    slli t2, t1, 3",
        "    add  t2, t2, s1",
        "    sd   s4, 0(t2)",
        "    add  t3, t1, s2",
        "    sb   zero, 0(t3)",
        "    addi t1, t1, 1",
        "    bne  t1, s3, init_loop",
        "    slli t2, t0, 3",
        "    add  t2, t2, s1",
        "    sd   zero, 0(t2)",           # dist[start] = 0
        # main loop: V extractions.  Both inner scans are branchless
        # (conditional moves via slt/mask, like compiled -O2 dijkstra):
        # every iteration chains ALU work behind loads, which is what
        # keeps the integer issue queue occupied (Fig. 8, Key Takeaway #4).
        "    li   s7, 0",                 # extraction counter
        "extract_loop:",
        # -- min scan (branchless select of the closest unvisited node) --
        "    mv   t0, s4",                # best = INF
        "    li   t1, -1",                # best index
        "    li   t2, 0",                 # i
        "min_scan:",
        "    add  t3, t2, s2",
        "    lbu  t3, 0(t3)",             # visited[i]
        "    slli t4, t2, 3",
        "    add  t4, t4, s1",
        "    ld   t4, 0(t4)",             # dist[i]
        "    slli t3, t3, 50",
        "    add  t4, t4, t3",            # visited nodes leave the range
        "    slt  t5, t4, t0",            # strictly closer?
        "    neg  t6, t5",                # all-ones mask when closer
        "    xor  a1, t4, t0",
        "    and  a1, a1, t6",
        "    xor  t0, t0, a1",            # best = closer ? cand : best
        "    xor  a1, t2, t1",
        "    and  a1, a1, t6",
        "    xor  t1, t1, a1",            # best_index likewise
        "    addi t2, t2, 1",
        "    bne  t2, s3, min_scan",
        "    bltz t1, source_done",
        # -- mark visited, relax row (branchless update) --
        "    add  t2, t1, s2",
        "    li   t3, 1",
        "    sb   t3, 0(t2)",
        "    mul  t2, t1, s3",
        "    slli t2, t2, 2",
        "    add  t2, t2, s0",            # &adj[best][0]
        "    li   t3, 0",                 # j
        "relax_loop:",
        "    slli t4, t3, 2",
        "    add  t4, t4, t2",
        "    lw   t4, 0(t4)",             # weight
        "    add  t5, t3, s2",
        "    lbu  t5, 0(t5)",             # visited[j]
        "    slli a1, t3, 3",
        "    add  a1, a1, s1",
        "    ld   t6, 0(a1)",             # dist[j]
        "    seqz a2, t4",                # no edge?
        "    or   a2, a2, t5",            # ... or already visited
        "    add  t4, t4, t0",            # candidate = best + w
        "    slli a2, a2, 50",
        "    add  t4, t4, a2",            # invalid candidates leave range
        "    slt  a3, t4, t6",            # improves dist[j]?
        "    neg  a3, a3",
        "    xor  a2, t4, t6",
        "    and  a2, a2, a3",
        "    xor  t6, t6, a2",            # newdist = improve ? cand : old
        "    sd   t6, 0(a1)",             # unconditional write-back
        "    addi t3, t3, 1",
        "    bne  t3, s3, relax_loop",
        "    addi s7, s7, 1",
        "    bne  s7, s3, extract_loop",
        "source_done:",
        # checksum += sum(dist)
        "    li   t1, 0",
        "sum_loop:",
        "    slli t2, t1, 3",
        "    add  t2, t2, s1",
        "    ld   t2, 0(t2)",
        "    add  s5, s5, t2",
        "    addi t1, t1, 1",
        "    bne  t1, s3, sum_loop",
        "    addi s6, s6, 1",
        f"    li   t0, {_SOURCES}",
        "    bne  s6, t0, source_loop",
        # ---- self-check ----
        "    la   t0, checksum_out",
        "    sd   s5, 0(t0)",
        f"    li   t1, {expected}",
        "    li   a0, 1",
        "    bne  s5, t1, dj_done",
        "    li   a0, 0",
        "dj_done:",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)
