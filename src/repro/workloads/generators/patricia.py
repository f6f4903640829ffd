"""The ``patricia`` workload (MiBench): radix-trie insert and lookup.

MiBench's patricia builds a Patricia trie of network addresses and then
queries it.  The microarchitectural signature the paper relies on is
*pointer chasing*: every trie level is a load whose address depends on the
previous load, so the load-to-use chain dominates and IPC is low while the
LSU and data cache stay busy.

We implement a binary radix trie over 16-bit keys (a Patricia trie without
path compression — the per-level memory behaviour, which is what the power
model sees, is identical).  Two phases match Table II's 2 SimPoints:

1. **build** — insertions that allocate nodes from a bump allocator,
2. **query** — read-only lookups with hits and misses.
"""

from __future__ import annotations

from repro.workloads.data import dword_directive, Xorshift64Star

_MASK = (1 << 64) - 1
_KEY_BITS = 16
_NODE_BYTES = 24  # left pointer, right pointer, count


def _sizes(scale: float) -> tuple[int, int]:
    inserts = max(8, int(330 * scale))
    lookups = max(8, int(880 * scale))
    return inserts, lookups


def _keys(seed: int, count: int, salt: int) -> list[int]:
    rng = Xorshift64Star(seed ^ salt)
    return [rng.next_below(1 << _KEY_BITS) for _ in range(count)]


def _mirror(scale: float, seed: int) -> int:
    inserts, lookups = _sizes(scale)
    insert_keys = _keys(seed, inserts, 0x9A1)
    lookup_keys = _keys(seed, lookups, 0x3B7)
    # Half the lookups are keys that were inserted.
    for index in range(0, lookups, 2):
        lookup_keys[index] = insert_keys[index % inserts]

    trie: dict[int, list] = {0: [0, 0, 0]}  # node id -> [left, right, count]
    next_node = 1
    for key in insert_keys:
        node = 0
        for bit in range(_KEY_BITS - 1, -1, -1):
            side = (key >> bit) & 1
            child = trie[node][side]
            if child == 0:
                child = next_node
                next_node += 1
                trie[child] = [0, 0, 0]
                trie[node][side] = child
            node = child
        trie[node][2] += 1

    checksum = 0
    for key in lookup_keys:
        node = 0
        found = 1
        for bit in range(_KEY_BITS - 1, -1, -1):
            side = (key >> bit) & 1
            child = trie[node][side]
            if child == 0:
                found = 0
                break
            node = child
        if found:
            checksum = (checksum + trie[node][2]) & _MASK
        else:
            checksum = (checksum + 1) & _MASK
    return checksum


def build(scale: float, seed: int) -> str:
    """Generate the patricia assembly program for ``scale``."""
    inserts, lookups = _sizes(scale)
    insert_keys = _keys(seed, inserts, 0x9A1)
    lookup_keys = _keys(seed, lookups, 0x3B7)
    for index in range(0, lookups, 2):
        lookup_keys[index] = insert_keys[index % inserts]
    expected = _mirror(scale, seed)
    max_nodes = inserts * _KEY_BITS + 2

    lines = [
        "    .data",
        "insert_keys:",
        dword_directive(insert_keys),
        "lookup_keys:",
        dword_directive(lookup_keys),
        "checksum_out: .dword 0",
        "    .align 3",
        "pool:",
        f"    .space {max_nodes * _NODE_BYTES}",
        "    .text",
        "_start:",
        "    la   s0, pool",               # node pool base; node 0 = root
        f"    addi s1, s0, {_NODE_BYTES}",  # bump pointer (next free node)
        # ---- phase 1: build ----
        "    la   s2, insert_keys",
        f"    li   s3, {inserts}",
        "insert_loop:",
        "    ld   t0, 0(s2)",              # key
        "    mv   t1, s0",                 # node = root
        f"    li   t2, {_KEY_BITS - 1}",   # bit
        "walk_insert:",
        "    srl  t3, t0, t2",
        "    andi t3, t3, 1",
        "    slli t3, t3, 3",
        "    add  t3, t3, t1",             # &node.child[side]
        "    ld   t4, 0(t3)",
        "    bnez t4, walk_down",
        # allocate a node from the bump allocator
        "    mv   t4, s1",
        f"    addi s1, s1, {_NODE_BYTES}",
        "    sd   t4, 0(t3)",
        "walk_down:",
        "    mv   t1, t4",
        "    addi t2, t2, -1",
        "    bgez t2, walk_insert",
        # leaf: increment count
        "    ld   t3, 16(t1)",
        "    addi t3, t3, 1",
        "    sd   t3, 16(t1)",
        "    addi s2, s2, 8",
        "    addi s3, s3, -1",
        "    bnez s3, insert_loop",
        # ---- phase 2: lookups ----
        "    la   s2, lookup_keys",
        f"    li   s3, {lookups}",
        "    li   s4, 0",                  # checksum
        "lookup_loop:",
        "    ld   t0, 0(s2)",
        "    mv   t1, s0",
        f"    li   t2, {_KEY_BITS - 1}",
        "walk_lookup:",
        "    srl  t3, t0, t2",
        "    andi t3, t3, 1",
        "    slli t3, t3, 3",
        "    add  t3, t3, t1",
        "    ld   t1, 0(t3)",              # pointer chase
        "    beqz t1, miss",
        "    addi t2, t2, -1",
        "    bgez t2, walk_lookup",
        "    ld   t3, 16(t1)",             # hit: add leaf count
        "    add  s4, s4, t3",
        "    j    lookup_next",
        "miss:",
        "    addi s4, s4, 1",
        "lookup_next:",
        "    addi s2, s2, 8",
        "    addi s3, s3, -1",
        "    bnez s3, lookup_loop",
        # ---- self-check ----
        "    la   t0, checksum_out",
        "    sd   s4, 0(t0)",
        f"    li   t1, {expected}",
        "    li   a0, 1",
        "    bne  s4, t1, pt_done",
        "    li   a0, 0",
        "pt_done:",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)
