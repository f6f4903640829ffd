"""The ``tarfind`` workload (Embench): scan a tar archive for files.

Embench's tarfind walks tar headers looking for matching file names.  In
the paper it is the *lowest-IPC* benchmark in every configuration: header
parsing is control-flow on data bytes (hard-to-predict branches) and the
per-byte integrity checksum is a serial dependency chain through loads.

The generator synthesizes a deterministic tar-like archive (512-byte
headers: 16-byte name, 12-byte octal size field) followed by 512-byte data
blocks, then scans it ``passes`` times: per entry it parses the octal size,
compares the name against two target patterns, and checksums the file data
with a branch-per-byte mix (add on odd bytes, xor on even bytes) whose
direction is effectively random — the mispredict generator that pins IPC
to the bottom of the suite.
"""

from __future__ import annotations

from repro.workloads.data import byte_directive, Xorshift64Star

_MASK = (1 << 64) - 1
_HEADER_BYTES = 512
_NAME_BYTES = 16
_SIZE_OFFSET = 124


def _sizes(scale: float) -> tuple[int, int]:
    entries = max(4, int(64 * scale ** 0.5))
    passes = max(1, round(4.4 * scale ** 0.5))
    return entries, passes


def _entry_name(index: int) -> bytes:
    name = f"file{index:04d}.dat".encode()
    return name + bytes(_NAME_BYTES - len(name))


def _build_archive(seed: int, entries: int) -> tuple[bytes, list[int]]:
    """Return (archive bytes, per-entry data sizes)."""
    rng = Xorshift64Star(seed ^ 0x7A2)
    archive = bytearray()
    sizes = []
    for index in range(entries):
        size = rng.next_below(1024)
        sizes.append(size)
        header = bytearray(_HEADER_BYTES)
        header[0:_NAME_BYTES] = _entry_name(index)
        octal = f"{size:011o}".encode() + b"\x00"
        header[_SIZE_OFFSET:_SIZE_OFFSET + 12] = octal
        archive += header
        blocks = (size + 511) // 512
        data = bytearray(rng.next_bytes(size))
        data += bytes(blocks * 512 - size)
        archive += data
    return bytes(archive), sizes


def _checksum_data(data: bytes, acc: int) -> int:
    for byte in data:
        if byte & 1:
            if byte & 2:
                acc = (acc + (byte << 1)) & _MASK
            else:
                acc = (acc + byte) & _MASK
        else:
            acc ^= byte
    return acc


def _mirror(scale: float, seed: int) -> int:
    entries, passes = _sizes(scale)
    archive, sizes = _build_archive(seed, entries)
    patterns = [_entry_name(entries // 2), _entry_name(entries + 99)]
    checksum = 0
    matches = 0
    for pass_index in range(passes):
        offset = 0
        for _ in range(entries):
            header = archive[offset:offset + _HEADER_BYTES]
            # octal size parse (11 digits)
            size = 0
            for digit in header[_SIZE_OFFSET:_SIZE_OFFSET + 11]:
                size = size * 8 + (digit - 0x30)
            # name compare against both patterns
            name = header[0:_NAME_BYTES]
            for pattern in patterns:
                if name == pattern:
                    matches += 1
            # data checksum with the branchy mix
            data_start = offset + _HEADER_BYTES
            checksum = _checksum_data(
                archive[data_start:data_start + size], checksum)
            checksum = (checksum + pass_index) & _MASK
            offset = data_start + ((size + 511) // 512) * 512
    return (checksum + matches * 0x10001) & _MASK


def build(scale: float, seed: int) -> str:
    """Generate the tarfind assembly program for ``scale``."""
    entries, passes = _sizes(scale)
    archive, _sizes_list = _build_archive(seed, entries)
    patterns = [_entry_name(entries // 2), _entry_name(entries + 99)]
    expected = _mirror(scale, seed)

    lines = [
        "    .data",
        "archive:",
        byte_directive(archive),
        "pattern0:",
        byte_directive(patterns[0]),
        "pattern1:",
        byte_directive(patterns[1]),
        "    .align 3",
        "checksum_out: .dword 0",
        "    .text",
        "_start:",
        "    la   s0, archive",
        "    li   s1, 0",                 # checksum
        "    li   s2, 0",                 # matches
        "    li   s3, 0",                 # pass index
        "pass_loop:",
        "    mv   s4, s0",                # entry pointer
        f"    li   s5, {entries}",        # entries remaining
        "entry_loop:",
        # ---- parse the octal size field (11 digits) ----
        f"    addi t0, s4, {_SIZE_OFFSET}",
        "    li   t1, 0",                 # size
        "    li   t2, 11",
        "octal_loop:",
        "    lbu  t3, 0(t0)",
        "    addi t3, t3, -48",
        "    slli t1, t1, 3",
        "    add  t1, t1, t3",
        "    addi t0, t0, 1",
        "    addi t2, t2, -1",
        "    bnez t2, octal_loop",
    ]
    # ---- name comparison against both patterns ----
    for pat_index in range(2):
        lines += [
            f"    la   t0, pattern{pat_index}",
            "    mv   t2, s4",
            f"    li   t4, {_NAME_BYTES}",
            f"cmp{pat_index}_loop:",
            "    lbu  t5, 0(t0)",
            "    lbu  t6, 0(t2)",
            f"    bne  t5, t6, cmp{pat_index}_ne",
            "    addi t0, t0, 1",
            "    addi t2, t2, 1",
            "    addi t4, t4, -1",
            f"    bnez t4, cmp{pat_index}_loop",
            "    addi s2, s2, 1",          # full match
            f"cmp{pat_index}_ne:",
        ]
    lines += [
        # ---- branchy per-byte checksum of the file data ----
        f"    addi t0, s4, {_HEADER_BYTES}",  # data pointer
        "    beqz t1, data_done",
        "    mv   t2, t1",                # bytes remaining
        "data_loop:",
        "    lbu  t3, 0(t0)",
        "    andi t4, t3, 1",
        "    beqz t4, data_even",
        "    andi t4, t3, 2",
        "    beqz t4, data_odd_plain",
        "    slli t3, t3, 1",
        "    add  s1, s1, t3",
        "    j    data_next",
        "data_odd_plain:",
        "    add  s1, s1, t3",
        "    j    data_next",
        "data_even:",
        "    xor  s1, s1, t3",
        "data_next:",
        "    addi t0, t0, 1",
        "    addi t2, t2, -1",
        "    bnez t2, data_loop",
        "data_done:",
        "    add  s1, s1, s3",            # mix in the pass index
        # ---- advance to the next header ----
        "    addi t1, t1, 511",
        "    srli t1, t1, 9",
        "    slli t1, t1, 9",              # round size up to blocks
        f"    addi s4, s4, {_HEADER_BYTES}",
        "    add  s4, s4, t1",
        "    addi s5, s5, -1",
        "    bnez s5, entry_loop",
        "    addi s3, s3, 1",
        f"    li   t0, {passes}",
        "    bne  s3, t0, pass_loop",
        # ---- fold matches, self-check ----
        "    li   t0, 0x10001",
        "    mul  t0, t0, s2",
        "    add  s1, s1, t0",
        "    la   t0, checksum_out",
        "    sd   s1, 0(t0)",
        f"    li   t1, {expected}",
        "    li   a0, 1",
        "    bne  s1, t1, tf_done",
        "    li   a0, 0",
        "tf_done:",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)
