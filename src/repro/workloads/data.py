"""Deterministic input-data generation for the workload suite.

Every workload's input (arrays to sort, graphs, texts, archives, signal
samples) is produced by a seeded xorshift64* generator so that a given
(workload, scale, seed) triple is bit-reproducible across runs and
platforms — the property the whole SimPoint flow depends on.
"""

from __future__ import annotations


_MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """The xorshift64* PRNG (Vigna 2016): tiny, fast, and deterministic."""

    def __init__(self, seed: int) -> None:
        if seed == 0:
            seed = 0x9E3779B97F4A7C15
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def next_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def next_double(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of entropy."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def next_bytes(self, count: int) -> bytes:
        out = bytearray()
        while len(out) < count:
            out += self.next_u64().to_bytes(8, "little")
        return bytes(out[:count])


def dword_directive(values: list[int], per_line: int = 8) -> str:
    """Render integers as ``.dword`` assembler lines."""
    lines = []
    for start in range(0, len(values), per_line):
        chunk = values[start:start + per_line]
        rendered = ", ".join(str(v & _MASK64) for v in chunk)
        lines.append(f"    .dword {rendered}")
    return "\n".join(lines)


def word_directive(values: list[int], per_line: int = 8) -> str:
    """Render 32-bit integers as ``.word`` assembler lines."""
    lines = []
    for start in range(0, len(values), per_line):
        chunk = values[start:start + per_line]
        rendered = ", ".join(str(v & 0xFFFFFFFF) for v in chunk)
        lines.append(f"    .word {rendered}")
    return "\n".join(lines)


def double_directive(values: list[float], per_line: int = 4) -> str:
    """Render floats as ``.double`` assembler lines (full repr precision)."""
    lines = []
    for start in range(0, len(values), per_line):
        chunk = values[start:start + per_line]
        rendered = ", ".join(repr(v) for v in chunk)
        lines.append(f"    .double {rendered}")
    return "\n".join(lines)


def byte_directive(blob: bytes, per_line: int = 16) -> str:
    """Render raw bytes as ``.byte`` assembler lines."""
    lines = []
    for start in range(0, len(blob), per_line):
        chunk = blob[start:start + per_line]
        rendered = ", ".join(str(b) for b in chunk)
        lines.append(f"    .byte {rendered}")
    return "\n".join(lines)
