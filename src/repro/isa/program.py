"""Executable program images.

A :class:`Program` is the output of the assembler and the input of both
simulators: a pre-decoded instruction list (text segment), an initialized
data image, a symbol table, and the conventional memory-layout constants
used by all workloads in this study.

The address map is simple and flat, as in a bare-metal Chipyard payload:

* text starts at :data:`TEXT_BASE` (instructions are 4 bytes each),
* initialized data starts at :data:`DATA_BASE`,
* the stack pointer is initialized to :data:`STACK_TOP` and grows down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction

TEXT_BASE = 0x0000_1000
DATA_BASE = 0x0010_0000
STACK_TOP = 0x0080_0000
#: First address past the stack; used as a simple bump-allocator heap base
#: by workloads that want scratch space away from .data.
HEAP_BASE = 0x0100_0000


@dataclass
class Program:
    """A fully linked program: decoded text, data image, and symbols."""

    instructions: list[Instruction]
    data: bytes = b""
    symbols: dict[str, int] = field(default_factory=dict)
    entry: int = TEXT_BASE
    name: str = "program"

    def __post_init__(self) -> None:
        for index, instr in enumerate(self.instructions):
            instr.pc = TEXT_BASE + 4 * index

    def symbol(self, name: str) -> int:
        """Return the address of symbol ``name``."""
        try:
            return self.symbols[name]
        except KeyError:
            raise SimulationError(f"undefined symbol: {name!r}") from None

    def encode_text(self) -> bytes:
        """Return the text segment as raw little-endian machine code."""
        words = bytearray()
        for instr in self.instructions:
            words += encode(instr).to_bytes(4, "little")
        return bytes(words)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return (f"Program({self.name!r}, {len(self.instructions)} instrs, "
                f"{len(self.data)} data bytes)")
