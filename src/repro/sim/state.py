"""Architectural state of a RISC-V hart.

This is the state a Spike-style ISA simulator maintains and the exact
content of an architectural checkpoint: program counter, the 32 integer and
32 floating-point registers, the ``fcsr`` control register, and memory.
The integer registers are stored as unsigned 64-bit values (``0`` ..
``2**64 - 1``); helpers convert to signed where semantics need it.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.program import DATA_BASE, Program, STACK_TOP, TEXT_BASE
from repro.isa.registers import NUM_FREGS, NUM_XREGS
from repro.sim.memory import Memory

MASK64 = (1 << 64) - 1


def to_signed(value: int) -> int:
    """Interpret an unsigned 64-bit value as two's-complement signed."""
    return value - (1 << 64) if value >= (1 << 63) else value


def to_unsigned(value: int) -> int:
    """Wrap a Python integer into the unsigned 64-bit domain."""
    return value & MASK64


class ArchState:
    """Complete architectural state: registers, pc, memory, exit status."""

    __slots__ = ("x", "f", "pc", "fcsr", "memory", "retired", "exited",
                 "exit_code", "output")

    def __init__(self, memory: Memory | None = None) -> None:
        self.x: list[int] = [0] * NUM_XREGS
        self.f: list[float] = [0.0] * NUM_FREGS
        self.pc: int = 0
        self.fcsr: int = 0
        self.memory = memory if memory is not None else Memory()
        #: instructions retired since reset (not part of checkpoints)
        self.retired: int = 0
        self.exited: bool = False
        self.exit_code: int = 0
        #: bytes written through the write syscall (program output)
        self.output: bytearray = bytearray()

    @classmethod
    def for_program(cls, program: Program) -> "ArchState":
        """Create a reset state with ``program`` loaded into memory.

        The text segment is materialized as real machine code (so the state
        is self-contained, like a Spike memory image), data is placed at its
        base address, ``pc`` points at the entry symbol and ``sp`` at the
        stack top.
        """
        state = cls()
        state.memory.write_bytes(TEXT_BASE, program.encode_text())
        if program.data:
            state.memory.write_bytes(DATA_BASE, program.data)
        state.pc = program.entry
        state.x[2] = STACK_TOP  # sp
        return state

    def require_not_exited(self) -> None:
        if self.exited:
            raise SimulationError("hart has exited; cannot continue")

    def __repr__(self) -> str:
        return (f"ArchState(pc=0x{self.pc:x}, retired={self.retired}, "
                f"exited={self.exited})")
