"""RISC-V architectural register names and ABI aliases.

The integer register file has 32 registers ``x0``–``x31`` (``x0`` is
hard-wired to zero) and the floating-point register file has 32 registers
``f0``–``f31``.  The standard RISC-V calling convention gives each register
an ABI mnemonic (``a0``, ``sp``, ``t3``, ``fs1``, ...); the assembler accepts
both spellings.
"""

from __future__ import annotations

from repro.errors import IsaError

NUM_XREGS = 32
NUM_FREGS = 32

#: ABI names for the integer registers, indexed by register number.
XREG_ABI_NAMES: tuple[str, ...] = (
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
    "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
    "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
)

#: ABI names for the floating-point registers, indexed by register number.
FREG_ABI_NAMES: tuple[str, ...] = (
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7",
    "fs0", "fs1", "fa0", "fa1", "fa2", "fa3", "fa4", "fa5",
    "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7",
    "fs8", "fs9", "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
)


def _build_name_table() -> dict[str, int]:
    table: dict[str, int] = {}
    for index in range(NUM_XREGS):
        table[f"x{index}"] = index
    for index, name in enumerate(XREG_ABI_NAMES):
        table[name] = index
    # "fp" is the conventional alias for the frame pointer s0/x8.
    table["fp"] = 8
    return table


def _build_fname_table() -> dict[str, int]:
    table: dict[str, int] = {}
    for index in range(NUM_FREGS):
        table[f"f{index}"] = index
    for index, name in enumerate(FREG_ABI_NAMES):
        table[name] = index
    return table


_XREG_NAMES = _build_name_table()
_FREG_NAMES = _build_fname_table()


def xreg_index(name: str) -> int:
    """Return the integer register number for ``name`` (``x7``, ``a0``, ...)."""
    try:
        return _XREG_NAMES[name]
    except KeyError:
        raise IsaError(f"unknown integer register name: {name!r}") from None


def freg_index(name: str) -> int:
    """Return the FP register number for ``name`` (``f3``, ``fa0``, ...)."""
    try:
        return _FREG_NAMES[name]
    except KeyError:
        raise IsaError(f"unknown floating-point register name: {name!r}") from None


def is_xreg_name(name: str) -> bool:
    """True if ``name`` names an integer register."""
    return name in _XREG_NAMES


def is_freg_name(name: str) -> bool:
    """True if ``name`` names a floating-point register."""
    return name in _FREG_NAMES
