"""Execution semantics for every mnemonic in the ISA subset.

Each semantic function has the signature ``fn(state, ins) -> int | None``:
it mutates :class:`~repro.sim.state.ArchState` and returns the next PC for
control transfers, or ``None`` for ordinary fall-through.  The table
:data:`SEMANTICS` maps mnemonics to their functions; the executor binds the
function to each instruction once, so the hot loop never dispatches by
string.

Numeric conventions: integer registers hold unsigned 64-bit values;
floating-point registers hold Python floats (IEEE binary64).  The only
deliberate deviation from the ISA manual is that the fused multiply-add
family rounds twice (Python has no scalar FMA primitive); no workload in
this study is sensitive to the last ULP.  Arithmetic that yields NaN
writes the canonical NaN (:data:`CANONICAL_NAN`), as the ISA requires.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.state import ArchState, MASK64, to_signed
from repro.sim.syscalls import handle_ecall
from repro.isa.instructions import Instruction

SemanticFn = Callable[[ArchState, Instruction], Optional[int]]

SEMANTICS: dict[str, SemanticFn] = {}

_MASK32 = 0xFFFFFFFF
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1

#: the canonical NaN (0x7ff8000000000000) that RISC-V FP arithmetic
#: returns whenever its result is NaN.  CPython's own NaN bits are not
#: stable: x86 makes 0xfff8... for an invalid operation, and which
#: operand's payload a sum of two NaNs keeps changes once the bytecode
#: is specialized, so the same handler could differ cold and warm.
CANONICAL_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000))[0]


def _register(name: str):
    def wrap(fn: SemanticFn) -> SemanticFn:
        SEMANTICS[name] = fn
        return fn
    return wrap


def _sext32(value: int) -> int:
    """Sign-extend the low 32 bits of ``value`` into the 64-bit domain."""
    value &= _MASK32
    if value >= 1 << 31:
        value -= 1 << 32
    return value & MASK64


# ----------------------------------------------------------------------
# integer register-register
# ----------------------------------------------------------------------

@_register("add")
def _add(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = (s.x[i.rs1] + s.x[i.rs2]) & MASK64


@_register("sub")
def _sub(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = (s.x[i.rs1] - s.x[i.rs2]) & MASK64


@_register("and")
def _and(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.x[i.rs1] & s.x[i.rs2]


@_register("or")
def _or(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.x[i.rs1] | s.x[i.rs2]


@_register("xor")
def _xor(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.x[i.rs1] ^ s.x[i.rs2]


@_register("sll")
def _sll(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = (s.x[i.rs1] << (s.x[i.rs2] & 63)) & MASK64


@_register("srl")
def _srl(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.x[i.rs1] >> (s.x[i.rs2] & 63)


@_register("sra")
def _sra(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = (to_signed(s.x[i.rs1]) >> (s.x[i.rs2] & 63)) & MASK64


@_register("slt")
def _slt(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = 1 if to_signed(s.x[i.rs1]) < to_signed(s.x[i.rs2]) else 0


@_register("sltu")
def _sltu(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = 1 if s.x[i.rs1] < s.x[i.rs2] else 0


@_register("addw")
def _addw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32(s.x[i.rs1] + s.x[i.rs2])


@_register("subw")
def _subw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32(s.x[i.rs1] - s.x[i.rs2])


@_register("sllw")
def _sllw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32(s.x[i.rs1] << (s.x[i.rs2] & 31))


@_register("srlw")
def _srlw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32((s.x[i.rs1] & _MASK32) >> (s.x[i.rs2] & 31))


@_register("sraw")
def _sraw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        value = _sext32(s.x[i.rs1])
        s.x[i.rd] = (to_signed(value) >> (s.x[i.rs2] & 31)) & MASK64


# ----------------------------------------------------------------------
# M extension
# ----------------------------------------------------------------------

@_register("mul")
def _mul(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = (s.x[i.rs1] * s.x[i.rs2]) & MASK64


@_register("mulh")
def _mulh(s: ArchState, i: Instruction) -> None:
    if i.rd:
        product = to_signed(s.x[i.rs1]) * to_signed(s.x[i.rs2])
        s.x[i.rd] = (product >> 64) & MASK64


@_register("mulhu")
def _mulhu(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = ((s.x[i.rs1] * s.x[i.rs2]) >> 64) & MASK64


@_register("mulw")
def _mulw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32(s.x[i.rs1] * s.x[i.rs2])


def _divide(dividend: int, divisor: int) -> int:
    """RISC-V signed division: truncate toward zero, -1 on divide-by-zero."""
    if divisor == 0:
        return -1
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    return quotient


def _remainder(dividend: int, divisor: int) -> int:
    """RISC-V signed remainder: sign of the dividend."""
    if divisor == 0:
        return dividend
    return dividend - divisor * _divide(dividend, divisor)


@_register("div")
def _div(s: ArchState, i: Instruction) -> None:
    if i.rd:
        value = _divide(to_signed(s.x[i.rs1]), to_signed(s.x[i.rs2]))
        s.x[i.rd] = value & MASK64


@_register("divu")
def _divu(s: ArchState, i: Instruction) -> None:
    if i.rd:
        divisor = s.x[i.rs2]
        s.x[i.rd] = MASK64 if divisor == 0 else s.x[i.rs1] // divisor


@_register("rem")
def _rem(s: ArchState, i: Instruction) -> None:
    if i.rd:
        value = _remainder(to_signed(s.x[i.rs1]), to_signed(s.x[i.rs2]))
        s.x[i.rd] = value & MASK64


@_register("remu")
def _remu(s: ArchState, i: Instruction) -> None:
    if i.rd:
        divisor = s.x[i.rs2]
        s.x[i.rd] = s.x[i.rs1] if divisor == 0 else s.x[i.rs1] % divisor


@_register("divw")
def _divw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        value = _divide(to_signed(_sext32(s.x[i.rs1])),
                        to_signed(_sext32(s.x[i.rs2])))
        s.x[i.rd] = _sext32(value)


@_register("divuw")
def _divuw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        divisor = s.x[i.rs2] & _MASK32
        if divisor == 0:
            s.x[i.rd] = MASK64
        else:
            s.x[i.rd] = _sext32((s.x[i.rs1] & _MASK32) // divisor)


@_register("remw")
def _remw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        value = _remainder(to_signed(_sext32(s.x[i.rs1])),
                           to_signed(_sext32(s.x[i.rs2])))
        s.x[i.rd] = _sext32(value)


@_register("remuw")
def _remuw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        divisor = s.x[i.rs2] & _MASK32
        if divisor == 0:
            s.x[i.rd] = _sext32(s.x[i.rs1])
        else:
            s.x[i.rd] = _sext32((s.x[i.rs1] & _MASK32) % divisor)


# ----------------------------------------------------------------------
# immediates
# ----------------------------------------------------------------------

@_register("addi")
def _addi(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = (s.x[i.rs1] + i.imm) & MASK64


@_register("addiw")
def _addiw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32(s.x[i.rs1] + i.imm)


@_register("andi")
def _andi(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.x[i.rs1] & (i.imm & MASK64)


@_register("ori")
def _ori(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.x[i.rs1] | (i.imm & MASK64)


@_register("xori")
def _xori(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.x[i.rs1] ^ (i.imm & MASK64)


@_register("slti")
def _slti(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = 1 if to_signed(s.x[i.rs1]) < i.imm else 0


@_register("sltiu")
def _sltiu(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = 1 if s.x[i.rs1] < (i.imm & MASK64) else 0


@_register("slli")
def _slli(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = (s.x[i.rs1] << i.imm) & MASK64


@_register("srli")
def _srli(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.x[i.rs1] >> i.imm


@_register("srai")
def _srai(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = (to_signed(s.x[i.rs1]) >> i.imm) & MASK64


@_register("slliw")
def _slliw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32(s.x[i.rs1] << i.imm)


@_register("srliw")
def _srliw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32((s.x[i.rs1] & _MASK32) >> i.imm)


@_register("sraiw")
def _sraiw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        value = to_signed(_sext32(s.x[i.rs1]))
        s.x[i.rd] = (value >> i.imm) & MASK64


@_register("lui")
def _lui(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32(i.imm << 12)


@_register("auipc")
def _auipc(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = (i.pc + to_signed(_sext32(i.imm << 12))) & MASK64


# ----------------------------------------------------------------------
# loads / stores
# ----------------------------------------------------------------------

@_register("lb")
def _lb(s: ArchState, i: Instruction) -> None:
    if i.rd:
        value = s.memory.load((s.x[i.rs1] + i.imm) & MASK64, 1)
        s.x[i.rd] = (value - 0x100 if value >= 0x80 else value) & MASK64


@_register("lbu")
def _lbu(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.memory.load((s.x[i.rs1] + i.imm) & MASK64, 1)


@_register("lh")
def _lh(s: ArchState, i: Instruction) -> None:
    if i.rd:
        value = s.memory.load((s.x[i.rs1] + i.imm) & MASK64, 2)
        s.x[i.rd] = (value - 0x10000 if value >= 0x8000 else value) & MASK64


@_register("lhu")
def _lhu(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.memory.load((s.x[i.rs1] + i.imm) & MASK64, 2)


@_register("lw")
def _lw(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _sext32(s.memory.load((s.x[i.rs1] + i.imm) & MASK64, 4))


@_register("lwu")
def _lwu(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.memory.load((s.x[i.rs1] + i.imm) & MASK64, 4)


@_register("ld")
def _ld(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = s.memory.load((s.x[i.rs1] + i.imm) & MASK64, 8)


@_register("sb")
def _sb(s: ArchState, i: Instruction) -> None:
    s.memory.store((s.x[i.rs1] + i.imm) & MASK64, s.x[i.rs2], 1)


@_register("sh")
def _sh(s: ArchState, i: Instruction) -> None:
    s.memory.store((s.x[i.rs1] + i.imm) & MASK64, s.x[i.rs2], 2)


@_register("sw")
def _sw(s: ArchState, i: Instruction) -> None:
    s.memory.store((s.x[i.rs1] + i.imm) & MASK64, s.x[i.rs2], 4)


@_register("sd")
def _sd(s: ArchState, i: Instruction) -> None:
    s.memory.store((s.x[i.rs1] + i.imm) & MASK64, s.x[i.rs2], 8)


# ----------------------------------------------------------------------
# control flow
# ----------------------------------------------------------------------

@_register("beq")
def _beq(s: ArchState, i: Instruction) -> Optional[int]:
    return i.pc + i.imm if s.x[i.rs1] == s.x[i.rs2] else None


@_register("bne")
def _bne(s: ArchState, i: Instruction) -> Optional[int]:
    return i.pc + i.imm if s.x[i.rs1] != s.x[i.rs2] else None


@_register("blt")
def _blt(s: ArchState, i: Instruction) -> Optional[int]:
    if to_signed(s.x[i.rs1]) < to_signed(s.x[i.rs2]):
        return i.pc + i.imm
    return None


@_register("bge")
def _bge(s: ArchState, i: Instruction) -> Optional[int]:
    if to_signed(s.x[i.rs1]) >= to_signed(s.x[i.rs2]):
        return i.pc + i.imm
    return None


@_register("bltu")
def _bltu(s: ArchState, i: Instruction) -> Optional[int]:
    return i.pc + i.imm if s.x[i.rs1] < s.x[i.rs2] else None


@_register("bgeu")
def _bgeu(s: ArchState, i: Instruction) -> Optional[int]:
    return i.pc + i.imm if s.x[i.rs1] >= s.x[i.rs2] else None


@_register("jal")
def _jal(s: ArchState, i: Instruction) -> int:
    if i.rd:
        s.x[i.rd] = (i.pc + 4) & MASK64
    return i.pc + i.imm


@_register("jalr")
def _jalr(s: ArchState, i: Instruction) -> int:
    target = (s.x[i.rs1] + i.imm) & MASK64 & ~1
    if i.rd:
        s.x[i.rd] = (i.pc + 4) & MASK64
    return target


# ----------------------------------------------------------------------
# system
# ----------------------------------------------------------------------

@_register("ecall")
def _ecall(s: ArchState, i: Instruction) -> None:
    handle_ecall(s)


@_register("fence")
def _fence(s: ArchState, i: Instruction) -> None:
    return None


# ----------------------------------------------------------------------
# floating point (double precision)
# ----------------------------------------------------------------------

@_register("fld")
def _fld(s: ArchState, i: Instruction) -> None:
    s.f[i.rd] = s.memory.load_f64((s.x[i.rs1] + i.imm) & MASK64)


@_register("fsd")
def _fsd(s: ArchState, i: Instruction) -> None:
    s.memory.store_f64((s.x[i.rs1] + i.imm) & MASK64, s.f[i.rs2])


@_register("fadd.d")
def _fadd(s: ArchState, i: Instruction) -> None:
    value = s.f[i.rs1] + s.f[i.rs2]
    s.f[i.rd] = value if value == value else CANONICAL_NAN


@_register("fsub.d")
def _fsub(s: ArchState, i: Instruction) -> None:
    value = s.f[i.rs1] - s.f[i.rs2]
    s.f[i.rd] = value if value == value else CANONICAL_NAN


@_register("fmul.d")
def _fmul(s: ArchState, i: Instruction) -> None:
    value = s.f[i.rs1] * s.f[i.rs2]
    s.f[i.rd] = value if value == value else CANONICAL_NAN


@_register("fdiv.d")
def _fdiv(s: ArchState, i: Instruction) -> None:
    dividend, divisor = s.f[i.rs1], s.f[i.rs2]
    if divisor == 0.0:
        if dividend == 0.0 or math.isnan(dividend):
            s.f[i.rd] = CANONICAL_NAN
        else:
            s.f[i.rd] = math.copysign(math.inf, dividend) * \
                math.copysign(1.0, divisor)
    else:
        value = dividend / divisor
        s.f[i.rd] = value if value == value else CANONICAL_NAN


@_register("fsqrt.d")
def _fsqrt(s: ArchState, i: Instruction) -> None:
    value = s.f[i.rs1]
    s.f[i.rd] = (CANONICAL_NAN if value < 0.0 or value != value
                 else math.sqrt(value))


@_register("fsgnj.d")
def _fsgnj(s: ArchState, i: Instruction) -> None:
    s.f[i.rd] = math.copysign(abs(s.f[i.rs1]), s.f[i.rs2])


@_register("fsgnjn.d")
def _fsgnjn(s: ArchState, i: Instruction) -> None:
    s.f[i.rd] = math.copysign(abs(s.f[i.rs1]), -s.f[i.rs2])


@_register("fsgnjx.d")
def _fsgnjx(s: ArchState, i: Instruction) -> None:
    negative = (math.copysign(1.0, s.f[i.rs1])
                * math.copysign(1.0, s.f[i.rs2])) < 0
    s.f[i.rd] = -abs(s.f[i.rs1]) if negative else abs(s.f[i.rs1])


@_register("fmin.d")
def _fmin(s: ArchState, i: Instruction) -> None:
    a, b = s.f[i.rs1], s.f[i.rs2]
    if math.isnan(a):
        s.f[i.rd] = b
    elif math.isnan(b):
        s.f[i.rd] = a
    else:
        s.f[i.rd] = min(a, b)


@_register("fmax.d")
def _fmax(s: ArchState, i: Instruction) -> None:
    a, b = s.f[i.rs1], s.f[i.rs2]
    if math.isnan(a):
        s.f[i.rd] = b
    elif math.isnan(b):
        s.f[i.rd] = a
    else:
        s.f[i.rd] = max(a, b)


@_register("feq.d")
def _feq(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = 1 if s.f[i.rs1] == s.f[i.rs2] else 0


@_register("flt.d")
def _flt(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = 1 if s.f[i.rs1] < s.f[i.rs2] else 0


@_register("fle.d")
def _fle(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = 1 if s.f[i.rs1] <= s.f[i.rs2] else 0


def _float_to_int(value: float, low: int, high: int) -> int:
    """Convert toward zero with RISC-V saturation rules."""
    if math.isnan(value):
        return high
    if value <= low:
        return low
    if value >= high:
        return high
    return int(value)


@_register("fcvt.l.d")
def _fcvt_l_d(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _float_to_int(s.f[i.rs1], _INT64_MIN, _INT64_MAX) & MASK64


@_register("fcvt.w.d")
def _fcvt_w_d(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = _float_to_int(s.f[i.rs1], _INT32_MIN, _INT32_MAX) & MASK64


@_register("fcvt.d.l")
def _fcvt_d_l(s: ArchState, i: Instruction) -> None:
    s.f[i.rd] = float(to_signed(s.x[i.rs1]))


@_register("fcvt.d.w")
def _fcvt_d_w(s: ArchState, i: Instruction) -> None:
    s.f[i.rd] = float(to_signed(_sext32(s.x[i.rs1])))


@_register("fmv.d.x")
def _fmv_d_x(s: ArchState, i: Instruction) -> None:
    s.f[i.rd] = struct.unpack("<d", s.x[i.rs1].to_bytes(8, "little"))[0]


@_register("fmv.x.d")
def _fmv_x_d(s: ArchState, i: Instruction) -> None:
    if i.rd:
        s.x[i.rd] = int.from_bytes(struct.pack("<d", s.f[i.rs1]), "little")


@_register("fmadd.d")
def _fmadd(s: ArchState, i: Instruction) -> None:
    value = s.f[i.rs1] * s.f[i.rs2] + s.f[i.rs3]
    s.f[i.rd] = value if value == value else CANONICAL_NAN


@_register("fmsub.d")
def _fmsub(s: ArchState, i: Instruction) -> None:
    value = s.f[i.rs1] * s.f[i.rs2] - s.f[i.rs3]
    s.f[i.rd] = value if value == value else CANONICAL_NAN


@_register("fnmadd.d")
def _fnmadd(s: ArchState, i: Instruction) -> None:
    value = -(s.f[i.rs1] * s.f[i.rs2]) - s.f[i.rs3]
    s.f[i.rd] = value if value == value else CANONICAL_NAN


@_register("fnmsub.d")
def _fnmsub(s: ArchState, i: Instruction) -> None:
    value = -(s.f[i.rs1] * s.f[i.rs2]) + s.f[i.rs3]
    s.f[i.rd] = value if value == value else CANONICAL_NAN


def semantics_for(instr: Instruction) -> SemanticFn:
    """Semantic function for ``instr``, as a simulation-level failure.

    An unknown mnemonic surfaces as :class:`SimulationError` carrying the
    faulting pc — a diagnosable simulation fault rather than a bare
    ``KeyError`` escaping the dispatch table.
    """
    fn = SEMANTICS.get(instr.mnemonic)
    if fn is None:
        raise SimulationError(
            f"unknown opcode {instr.mnemonic!r} at pc 0x{instr.pc:x}")
    return fn


def missing_semantics() -> list[str]:
    """Mnemonics present in the ISA table but lacking semantics (should be [])."""
    from repro.isa.instructions import SPECS

    return sorted(set(SPECS) - set(SEMANTICS))
