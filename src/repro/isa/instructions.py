"""Instruction definitions for the RV64IM+FD subset used by this study.

Two layers live here:

* :class:`OpSpec` — the static description of each mnemonic: assembly
  format, binary encoding fields, operand register classes, and the
  microarchitectural :class:`OpClass` that determines which issue queue and
  functional unit the instruction uses in the detailed core.
* :class:`Instruction` — one decoded instruction instance (mnemonic plus
  concrete operands), shared by the functional simulator, the profiler, and
  the detailed out-of-order core.  Programs are decoded once at assembly
  time, so the simulators never re-decode.

The subset covers everything the eleven workload generators emit: the full
RV64I base integer ISA, the M extension (multiply/divide), and a
double-precision floating-point group (loads/stores, arithmetic, fused
multiply-add, compares, conversions, sign-injection, min/max).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import IsaError


class OpClass(enum.Enum):
    """Microarchitectural class: selects issue queue and functional unit."""

    ALU = "alu"              # single-cycle integer ops, LUI/AUIPC
    MUL = "mul"              # integer multiply (pipelined, 3 cycles)
    DIV = "div"              # integer divide (iterative, unpipelined)
    BRANCH = "branch"        # conditional branches
    JAL = "jal"              # direct jumps
    JALR = "jalr"            # indirect jumps
    LOAD = "load"            # integer loads
    STORE = "store"          # integer stores
    FP_LOAD = "fp_load"      # FP loads
    FP_STORE = "fp_store"    # FP stores
    FP_ALU = "fp_alu"        # FP add/sub/compare/sign-inject/min/max/move
    FP_MUL = "fp_mul"        # FP multiply and fused multiply-add
    FP_DIV = "fp_div"        # FP divide / sqrt (iterative)
    FP_CVT = "fp_cvt"        # int<->FP conversions
    SYSTEM = "system"        # ecall / fence — serializing

    @property
    def issue_queue(self) -> str:
        """Which of BOOM's three distributed issue queues services this op."""
        return _ISSUE_QUEUE[self]

    @property
    def is_memory(self) -> bool:
        return self in _MEMORY_CLASSES

    @property
    def is_control(self) -> bool:
        return self in (OpClass.BRANCH, OpClass.JAL, OpClass.JALR)


_MEMORY_CLASSES = (OpClass.LOAD, OpClass.STORE, OpClass.FP_LOAD,
                   OpClass.FP_STORE)

_ISSUE_QUEUE: dict[OpClass, str] = {
    OpClass.ALU: "int",
    OpClass.MUL: "int",
    OpClass.DIV: "int",
    OpClass.BRANCH: "int",
    OpClass.JAL: "int",
    OpClass.JALR: "int",
    OpClass.LOAD: "mem",
    OpClass.STORE: "mem",
    OpClass.FP_LOAD: "mem",
    OpClass.FP_STORE: "mem",
    OpClass.FP_ALU: "fp",
    OpClass.FP_MUL: "fp",
    OpClass.FP_DIV: "fp",
    OpClass.FP_CVT: "fp",
    OpClass.SYSTEM: "int",
}


class Fmt(enum.Enum):
    """Assembly/encoding format of an instruction."""

    R = "r"            # op rd, rs1, rs2
    R2 = "r2"          # op rd, rs1            (unary FP: fsqrt, fcvt, fmv)
    R4 = "r4"          # op rd, rs1, rs2, rs3  (fused multiply-add)
    I = "i"            # op rd, rs1, imm
    I_SHIFT = "ish"    # op rd, rs1, shamt
    I_MEM = "imem"     # op rd, imm(rs1)
    S = "s"            # op rs2, imm(rs1)
    B = "b"            # op rs1, rs2, target
    U = "u"            # op rd, imm20
    J = "j"            # op rd, target
    I_JALR = "ijalr"   # op rd, imm(rs1)
    NONE = "none"      # op            (ecall, fence)


# Register-class codes for operand fields: "" (absent), "x", "f".
@dataclass(frozen=True)
class OpSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    fmt: Fmt
    opclass: OpClass
    opcode: int
    funct3: int | None = None
    funct7: int | None = None
    #: register class of rd / rs1 / rs2 / rs3 ("", "x", or "f")
    dst: str = ""
    src1: str = ""
    src2: str = ""
    src3: str = ""


def _r(mn: str, cls: OpClass, opcode: int, f3: int, f7: int,
       dst: str = "x", src1: str = "x", src2: str = "x") -> OpSpec:
    return OpSpec(mn, Fmt.R, cls, opcode, f3, f7, dst, src1, src2)


def _i(mn: str, cls: OpClass, opcode: int, f3: int,
       dst: str = "x", src1: str = "x") -> OpSpec:
    return OpSpec(mn, Fmt.I, cls, opcode, f3, None, dst, src1)


OPCODE_OP = 0x33
OPCODE_OP_32 = 0x3B
OPCODE_OP_IMM = 0x13
OPCODE_OP_IMM_32 = 0x1B
OPCODE_LOAD = 0x03
OPCODE_STORE = 0x23
OPCODE_BRANCH = 0x63
OPCODE_JAL = 0x6F
OPCODE_JALR = 0x67
OPCODE_LUI = 0x37
OPCODE_AUIPC = 0x17
OPCODE_SYSTEM = 0x73
OPCODE_MISC_MEM = 0x0F
OPCODE_LOAD_FP = 0x07
OPCODE_STORE_FP = 0x27
OPCODE_OP_FP = 0x53
OPCODE_FMADD = 0x43
OPCODE_FMSUB = 0x47
OPCODE_FNMSUB = 0x4B
OPCODE_FNMADD = 0x4F


_SPEC_LIST: tuple[OpSpec, ...] = (
    # ---- RV64I register-register ----
    _r("add", OpClass.ALU, OPCODE_OP, 0x0, 0x00),
    _r("sub", OpClass.ALU, OPCODE_OP, 0x0, 0x20),
    _r("sll", OpClass.ALU, OPCODE_OP, 0x1, 0x00),
    _r("slt", OpClass.ALU, OPCODE_OP, 0x2, 0x00),
    _r("sltu", OpClass.ALU, OPCODE_OP, 0x3, 0x00),
    _r("xor", OpClass.ALU, OPCODE_OP, 0x4, 0x00),
    _r("srl", OpClass.ALU, OPCODE_OP, 0x5, 0x00),
    _r("sra", OpClass.ALU, OPCODE_OP, 0x5, 0x20),
    _r("or", OpClass.ALU, OPCODE_OP, 0x6, 0x00),
    _r("and", OpClass.ALU, OPCODE_OP, 0x7, 0x00),
    _r("addw", OpClass.ALU, OPCODE_OP_32, 0x0, 0x00),
    _r("subw", OpClass.ALU, OPCODE_OP_32, 0x0, 0x20),
    _r("sllw", OpClass.ALU, OPCODE_OP_32, 0x1, 0x00),
    _r("srlw", OpClass.ALU, OPCODE_OP_32, 0x5, 0x00),
    _r("sraw", OpClass.ALU, OPCODE_OP_32, 0x5, 0x20),
    # ---- RV64M ----
    _r("mul", OpClass.MUL, OPCODE_OP, 0x0, 0x01),
    _r("mulh", OpClass.MUL, OPCODE_OP, 0x1, 0x01),
    _r("mulhu", OpClass.MUL, OPCODE_OP, 0x3, 0x01),
    _r("mulw", OpClass.MUL, OPCODE_OP_32, 0x0, 0x01),
    _r("div", OpClass.DIV, OPCODE_OP, 0x4, 0x01),
    _r("divu", OpClass.DIV, OPCODE_OP, 0x5, 0x01),
    _r("rem", OpClass.DIV, OPCODE_OP, 0x6, 0x01),
    _r("remu", OpClass.DIV, OPCODE_OP, 0x7, 0x01),
    _r("divw", OpClass.DIV, OPCODE_OP_32, 0x4, 0x01),
    _r("divuw", OpClass.DIV, OPCODE_OP_32, 0x5, 0x01),
    _r("remw", OpClass.DIV, OPCODE_OP_32, 0x6, 0x01),
    _r("remuw", OpClass.DIV, OPCODE_OP_32, 0x7, 0x01),
    # ---- immediates ----
    _i("addi", OpClass.ALU, OPCODE_OP_IMM, 0x0),
    _i("slti", OpClass.ALU, OPCODE_OP_IMM, 0x2),
    _i("sltiu", OpClass.ALU, OPCODE_OP_IMM, 0x3),
    _i("xori", OpClass.ALU, OPCODE_OP_IMM, 0x4),
    _i("ori", OpClass.ALU, OPCODE_OP_IMM, 0x6),
    _i("andi", OpClass.ALU, OPCODE_OP_IMM, 0x7),
    _i("addiw", OpClass.ALU, OPCODE_OP_IMM_32, 0x0),
    OpSpec("slli", Fmt.I_SHIFT, OpClass.ALU, OPCODE_OP_IMM, 0x1, 0x00,
           "x", "x"),
    OpSpec("srli", Fmt.I_SHIFT, OpClass.ALU, OPCODE_OP_IMM, 0x5, 0x00,
           "x", "x"),
    OpSpec("srai", Fmt.I_SHIFT, OpClass.ALU, OPCODE_OP_IMM, 0x5, 0x10,
           "x", "x"),
    OpSpec("slliw", Fmt.I_SHIFT, OpClass.ALU, OPCODE_OP_IMM_32, 0x1, 0x00,
           "x", "x"),
    OpSpec("srliw", Fmt.I_SHIFT, OpClass.ALU, OPCODE_OP_IMM_32, 0x5, 0x00,
           "x", "x"),
    OpSpec("sraiw", Fmt.I_SHIFT, OpClass.ALU, OPCODE_OP_IMM_32, 0x5, 0x10,
           "x", "x"),
    # ---- upper immediates ----
    OpSpec("lui", Fmt.U, OpClass.ALU, OPCODE_LUI, dst="x"),
    OpSpec("auipc", Fmt.U, OpClass.ALU, OPCODE_AUIPC, dst="x"),
    # ---- loads / stores ----
    OpSpec("lb", Fmt.I_MEM, OpClass.LOAD, OPCODE_LOAD, 0x0, None, "x", "x"),
    OpSpec("lh", Fmt.I_MEM, OpClass.LOAD, OPCODE_LOAD, 0x1, None, "x", "x"),
    OpSpec("lw", Fmt.I_MEM, OpClass.LOAD, OPCODE_LOAD, 0x2, None, "x", "x"),
    OpSpec("ld", Fmt.I_MEM, OpClass.LOAD, OPCODE_LOAD, 0x3, None, "x", "x"),
    OpSpec("lbu", Fmt.I_MEM, OpClass.LOAD, OPCODE_LOAD, 0x4, None, "x", "x"),
    OpSpec("lhu", Fmt.I_MEM, OpClass.LOAD, OPCODE_LOAD, 0x5, None, "x", "x"),
    OpSpec("lwu", Fmt.I_MEM, OpClass.LOAD, OPCODE_LOAD, 0x6, None, "x", "x"),
    OpSpec("sb", Fmt.S, OpClass.STORE, OPCODE_STORE, 0x0, None,
           "", "x", "x"),
    OpSpec("sh", Fmt.S, OpClass.STORE, OPCODE_STORE, 0x1, None,
           "", "x", "x"),
    OpSpec("sw", Fmt.S, OpClass.STORE, OPCODE_STORE, 0x2, None,
           "", "x", "x"),
    OpSpec("sd", Fmt.S, OpClass.STORE, OPCODE_STORE, 0x3, None,
           "", "x", "x"),
    # ---- control flow ----
    OpSpec("beq", Fmt.B, OpClass.BRANCH, OPCODE_BRANCH, 0x0, None,
           "", "x", "x"),
    OpSpec("bne", Fmt.B, OpClass.BRANCH, OPCODE_BRANCH, 0x1, None,
           "", "x", "x"),
    OpSpec("blt", Fmt.B, OpClass.BRANCH, OPCODE_BRANCH, 0x4, None,
           "", "x", "x"),
    OpSpec("bge", Fmt.B, OpClass.BRANCH, OPCODE_BRANCH, 0x5, None,
           "", "x", "x"),
    OpSpec("bltu", Fmt.B, OpClass.BRANCH, OPCODE_BRANCH, 0x6, None,
           "", "x", "x"),
    OpSpec("bgeu", Fmt.B, OpClass.BRANCH, OPCODE_BRANCH, 0x7, None,
           "", "x", "x"),
    OpSpec("jal", Fmt.J, OpClass.JAL, OPCODE_JAL, None, None, "x"),
    OpSpec("jalr", Fmt.I_JALR, OpClass.JALR, OPCODE_JALR, 0x0, None,
           "x", "x"),
    # ---- system ----
    OpSpec("ecall", Fmt.NONE, OpClass.SYSTEM, OPCODE_SYSTEM, 0x0),
    OpSpec("fence", Fmt.NONE, OpClass.SYSTEM, OPCODE_MISC_MEM, 0x0),
    # ---- FP loads / stores (double precision) ----
    OpSpec("fld", Fmt.I_MEM, OpClass.FP_LOAD, OPCODE_LOAD_FP, 0x3, None,
           "f", "x"),
    OpSpec("fsd", Fmt.S, OpClass.FP_STORE, OPCODE_STORE_FP, 0x3, None,
           "", "x", "f"),
    # ---- FP arithmetic (double precision) ----
    _r("fadd.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x7, 0x01, "f", "f", "f"),
    _r("fsub.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x7, 0x05, "f", "f", "f"),
    _r("fmul.d", OpClass.FP_MUL, OPCODE_OP_FP, 0x7, 0x09, "f", "f", "f"),
    _r("fdiv.d", OpClass.FP_DIV, OPCODE_OP_FP, 0x7, 0x0D, "f", "f", "f"),
    OpSpec("fsqrt.d", Fmt.R2, OpClass.FP_DIV, OPCODE_OP_FP, 0x7, 0x2D,
           "f", "f"),
    _r("fsgnj.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x0, 0x11, "f", "f", "f"),
    _r("fsgnjn.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x1, 0x11, "f", "f", "f"),
    _r("fsgnjx.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x2, 0x11, "f", "f", "f"),
    _r("fmin.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x0, 0x15, "f", "f", "f"),
    _r("fmax.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x1, 0x15, "f", "f", "f"),
    # FP compares write an integer register.
    _r("feq.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x2, 0x51, "x", "f", "f"),
    _r("flt.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x1, 0x51, "x", "f", "f"),
    _r("fle.d", OpClass.FP_ALU, OPCODE_OP_FP, 0x0, 0x51, "x", "f", "f"),
    # Conversions and moves between register files.
    OpSpec("fcvt.d.l", Fmt.R2, OpClass.FP_CVT, OPCODE_OP_FP, 0x7, 0x69,
           "f", "x"),
    OpSpec("fcvt.d.w", Fmt.R2, OpClass.FP_CVT, OPCODE_OP_FP, 0x7, 0x69,
           "f", "x"),
    OpSpec("fcvt.l.d", Fmt.R2, OpClass.FP_CVT, OPCODE_OP_FP, 0x1, 0x61,
           "x", "f"),
    OpSpec("fcvt.w.d", Fmt.R2, OpClass.FP_CVT, OPCODE_OP_FP, 0x1, 0x61,
           "x", "f"),
    OpSpec("fmv.d.x", Fmt.R2, OpClass.FP_CVT, OPCODE_OP_FP, 0x0, 0x79,
           "f", "x"),
    OpSpec("fmv.x.d", Fmt.R2, OpClass.FP_CVT, OPCODE_OP_FP, 0x0, 0x71,
           "x", "f"),
    # Fused multiply-add family.
    OpSpec("fmadd.d", Fmt.R4, OpClass.FP_MUL, OPCODE_FMADD, None, 0x01,
           "f", "f", "f", "f"),
    OpSpec("fmsub.d", Fmt.R4, OpClass.FP_MUL, OPCODE_FMSUB, None, 0x01,
           "f", "f", "f", "f"),
    OpSpec("fnmadd.d", Fmt.R4, OpClass.FP_MUL, OPCODE_FNMADD, None, 0x01,
           "f", "f", "f", "f"),
    OpSpec("fnmsub.d", Fmt.R4, OpClass.FP_MUL, OPCODE_FNMSUB, None, 0x01,
           "f", "f", "f", "f"),
)

#: Lookup table: mnemonic -> OpSpec.
SPECS: dict[str, OpSpec] = {spec.mnemonic: spec for spec in _SPEC_LIST}


def spec_for(mnemonic: str) -> OpSpec:
    """Return the :class:`OpSpec` for ``mnemonic`` or raise :class:`IsaError`."""
    try:
        return SPECS[mnemonic]
    except KeyError:
        raise IsaError(f"unknown mnemonic: {mnemonic!r}") from None


class Instruction:
    """One decoded instruction instance.

    Instances are immutable in practice (the simulators never mutate them)
    and shared freely between the functional simulator, the profiler and the
    detailed core.  ``pc`` is filled in when the program is linked.
    """

    __slots__ = ("mnemonic", "spec", "opclass", "rd", "rs1", "rs2", "rs3",
                 "imm", "pc")

    def __init__(self, mnemonic: str, rd: int = 0, rs1: int = 0,
                 rs2: int = 0, rs3: int = 0, imm: int = 0,
                 pc: int = 0) -> None:
        self.mnemonic = mnemonic
        self.spec = spec_for(mnemonic)
        self.opclass = self.spec.opclass
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.rs3 = rs3
        self.imm = imm
        self.pc = pc

    # -- classification helpers used by the detailed core --------------

    @property
    def is_control(self) -> bool:
        return self.opclass.is_control

    @property
    def is_memory(self) -> bool:
        return self.opclass.is_memory

    @property
    def is_load(self) -> bool:
        return self.opclass in (OpClass.LOAD, OpClass.FP_LOAD)

    @property
    def is_store(self) -> bool:
        return self.opclass in (OpClass.STORE, OpClass.FP_STORE)

    @property
    def writes_x(self) -> bool:
        return self.spec.dst == "x" and self.rd != 0

    @property
    def writes_f(self) -> bool:
        return self.spec.dst == "f"

    def source_regs(self) -> tuple[tuple[str, int], ...]:
        """The (register class, index) pairs this instruction reads.

        Reads of ``x0`` are dropped: the zero register is not a physical
        register in BOOM's merged register file.
        """
        sources: list[tuple[str, int]] = []
        spec = self.spec
        if spec.src1 and not (spec.src1 == "x" and self.rs1 == 0):
            sources.append((spec.src1, self.rs1))
        if spec.src2 and not (spec.src2 == "x" and self.rs2 == 0):
            sources.append((spec.src2, self.rs2))
        if spec.src3:
            sources.append((spec.src3, self.rs3))
        return tuple(sources)

    def __repr__(self) -> str:
        return (f"Instruction({self.mnemonic!r}, rd={self.rd}, "
                f"rs1={self.rs1}, rs2={self.rs2}, imm={self.imm}, "
                f"pc=0x{self.pc:x})")
