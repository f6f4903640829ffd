"""A two-pass RISC-V assembler for the RV64IM+FD subset.

The eleven workload generators in :mod:`repro.workloads` emit textual
assembly; this module turns it into a linked :class:`~repro.isa.program.Program`
with pre-decoded instructions.  Supported surface syntax:

* all real mnemonics from :mod:`repro.isa.instructions`,
* the common pseudo-instructions (``li``, ``la``, ``mv``, ``j``, ``call``,
  ``ret``, ``beqz``/``bnez``/``bgt``/``ble``..., ``not``/``neg``/``seqz``...,
  ``fmv.d``/``fneg.d``/``fabs.d``, ``nop``),
* labels (``name:``), ``#`` and ``//`` comments, ``;`` statement separators,
* data directives: ``.byte``, ``.half``, ``.word``, ``.dword``, ``.double``,
  ``.space``, ``.asciz``, ``.align``, and the ``.text`` / ``.data`` section
  switches (``.globl`` is accepted and ignored).

Example::

    from repro.isa.assembler import assemble

    program = assemble('''
        .data
    counter: .dword 0
        .text
    _start:
        la   t0, counter
        li   t1, 10
    loop:
        addi t1, t1, -1
        bnez t1, loop
        sd   t1, 0(t0)
        li   a7, 93        # exit syscall
        ecall
    ''')
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import AssemblerError
from repro.isa.instructions import Fmt, Instruction, spec_for, SPECS
from repro.isa.program import DATA_BASE, Program, TEXT_BASE
from repro.isa.registers import (
    freg_index,
    is_freg_name,
    is_xreg_name,
    xreg_index,
)

_RA = 1  # the return-address register x1


@dataclass
class _Pending:
    """One real instruction awaiting symbol resolution.

    ``target`` carries an unresolved label with a relocation ``reloc``:
    ``"pcrel"`` (branch / jal offsets), ``"hi"`` / ``"lo"`` (the two halves
    of a ``la`` expansion), or ``None`` for fully numeric operands.
    """

    mnemonic: str
    line: int
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    rs3: int = 0
    imm: int = 0
    target: str | None = None
    reloc: str | None = None


@dataclass
class _Sections:
    text: list[_Pending] = field(default_factory=list)
    data: bytearray = field(default_factory=bytearray)
    labels: dict[str, tuple[str, int]] = field(default_factory=dict)


def _strip_comment(line: str) -> str:
    for marker in ("#", "//"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _parse_int(token: str, line: int) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"expected integer, got {token!r}", line) from None


def _split_operands(rest: str) -> list[str]:
    """Split an operand string on commas.

    Each operand is stripped; an empty operand between commas is kept,
    an empty one after the last comma is dropped.  No valid operand
    holds a comma (``imm(reg)`` is the only parenthesized form), so a
    comma inside parentheses just splits a malformed operand, which the
    operand-count or ``imm(reg)`` check then rejects.
    """
    operands = [operand.strip() for operand in rest.split(",")]
    if not operands[-1]:
        operands.pop()
    return operands


class Assembler:
    """Two-pass assembler producing linked :class:`Program` objects."""

    def assemble(self, source: str, name: str = "program") -> Program:
        sections = self._first_pass(source)
        symbols = self._resolve_symbols(sections)
        instructions = self._second_pass(sections, symbols)
        entry = symbols.get("_start", TEXT_BASE)
        return Program(instructions=instructions, data=bytes(sections.data),
                       symbols=symbols, entry=entry, name=name)

    # ------------------------------------------------------------------
    # pass 1: parse, expand pseudos, lay out data
    # ------------------------------------------------------------------

    def _first_pass(self, source: str) -> _Sections:
        sections = _Sections()
        section = "text"
        for line_number, raw_line in enumerate(source.splitlines(), start=1):
            line = _strip_comment(raw_line)
            if not line:
                continue
            for statement in line.split(";"):
                statement = statement.strip()
                if statement:
                    section = self._statement(statement, section, sections,
                                              line_number)
        return sections

    def _statement(self, statement: str, section: str, sections: _Sections,
                   line: int) -> str:
        while ":" in statement:
            label, _, statement = statement.partition(":")
            label = label.strip()
            if not label:
                raise AssemblerError("empty label", line)
            if label in sections.labels:
                raise AssemblerError(f"duplicate label {label!r}", line)
            offset = (len(sections.text) * 4 if section == "text"
                      else len(sections.data))
            sections.labels[label] = (section, offset)
            statement = statement.strip()
        if not statement:
            return section
        if statement.startswith("."):
            return self._directive(statement, section, sections, line)
        if section != "text":
            raise AssemblerError("instruction outside .text section", line)
        head, _, rest = statement.partition(" ")
        operands = _split_operands(rest)
        sections.text.extend(self._expand(head.strip(), operands, line))
        return section

    def _directive(self, statement: str, section: str, sections: _Sections,
                   line: int) -> str:
        head, _, rest = statement.partition(" ")
        directive = head.strip()
        rest = rest.strip()
        if directive == ".text":
            return "text"
        if directive == ".data":
            return "data"
        if directive in (".globl", ".global", ".section", ".option"):
            return section
        if section != "data":
            raise AssemblerError(f"{directive} only allowed in .data", line)
        data = sections.data
        if directive in (".byte", ".half", ".word", ".dword"):
            width = {".byte": 1, ".half": 2, ".word": 4, ".dword": 8}[directive]
            for token in _split_operands(rest):
                value = _parse_int(token, line) & ((1 << (8 * width)) - 1)
                data += value.to_bytes(width, "little")
        elif directive == ".double":
            for token in _split_operands(rest):
                try:
                    value = float(token)
                except ValueError:
                    raise AssemblerError(f"bad float {token!r}", line) from None
                data += struct.pack("<d", value)
        elif directive == ".space":
            count = _parse_int(rest, line)
            if count < 0:
                raise AssemblerError(".space size must be >= 0", line)
            data += bytes(count)
        elif directive == ".asciz":
            text = rest.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise AssemblerError(".asciz needs a quoted string", line)
            body = text[1:-1].encode().decode("unicode_escape")
            data += body.encode() + b"\x00"
        elif directive == ".align":
            power = _parse_int(rest, line)
            alignment = 1 << power
            while len(data) % alignment:
                data += b"\x00"
        else:
            raise AssemblerError(f"unknown directive {directive!r}", line)
        return section

    # ------------------------------------------------------------------
    # pseudo-instruction expansion
    # ------------------------------------------------------------------

    _SIMPLE_PSEUDOS = {
        # mnemonic -> (real, operand template); template entries refer to
        # parsed operands o0, o1 or fixed registers/immediates.
        "nop": ("addi", []),
        "mv": ("addi", ["rd", "rs1"]),
        "not": ("xori", ["rd", "rs1"]),
        "neg": ("sub", ["rd", None, "rs2"]),
        "negw": ("subw", ["rd", None, "rs2"]),
        "sext.w": ("addiw", ["rd", "rs1"]),
        "seqz": ("sltiu", ["rd", "rs1"]),
        "snez": ("sltu", ["rd", None, "rs2"]),
        "sltz": ("slt", ["rd", "rs1", None]),
        "sgtz": ("slt", ["rd", None, "rs2"]),
    }

    _BRANCH_ZERO = {"beqz": "beq", "bnez": "bne", "bgez": "bge",
                    "bltz": "blt"}
    _BRANCH_ZERO_REV = {"blez": "bge", "bgtz": "blt"}
    _BRANCH_SWAP = {"bgt": "blt", "ble": "bge", "bgtu": "bltu",
                    "bleu": "bgeu"}
    _FP_UNARY = {"fmv.d": "fsgnj.d", "fneg.d": "fsgnjn.d",
                 "fabs.d": "fsgnjx.d"}

    def _expand(self, mnemonic: str, operands: list[str],
                line: int) -> list[_Pending]:
        if mnemonic in SPECS:
            return [self._parse_real(mnemonic, operands, line)]
        if mnemonic == "li":
            self._expect(operands, 2, mnemonic, line)
            rd = self._xreg(operands[0], line)
            value = _parse_int(operands[1], line)
            return self._expand_li(rd, value, line)
        if mnemonic == "la":
            self._expect(operands, 2, mnemonic, line)
            rd = self._xreg(operands[0], line)
            symbol = operands[1]
            return [
                _Pending("lui", line, rd=rd, target=symbol, reloc="hi"),
                _Pending("addiw", line, rd=rd, rs1=rd, target=symbol,
                         reloc="lo"),
            ]
        if mnemonic in self._SIMPLE_PSEUDOS:
            return [self._expand_simple(mnemonic, operands, line)]
        if mnemonic in self._BRANCH_ZERO:
            self._expect(operands, 2, mnemonic, line)
            return [_Pending(self._BRANCH_ZERO[mnemonic], line,
                             rs1=self._xreg(operands[0], line),
                             target=operands[1], reloc="pcrel")]
        if mnemonic in self._BRANCH_ZERO_REV:
            self._expect(operands, 2, mnemonic, line)
            return [_Pending(self._BRANCH_ZERO_REV[mnemonic], line,
                             rs2=self._xreg(operands[0], line),
                             target=operands[1], reloc="pcrel")]
        if mnemonic in self._BRANCH_SWAP:
            self._expect(operands, 3, mnemonic, line)
            return [_Pending(self._BRANCH_SWAP[mnemonic], line,
                             rs1=self._xreg(operands[1], line),
                             rs2=self._xreg(operands[0], line),
                             target=operands[2], reloc="pcrel")]
        if mnemonic in self._FP_UNARY:
            self._expect(operands, 2, mnemonic, line)
            rs = self._freg(operands[1], line)
            return [_Pending(self._FP_UNARY[mnemonic], line,
                             rd=self._freg(operands[0], line),
                             rs1=rs, rs2=rs)]
        if mnemonic == "j":
            self._expect(operands, 1, mnemonic, line)
            return [_Pending("jal", line, rd=0, target=operands[0],
                             reloc="pcrel")]
        if mnemonic == "call":
            self._expect(operands, 1, mnemonic, line)
            return [_Pending("jal", line, rd=_RA, target=operands[0],
                             reloc="pcrel")]
        if mnemonic == "jr":
            self._expect(operands, 1, mnemonic, line)
            return [_Pending("jalr", line, rd=0,
                             rs1=self._xreg(operands[0], line))]
        if mnemonic == "ret":
            self._expect(operands, 0, mnemonic, line)
            return [_Pending("jalr", line, rd=0, rs1=_RA)]
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line)

    def _expand_simple(self, mnemonic: str, operands: list[str],
                       line: int) -> _Pending:
        real, template = self._SIMPLE_PSEUDOS[mnemonic]
        pending = _Pending(real, line)
        if mnemonic == "nop":
            self._expect(operands, 0, mnemonic, line)
            return pending
        self._expect(operands, 2, mnemonic, line)
        pending.rd = self._xreg(operands[0], line)
        source = self._xreg(operands[1], line)
        if len(template) > 1 and template[1] == "rs1":
            pending.rs1 = source
        else:
            pending.rs2 = source
        if mnemonic == "not":
            pending.imm = -1
        elif mnemonic == "seqz":
            pending.imm = 1
        elif mnemonic == "sltz":
            pending.rs1 = source
        return pending

    def _expand_li(self, rd: int, value: int, line: int) -> list[_Pending]:
        value &= (1 << 64) - 1
        if value >= 1 << 63:
            value -= 1 << 64
        return self._materialize(rd, value, line)

    def _materialize(self, rd: int, value: int, line: int) -> list[_Pending]:
        if -2048 <= value < 2048:
            return [_Pending("addi", line, rd=rd, imm=value)]
        if -(1 << 31) <= value < (1 << 31):
            low = ((value & 0xFFF) ^ 0x800) - 0x800
            high20 = ((value - low) >> 12) & 0xFFFFF
            out = [_Pending("lui", line, rd=rd, imm=high20)]
            if low:
                out.append(_Pending("addiw", line, rd=rd, rs1=rd, imm=low))
            return out
        low = ((value & 0xFFF) ^ 0x800) - 0x800
        rest = (value - low) >> 12
        out = self._materialize(rd, rest, line)
        out.append(_Pending("slli", line, rd=rd, rs1=rd, imm=12))
        if low:
            out.append(_Pending("addi", line, rd=rd, rs1=rd, imm=low))
        return out

    # ------------------------------------------------------------------
    # real-instruction operand parsing
    # ------------------------------------------------------------------

    def _parse_real(self, mnemonic: str, operands: list[str],
                    line: int) -> _Pending:
        spec = spec_for(mnemonic)
        pending = _Pending(mnemonic, line)
        fmt = spec.fmt
        if fmt is Fmt.R:
            self._expect(operands, 3, mnemonic, line)
            pending.rd = self._reg(operands[0], spec.dst, line)
            pending.rs1 = self._reg(operands[1], spec.src1, line)
            pending.rs2 = self._reg(operands[2], spec.src2, line)
        elif fmt is Fmt.R2:
            self._expect(operands, 2, mnemonic, line)
            pending.rd = self._reg(operands[0], spec.dst, line)
            pending.rs1 = self._reg(operands[1], spec.src1, line)
        elif fmt is Fmt.R4:
            self._expect(operands, 4, mnemonic, line)
            pending.rd = self._freg(operands[0], line)
            pending.rs1 = self._freg(operands[1], line)
            pending.rs2 = self._freg(operands[2], line)
            pending.rs3 = self._freg(operands[3], line)
        elif fmt in (Fmt.I, Fmt.I_SHIFT):
            self._expect(operands, 3, mnemonic, line)
            pending.rd = self._xreg(operands[0], line)
            pending.rs1 = self._xreg(operands[1], line)
            pending.imm = _parse_int(operands[2], line)
        elif fmt is Fmt.I_MEM:
            self._expect(operands, 2, mnemonic, line)
            pending.rd = self._reg(operands[0], spec.dst, line)
            pending.imm, pending.rs1 = self._mem_operand(operands[1], line)
        elif fmt is Fmt.S:
            self._expect(operands, 2, mnemonic, line)
            pending.rs2 = self._reg(operands[0], spec.src2, line)
            pending.imm, pending.rs1 = self._mem_operand(operands[1], line)
        elif fmt is Fmt.B:
            self._expect(operands, 3, mnemonic, line)
            pending.rs1 = self._xreg(operands[0], line)
            pending.rs2 = self._xreg(operands[1], line)
            pending.target = operands[2]
            pending.reloc = "pcrel"
        elif fmt is Fmt.U:
            self._expect(operands, 2, mnemonic, line)
            pending.rd = self._xreg(operands[0], line)
            pending.imm = _parse_int(operands[1], line)
        elif fmt is Fmt.J:
            if len(operands) == 1:
                pending.rd = _RA
                pending.target = operands[0]
            else:
                self._expect(operands, 2, mnemonic, line)
                pending.rd = self._xreg(operands[0], line)
                pending.target = operands[1]
            pending.reloc = "pcrel"
        elif fmt is Fmt.I_JALR:
            if len(operands) == 1:
                pending.rd = _RA
                pending.rs1 = self._xreg(operands[0], line)
            elif len(operands) == 2:
                pending.rd = self._xreg(operands[0], line)
                pending.imm, pending.rs1 = self._mem_operand(operands[1], line)
            else:
                self._expect(operands, 3, mnemonic, line)
                pending.rd = self._xreg(operands[0], line)
                pending.rs1 = self._xreg(operands[1], line)
                pending.imm = _parse_int(operands[2], line)
        elif fmt is Fmt.NONE:
            self._expect(operands, 0, mnemonic, line)
        else:  # pragma: no cover - all formats handled above
            raise AssemblerError(f"unhandled format {fmt}", line)
        return pending

    def _mem_operand(self, token: str, line: int) -> tuple[int, int]:
        """Parse ``imm(reg)`` / ``(reg)`` into (imm, register index)."""
        token = token.strip()
        if not token.endswith(")") or "(" not in token:
            raise AssemblerError(f"expected imm(reg), got {token!r}", line)
        imm_text, _, reg_text = token[:-1].partition("(")
        imm = _parse_int(imm_text, line) if imm_text.strip() else 0
        return imm, self._xreg(reg_text, line)

    @staticmethod
    def _expect(operands: list[str], count: int, mnemonic: str,
                line: int) -> None:
        if len(operands) != count:
            raise AssemblerError(
                f"{mnemonic} expects {count} operands, got {len(operands)}",
                line)

    @staticmethod
    def _xreg(token: str, line: int) -> int:
        token = token.strip()
        if not is_xreg_name(token):
            raise AssemblerError(f"expected integer register, got {token!r}",
                                 line)
        return xreg_index(token)

    @staticmethod
    def _freg(token: str, line: int) -> int:
        token = token.strip()
        if not is_freg_name(token):
            raise AssemblerError(f"expected FP register, got {token!r}", line)
        return freg_index(token)

    def _reg(self, token: str, cls: str, line: int) -> int:
        if cls == "f":
            return self._freg(token, line)
        return self._xreg(token, line)

    # ------------------------------------------------------------------
    # pass 2: resolve symbols, emit decoded instructions
    # ------------------------------------------------------------------

    @staticmethod
    def _resolve_symbols(sections: _Sections) -> dict[str, int]:
        symbols: dict[str, int] = {}
        for label, (section, offset) in sections.labels.items():
            base = TEXT_BASE if section == "text" else DATA_BASE
            symbols[label] = base + offset
        return symbols

    def _second_pass(self, sections: _Sections,
                     symbols: dict[str, int]) -> list[Instruction]:
        instructions: list[Instruction] = []
        for index, pending in enumerate(sections.text):
            imm = pending.imm
            if pending.target is not None:
                if pending.target not in symbols:
                    raise AssemblerError(
                        f"undefined label {pending.target!r}", pending.line)
                address = symbols[pending.target]
                if pending.reloc == "pcrel":
                    imm = address - (TEXT_BASE + 4 * index)
                elif pending.reloc == "hi":
                    imm = ((address + 0x800) >> 12) & 0xFFFFF
                elif pending.reloc == "lo":
                    imm = ((address & 0xFFF) ^ 0x800) - 0x800
                else:  # pragma: no cover
                    raise AssemblerError(
                        f"unknown relocation {pending.reloc!r}", pending.line)
            instructions.append(Instruction(
                pending.mnemonic, rd=pending.rd, rs1=pending.rs1,
                rs2=pending.rs2, rs3=pending.rs3, imm=imm))
        return instructions


def assemble(source: str, name: str = "program") -> Program:
    """Assemble ``source`` into a linked :class:`Program`."""
    return Assembler().assemble(source, name=name)
