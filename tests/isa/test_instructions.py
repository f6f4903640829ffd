"""Unit tests for the instruction table and classification logic."""

import pytest

from repro.errors import IsaError
from repro.isa.instructions import (
    Instruction,
    OpClass,
    SPECS,
    spec_for,
)


def test_every_spec_has_consistent_mnemonic_key():
    for mnemonic, spec in SPECS.items():
        assert spec.mnemonic == mnemonic


def test_unknown_mnemonic_raises():
    with pytest.raises(IsaError):
        spec_for("bogus")
    with pytest.raises(IsaError):
        Instruction("vadd.vv")


def test_issue_queue_routing():
    assert Instruction("add").opclass.issue_queue == "int"
    assert Instruction("mul").opclass.issue_queue == "int"
    assert Instruction("beq").opclass.issue_queue == "int"
    assert Instruction("ld").opclass.issue_queue == "mem"
    assert Instruction("sd").opclass.issue_queue == "mem"
    assert Instruction("fld").opclass.issue_queue == "mem"
    assert Instruction("fsd").opclass.issue_queue == "mem"
    assert Instruction("fadd.d").opclass.issue_queue == "fp"
    assert Instruction("fmadd.d").opclass.issue_queue == "fp"
    assert Instruction("fcvt.d.l").opclass.issue_queue == "fp"


def test_memory_classification():
    assert Instruction("lw").is_load
    assert Instruction("fld").is_load
    assert Instruction("sw").is_store
    assert Instruction("fsd").is_store
    assert Instruction("lw").is_memory
    assert not Instruction("add").is_memory


def test_control_classification():
    assert Instruction("beq").is_control
    assert Instruction("jal").is_control
    assert Instruction("jalr").is_control
    assert not Instruction("add").is_control


def test_destination_register_classes():
    assert Instruction("add", rd=5).writes_x
    assert not Instruction("add", rd=0).writes_x  # x0 is not renamed
    assert Instruction("fadd.d", rd=0).writes_f   # f0 is a real register
    assert not Instruction("sd").writes_x
    # FP compare writes an integer register.
    assert Instruction("feq.d", rd=3).writes_x
    assert not Instruction("feq.d", rd=3).writes_f


def test_source_registers_drop_x0():
    instr = Instruction("add", rd=1, rs1=0, rs2=7)
    assert instr.source_regs() == (("x", 7),)
    instr = Instruction("add", rd=1, rs1=3, rs2=4)
    assert instr.source_regs() == (("x", 3), ("x", 4))


def test_source_registers_fp_and_mixed():
    fsd = Instruction("fsd", rs1=2, rs2=9)
    assert fsd.source_regs() == (("x", 2), ("f", 9))
    fmadd = Instruction("fmadd.d", rd=1, rs1=2, rs2=3, rs3=4)
    assert fmadd.source_regs() == (("f", 2), ("f", 3), ("f", 4))
    # fcvt.d.l reads an integer register and writes FP.
    cvt = Instruction("fcvt.d.l", rd=1, rs1=5)
    assert cvt.source_regs() == (("x", 5),)
    assert cvt.writes_f


def test_fp_opclass_flags():
    assert OpClass.FP_MUL.issue_queue == "fp"
    assert OpClass.FP_LOAD.issue_queue == "mem"  # it is a memory op
    assert OpClass.FP_LOAD.is_memory
    assert not OpClass.ALU.is_memory


def test_repr_is_informative():
    text = repr(Instruction("addi", rd=1, rs1=2, imm=-5))
    assert "addi" in text
    assert "rd=1" in text
