"""Property tests at the program level: images, symbols, linking."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.isa.encoding import decode
from repro.isa.program import DATA_BASE, Program, TEXT_BASE
from repro.sim.executor import Executor
from repro.workloads.suite import get_workload, workload_names


def test_text_image_roundtrips_through_decoder():
    """encode_text() must decode back to the same instruction stream."""
    program = assemble("""
        .data
    v: .dword 1
        .text
    _start:
        la  t0, v
        ld  t1, 0(t0)
        li  t2, 0x12345678
        beq t1, t2, out
        jal ra, out
    out:
        fcvt.d.l fa0, t1
        fmadd.d fa1, fa0, fa0, fa0
        li a7, 93
        ecall
    """)
    image = program.encode_text()
    assert len(image) == 4 * len(program.instructions)
    for index, instr in enumerate(program.instructions):
        word = int.from_bytes(image[4 * index:4 * index + 4], "little")
        redecoded = decode(word, pc=TEXT_BASE + 4 * index)
        assert redecoded.mnemonic == instr.mnemonic
        assert redecoded.rd == instr.rd
        assert redecoded.imm == instr.imm


@pytest.mark.parametrize("name", workload_names())
def test_workload_text_images_roundtrip(name):
    """Every generated workload is real, decodable machine code."""
    from repro.workloads.suite import build_program

    program = build_program(name, scale=0.03)
    image = program.encode_text()
    for index in range(0, min(len(program), 400)):
        word = int.from_bytes(image[4 * index:4 * index + 4], "little")
        assert decode(word).mnemonic == \
            program.instructions[index].mnemonic


def test_instruction_pcs_are_sequential():
    program = assemble("_start: nop\n nop\n nop")
    assert [i.pc for i in program.instructions] == \
        [TEXT_BASE, TEXT_BASE + 4, TEXT_BASE + 8]


def test_fetch_past_text_and_missing_symbol_raise():
    program = assemble("_start: nop")
    # the nop falls through to TEXT_BASE + 4, past the text segment
    for dispatch in ("superblock", "reference"):
        with pytest.raises(SimulationError, match="left text segment"):
            Executor(program, dispatch=dispatch).run(max_instructions=5)
    with pytest.raises(SimulationError):
        program.symbol("missing")


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
                min_size=1, max_size=8))
def test_data_dwords_load_back(values):
    """Arbitrary .dword data appears in memory byte-exactly."""
    from repro.sim.state import ArchState

    rendered = ", ".join(str(v & ((1 << 64) - 1)) for v in values)
    program = assemble(f"""
        .data
    table: .dword {rendered}
        .text
    _start:
        nop
    """)
    state = ArchState.for_program(program)
    for index, value in enumerate(values):
        loaded = state.memory.load(DATA_BASE + 8 * index, 8)
        assert loaded == value & ((1 << 64) - 1)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=1_000_000))
def test_li_materializes_any_value(value):
    from repro.sim.executor import Executor

    program = assemble(f"""
    _start:
        li a0, {value}
        li a7, 93
        ecall
    """)
    executor = Executor(program)
    executor.run_to_completion()
    assert executor.state.x[10] == value
