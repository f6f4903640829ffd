"""Integration tests for the functional executor."""

import pytest

from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.isa.program import DATA_BASE, STACK_TOP
from repro.sim.executor import Executor

EXIT = """
    li a7, 93
    ecall
"""


def run(source):
    executor = Executor(assemble(source))
    executor.run_to_completion()
    return executor.state


def test_simple_loop_sum():
    state = run(f"""
    _start:
        li t0, 0
        li t1, 100
    loop:
        add t0, t0, t1
        addi t1, t1, -1
        bnez t1, loop
        mv a0, t0
        {EXIT}
    """)
    assert state.x[10] & 0xFF == 5050 & 0xFF
    assert state.exited


def test_exit_code():
    state = run(f"_start: li a0, 42\n{EXIT}")
    assert state.exit_code == 42


def test_stack_pointer_initialized():
    state = run(f"""
    _start:
        mv a1, sp
        {EXIT}
    """)
    assert state.x[11] == STACK_TOP


def test_function_call_and_return():
    state = run(f"""
    _start:
        li a0, 5
        call square
        mv s0, a0
        li a0, 0
        {EXIT}
    square:
        mul a0, a0, a0
        ret
    """)
    assert state.x[8] == 25


def test_recursive_function():
    state = run(f"""
    _start:
        li a0, 10
        call fib
        mv s0, a0
        li a0, 0
        {EXIT}
    fib:
        li t0, 2
        blt a0, t0, base
        addi sp, sp, -24
        sd ra, 0(sp)
        sd s1, 8(sp)
        mv s1, a0
        addi a0, a0, -1
        call fib
        sd a0, 16(sp)
        addi a0, s1, -2
        call fib
        ld t1, 16(sp)
        add a0, a0, t1
        ld ra, 0(sp)
        ld s1, 8(sp)
        addi sp, sp, 24
        ret
    base:
        ret
    """)
    assert state.x[8] == 55  # fib(10)


def test_memory_store_load_roundtrip():
    state = run(f"""
        .data
    buf: .space 64
        .text
    _start:
        la t0, buf
        li t1, -123
        sd t1, 8(t0)
        ld a0, 8(t0)
        lw a1, 8(t0)
        lb a2, 8(t0)
        lbu a3, 8(t0)
        {EXIT}
    """)
    mask = (1 << 64) - 1
    assert state.x[10] == -123 & mask
    assert state.x[11] == -123 & mask  # lw sign-extends
    assert state.x[12] == -123 & mask  # lb sign-extends (0x85 -> -123)
    assert state.x[13] == 0x85


def test_max_instructions_stops_exactly():
    executor = Executor(assemble("""
    _start:
        li t0, 0
    loop:
        addi t0, t0, 1
        j loop
    """))
    retired = executor.run(max_instructions=1000)
    assert retired == 1000
    assert executor.state.retired == 1000
    assert not executor.state.exited
    # continue running: state is resumable
    retired = executor.run(max_instructions=500)
    assert retired == 500
    assert executor.state.retired == 1500


def test_run_after_exit_raises():
    executor = Executor(assemble(f"_start: li a0, 0\n{EXIT}"))
    executor.run_to_completion()
    with pytest.raises(SimulationError):
        executor.run()


def test_runaway_pc_raises():
    executor = Executor(assemble("_start: jr zero"))
    with pytest.raises(SimulationError):
        executor.run(max_instructions=10)


def test_run_to_completion_limit():
    executor = Executor(assemble("_start: j _start"))
    with pytest.raises(SimulationError):
        executor.run_to_completion(limit=100)


def test_control_hook_sees_dynamic_blocks():
    blocks = []
    executor = Executor(assemble(f"""
    _start:
        li t0, 3
    loop:
        addi t0, t0, -1
        bnez t0, loop
        li a0, 0
        {EXIT}
    """))
    executor.run(control_hook=lambda start, end: blocks.append((start, end)))
    # loop body executes 3 times: blocks ending at the bnez
    loop_blocks = [b for b in blocks if b[1] == 0x1008]
    assert len(loop_blocks) == 3
    # first block spans _start..bnez, later ones span loop..bnez
    assert loop_blocks[0][0] == 0x1000
    assert loop_blocks[1][0] == 0x1004
    # trailing block (li a0 / li a7 / ecall) is closed on exit
    assert blocks[-1][0] == 0x100C


def test_control_hook_block_instruction_counts():
    """Sum of block lengths equals retired instructions."""
    total = []
    executor = Executor(assemble(f"""
    _start:
        li t0, 50
    loop:
        addi t0, t0, -1
        addi t1, t1, 2
        bnez t0, loop
        {EXIT}
    """))
    executor.run(control_hook=lambda s, e: total.append((e - s) // 4 + 1))
    assert sum(total) == executor.state.retired


def test_profiled_and_plain_execution_agree():
    source = f"""
    _start:
        li t0, 0
        li t1, 20
    loop:
        add t0, t0, t1
        addi t1, t1, -1
        bnez t1, loop
        mv a0, t0
        {EXIT}
    """
    plain = Executor(assemble(source))
    plain.run_to_completion()
    profiled = Executor(assemble(source))
    profiled.run(control_hook=lambda s, e: None)
    assert plain.state.x == profiled.state.x
    assert plain.state.retired == profiled.state.retired


def test_compiled_memory_ops_take_the_direct_path(monkeypatch):
    """On a touched page a compiled load or store never reaches its
    handler; a first-touch or page-crossing access does."""
    from repro.sim import semantics

    calls = []
    for mnemonic in ("ld", "lw", "lbu", "sd", "sw", "sb", "fld", "fsd"):
        handler = semantics.SEMANTICS[mnemonic]

        def counted(s, i, handler=handler):
            calls.append(i.mnemonic)
            return handler(s, i)

        monkeypatch.setitem(semantics.SEMANTICS, mnemonic, counted)
    state = run(f"""
    .data
    buf: .space 64
    .text
    _start:
        la t0, buf
        li t1, 50
    loop:
        sd t1, 0(t0)
        ld t2, 0(t0)
        sw t2, 8(t0)
        lw t3, 8(t0)
        sb t3, 16(t0)
        lbu t4, 16(t0)
        fld ft0, 0(t0)
        fsd ft0, 24(t0)
        addi t1, t1, -1
        bnez t1, loop
        li t5, {STACK_TOP + 4094}
        sd t4, 0(t5)
        mv a0, t4
        {EXIT}
    """)
    assert state.exit_code == 1
    assert calls == ["sd"]  # the store crossing into an untouched page
