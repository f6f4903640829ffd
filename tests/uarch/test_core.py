"""Integration tests for the BoomCore pipeline."""

import pytest

from repro.isa.assembler import assemble
from repro.sim.executor import Executor
from repro.uarch import ftrace
from repro.uarch.config import LARGE_BOOM, MEDIUM_BOOM, MEGA_BOOM
from repro.uarch.core import BoomCore

EXIT = "li a7, 93\n    ecall"


def run_core(source, config=MEDIUM_BOOM, budget=None):
    program = assemble(source)
    core = BoomCore(config, program)
    core.run(budget)
    return core


def test_retires_program_to_completion():
    core = run_core(f"""
    _start:
        li t0, 0
        li t1, 50
    loop:
        add t0, t0, t1
        addi t1, t1, -1
        bnez t1, loop
        li a0, 0
        {EXIT}
    """)
    reference = Executor(assemble(f"""
    _start:
        li t0, 0
        li t1, 50
    loop:
        add t0, t0, t1
        addi t1, t1, -1
        bnez t1, loop
        li a0, 0
        {EXIT}
    """))
    reference.run_to_completion()
    assert core.retired_total == reference.state.retired
    assert core.frontend.trace.state.exited


def test_architectural_results_match_functional_sim():
    source = f"""
        .data
    out: .space 64
        .text
    _start:
        la  s0, out
        li  t0, 30
        li  t1, 1
    loop:
        mul t1, t1, t0
        remu t1, t1, t0
        addi t1, t1, 7
        sd  t1, 0(s0)
        ld  t2, 0(s0)
        add t3, t3, t2
        addi t0, t0, -1
        bnez t0, loop
        sd  t3, 8(s0)
        li a0, 0
        {EXIT}
    """
    core = run_core(source)
    reference = Executor(assemble(source))
    reference.run_to_completion()
    assert core.frontend.trace.state.x == reference.state.x


def test_ipc_bounded_by_decode_width():
    high_ilp = "\n".join(
        f"    addi t{1 + i % 3}, t{1 + i % 3}, 1" for i in range(600))
    source = f"_start:\n{high_ilp}\n    li a0, 0\n    {EXIT}"
    for config in (MEDIUM_BOOM, LARGE_BOOM, MEGA_BOOM):
        core = run_core(source, config)
        assert core.stats.ipc <= config.decode_width + 1e-9


def test_independent_chains_scale_with_width():
    """Four independent chains: wider cores reach higher IPC.

    The chains live in a loop so the I-cache stays warm and the backend
    width is the only limiter (measured after a warm-up window).
    """
    body = ["_start:", "    li t0, 2000", "loop:"]
    for _ in range(4):
        body.append("    addi t1, t1, 1")
        body.append("    addi t2, t2, 1")
        body.append("    addi t3, t3, 1")
        body.append("    addi t4, t4, 1")
    body += ["    addi t0, t0, -1", "    bnez t0, loop",
             "    li a0, 0", f"    {EXIT}"]
    source = "\n".join(body)

    def measured_ipc(config):
        program = assemble(source)
        core = BoomCore(config, program)
        core.run(2000)
        stats = core.begin_measurement()
        core.run(10000)
        return stats.ipc

    medium = measured_ipc(MEDIUM_BOOM)
    mega = measured_ipc(MEGA_BOOM)
    assert mega > 1.5 * medium


def test_serial_dependency_chain_limits_ipc():
    chain = "\n".join("    addi t1, t1, 1" for _ in range(500))
    source = f"_start:\n{chain}\n    li a0, 0\n    {EXIT}"
    core = run_core(source, MEGA_BOOM)
    assert core.stats.ipc < 1.3  # one dependent add per cycle


def test_div_latency_slows_dependent_chain():
    divs = "\n".join("    divu t1, t1, t2" for _ in range(50))
    source = f"_start:\n    li t1, -1\n    li t2, 3\n{divs}\n    li a0, 0\n    {EXIT}"
    core = run_core(source, MEGA_BOOM)
    assert core.stats.ipc < 0.15  # ~16 cycles per dependent divide


def test_load_use_latency():
    source = f"""
        .data
    cell: .dword 5
        .text
    _start:
        la t0, cell
        li t2, 200
    loop:
        ld  t1, 0(t0)
        sd  t1, 0(t0)
        addi t2, t2, -1
        bnez t2, loop
        li a0, 0
        {EXIT}
    """
    core = run_core(source)
    # The in-flight store forwards to the same-address load almost always.
    assert core.stats.lsu.forwards > 150
    assert core.stats.lsu.cam_searches > 150
    assert core.stats.dcache.writes == 200  # stores still drain at commit


def test_mispredict_penalty_reduces_ipc():
    # Data-dependent branches on a pseudo-random sequence.
    source = f"""
    _start:
        li t0, 400
        li t1, 0x9E3779B9
    loop:
        slli t2, t1, 13
        xor  t1, t1, t2
        srli t2, t1, 7
        xor  t1, t1, t2
        andi t3, t1, 1
        beqz t3, skip
        addi t4, t4, 1
    skip:
        addi t0, t0, -1
        bnez t0, loop
        li a0, 0
        {EXIT}
    """
    core = run_core(source, MEGA_BOOM)
    assert core.stats.predictor.mispredicts > 50
    assert core.stats.ipc < 2.5


def test_budget_stops_run():
    source = f"""
    _start:
        li t0, 100000
    loop:
        addi t0, t0, -1
        bnez t0, loop
        {EXIT}
    """
    program = assemble(source)
    core = BoomCore(MEDIUM_BOOM, program)
    retired = core.run(500)
    assert 500 <= retired <= 500 + MEDIUM_BOOM.commit_width
    more = core.run(500)
    assert more >= 500


def test_begin_measurement_resets_counters_keeps_state():
    source = f"""
    _start:
        li t0, 4000
    loop:
        addi t0, t0, -1
        xor  t1, t1, t0
        bnez t0, loop
        li a0, 0
        {EXIT}
    """
    program = assemble(source)
    core = BoomCore(MEDIUM_BOOM, program)
    core.run(2000)
    warm_misses = core.stats.icache.misses
    stats = core.begin_measurement()
    core.run(2000)
    assert stats.retired >= 2000
    assert stats.cycles > 0
    # warm structures: the measured window re-misses almost nothing
    assert stats.icache.misses < max(4, warm_misses)
    assert core.stats is stats


def test_fp_program_exercises_fp_structures():
    source = f"""
        .data
    vals: .double 1.5, 2.5, 3.5, 4.5
        .text
    _start:
        la t0, vals
        li t1, 100
    loop:
        fld fa0, 0(t0)
        fld fa1, 8(t0)
        fmul.d fa2, fa0, fa1
        fadd.d fa3, fa3, fa2
        fsd fa3, 16(t0)
        addi t1, t1, -1
        bnez t1, loop
        li a0, 0
        {EXIT}
    """
    core = run_core(source)
    stats = core.stats
    assert stats.fp_iq.issues > 150
    assert stats.fp_regfile.writes > 150
    assert stats.execute.fp_mul_ops > 90
    assert stats.fp_rename.freelist_allocs > 150


def test_branches_snapshot_fp_rename_even_without_fp():
    """Key Takeaway #3 at the core level."""
    source = f"""
    _start:
        li t0, 200
    loop:
        addi t0, t0, -1
        bnez t0, loop
        li a0, 0
        {EXIT}
    """
    core = run_core(source)
    assert core.stats.execute.fp_alu_ops == 0
    assert core.stats.fp_rename.snapshots > 150


def test_stores_write_dcache_at_commit():
    source = f"""
        .data
    buf: .space 512
        .text
    _start:
        la t0, buf
        li t1, 60
    loop:
        sd t1, 0(t0)
        addi t0, t0, 8
        addi t1, t1, -1
        bnez t1, loop
        li a0, 0
        {EXIT}
    """
    core = run_core(source)
    assert core.stats.dcache.writes == 60


def test_per_slot_occupancy_collected():
    source = f"""
        .data
    cell: .dword 1
        .text
    _start:
        la t0, cell
        li t1, 120
    loop:
        ld  t2, 0(t0)
        add t3, t3, t2
        add t4, t4, t3
        add t5, t5, t4
        addi t1, t1, -1
        bnez t1, loop
        li a0, 0
        {EXIT}
    """
    core = run_core(source)
    slots = core.stats.int_iq.slot_occupancy
    assert sum(slots) == core.stats.int_iq.occupancy
    # occupancy is front-loaded in a collapsing queue
    assert slots[0] >= slots[len(slots) // 2]


def test_owned_trace_keeps_a_bounded_window():
    """A core that records its own trace drops what fetch has consumed:
    the trace never holds more than one extension step plus a fetch
    group, however long the run."""
    source = f"""
    _start:
        li t0, 8000
    loop:
        addi t1, t1, 3
        xor t2, t2, t1
        addi t0, t0, -1
        bnez t0, loop
        li a0, 0
        {EXIT}
    """
    core = BoomCore(MEDIUM_BOOM, assemble(source))
    lengths = []
    core.run(observers=[lambda retired, cycles: lengths.append(
        len(core.frontend.trace.entries))])
    lengths.append(len(core.frontend.trace.entries))
    assert core.retired_total > 32_000
    assert len(lengths) >= 3
    assert max(lengths) <= ftrace._STEP + MEDIUM_BOOM.fetch_width


def test_stats_to_dict_equals_asdict_and_is_detached():
    """``CoreStats.to_dict`` walks the tree shallowly: its output equals
    ``dataclasses.asdict`` (field order included) and shares no list or
    dict with the live counters."""
    import json
    from dataclasses import asdict

    from tests.uarch.test_differential import generate_program

    core = run_core(generate_program(5))
    stats = core.stats
    plain = stats.to_dict()
    assert plain == asdict(stats)
    assert json.dumps(plain) == json.dumps(asdict(stats))
    assert plain["int_iq"]["slot_writes"] and \
        plain["accounting"]["dispatch_by_trace"]
    snapshot = json.dumps(plain)
    # Grow every live list and dict: the copy must not move.
    for queue in (stats.int_iq, stats.mem_iq, stats.fp_iq):
        queue.slot_writes[0] += 1
        queue.slot_occupancy[0] += 1
    stats.retired_by_class["ALU"] += 1
    stats.accounting.dispatch_by_trace["0x0"] = 1
    stats.frontend.icache_accesses += 1
    assert json.dumps(plain) == snapshot
    assert plain != stats.to_dict()
