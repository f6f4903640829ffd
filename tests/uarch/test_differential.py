"""Differential testing: the detailed core vs. the functional simulator.

The BoomCore's trace-replaying frontend must retire exactly the same
architectural stream as the plain functional executor — for any program.
These tests generate random (but terminating) programs spanning ALU, M,
memory, FP, and forward-branch behaviour and assert end-state equality
on all three configurations, and that the two core loops (the fused
loop a plain core runs, the generic loop a retire log selects) give
identical cycle counts and stats dicts, after a warm-up through either
``run`` or ``warm_up``.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.sim.executor import Executor
from repro.uarch.config import ALL_CONFIGS, LARGE_BOOM, MEDIUM_BOOM, \
    MEGA_BOOM
from repro.uarch.core import BoomCore
from repro.workloads.data import Xorshift64Star

def fp_regs_equal(a: list, b: list) -> bool:
    """Bitwise FP register comparison (NaN == NaN when patterns match)."""
    import struct

    return [struct.pack("<d", v) for v in a] == \
        [struct.pack("<d", v) for v in b]


_INT_REGS = ["t0", "t1", "t2", "t3", "t4", "s2", "s3", "s4"]
_FP_REGS = ["ft0", "ft1", "ft2", "fa0", "fa1"]
_ALU_OPS = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra",
            "slt", "sltu", "mul", "mulh", "addw", "subw"]
_DIV_OPS = ["div", "divu", "rem", "remu"]
_FP_OPS = ["fadd.d", "fsub.d", "fmul.d", "fmin.d", "fmax.d"]


def generate_program(seed: int, body_ops: int = 60,
                     iterations: int = 12) -> str:
    """A random, terminating program: init, loop with a mixed body, exit."""
    rng = Xorshift64Star(seed + 1)
    lines = ["    .data", "buf:", "    .space 512", "    .text", "_start:",
             "    la   s10, buf"]
    for index, reg in enumerate(_INT_REGS):
        lines.append(f"    li   {reg}, {rng.next_u64() % 100_000}")
    for index, reg in enumerate(_FP_REGS):
        lines.append(f"    li   s5, {rng.next_below(1000) + 1}")
        lines.append(f"    fcvt.d.l {reg}, s5")
    lines += [f"    li   s0, {iterations}", "loop:"]
    skip_label = 0
    pending_skip: int | None = None
    for position in range(body_ops):
        if pending_skip is not None:
            pending_skip -= 1
            if pending_skip == 0:
                lines.append(f"skip{skip_label}:")
                skip_label += 1
                pending_skip = None
        choice = rng.next_below(100)
        a, b, c = (_INT_REGS[rng.next_below(len(_INT_REGS))]
                   for _ in range(3))
        if choice < 55:
            op = _ALU_OPS[rng.next_below(len(_ALU_OPS))]
            lines.append(f"    {op}  {a}, {b}, {c}")
        elif choice < 62:
            op = _DIV_OPS[rng.next_below(len(_DIV_OPS))]
            lines.append(f"    {op}  {a}, {b}, {c}")
        elif choice < 72:
            offset = 8 * rng.next_below(64)
            lines.append(f"    sd   {b}, {offset}(s10)")
        elif choice < 82:
            offset = 8 * rng.next_below(64)
            lines.append(f"    ld   {a}, {offset}(s10)")
        elif choice < 92:
            f1, f2, f3 = (_FP_REGS[rng.next_below(len(_FP_REGS))]
                          for _ in range(3))
            op = _FP_OPS[rng.next_below(len(_FP_OPS))]
            lines.append(f"    {op} {f1}, {f2}, {f3}")
        elif pending_skip is None and position < body_ops - 4:
            # A data-dependent forward branch over the next few ops.
            distance = 1 + rng.next_below(3)
            lines.append(f"    bltu {a}, {b}, skip{skip_label}")
            pending_skip = distance
    if pending_skip is not None:
        lines.append(f"skip{skip_label}:")
    lines += [
        "    addi s0, s0, -1",
        "    bnez s0, loop",
        "    li   a0, 0",
        "    li   a7, 93",
        "    ecall",
    ]
    return "\n".join(lines)


def run_both(source: str, config):
    program = assemble(source)
    reference = Executor(program)
    reference.run_to_completion()
    core = BoomCore(config, assemble(source))
    core.run()
    return reference.state, core.frontend.trace.state, core


_SEEDS = [1, 2, 3, 17, 99]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_random_programs_agree(seed, config):
    source = generate_program(seed)
    reference, detailed, core = run_both(source, config)
    assert detailed.exited
    assert detailed.x == reference.x
    assert fp_regs_equal(detailed.f, reference.f)
    assert core.retired_total == reference.retired


_LOOP_WARMUP = 300  # of the ~750 instructions each random program runs


def assert_both_core_loops_agree(seed, config, warm: str) -> None:
    """``warm`` (``run`` or ``warm_up``) the first ``_LOOP_WARMUP``
    instructions, then run to the end: both loops give the same cycle
    counts, retire logs ``(seq, pc, commit cycle)`` and measured stats;
    after a ``run`` warm-up, whose stats are complete on both loops, the
    warm-up's stats agree too."""
    program = assemble(generate_program(seed))
    runs = []
    for fused in (True, False):
        core = BoomCore(config, program)
        core._fused = fused
        core.retire_log = []
        getattr(core, warm)(_LOOP_WARMUP)
        warm_stats = core.stats.to_dict() if warm == "run" else None
        warm_cycles = core.cycle
        stats = core.begin_measurement()
        core.run()
        retired = [(uop.seq, uop.instr.pc, cycle)
                   for uop, cycle in core.retire_log]
        runs.append((warm_cycles, core.cycle, core.retired_total, retired,
                     json.dumps(warm_stats, sort_keys=True),
                     json.dumps(stats.to_dict(), sort_keys=True)))
    assert len(runs[0][3]) == runs[0][2]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_random_programs_agree_on_both_core_loops(seed, config):
    assert_both_core_loops_agree(seed, config, "run")


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_random_programs_agree_on_both_core_loops_after_warm_up(seed,
                                                                config):
    assert_both_core_loops_agree(seed, config, "warm_up")


@pytest.mark.parametrize("attr", ["branches_in_flight", "fp_in_flight"])
@pytest.mark.parametrize("fused", [True, False], ids=["fused", "generic"])
def test_observer_writes_stick_on_both_loops(fused, attr):
    """A value an observer writes is the one either loop goes on with:
    one added at the first stride is still there when the run ends."""
    core = BoomCore(MEDIUM_BOOM, assemble(
        generate_program(41, body_ops=80, iterations=60)))
    core._fused = fused
    strides = []

    def bump():
        if not strides:
            setattr(core, attr, getattr(core, attr) + 1)
        strides.append(core.cycle)

    core.run(observers=[bump])
    assert strides
    assert getattr(core, attr) == 1


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_memory_state_agrees(config):
    source = generate_program(7, body_ops=80, iterations=20)
    reference, detailed, _ = run_both(source, config)
    assert reference.memory.snapshot_pages() == \
        detailed.memory.snapshot_pages()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_programs_agree_property(seed):
    source = generate_program(seed, body_ops=40, iterations=6)
    reference, detailed, core = run_both(source, MEDIUM_BOOM)
    assert detailed.x == reference.x
    assert fp_regs_equal(detailed.f, reference.f)
    assert core.retired_total == reference.retired


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_ipc_sane_on_random_programs(seed):
    source = generate_program(seed, body_ops=40, iterations=6)
    _, _, core = run_both(source, MEGA_BOOM)
    assert 0.05 < core.stats.ipc <= MEGA_BOOM.decode_width


def test_wider_configs_never_slower_on_random_programs():
    for seed in (11, 22, 33):
        source = generate_program(seed)
        cycles = {}
        for config in (MEDIUM_BOOM, LARGE_BOOM, MEGA_BOOM):
            _, _, core = run_both(source, config)
            cycles[config.name] = core.cycle
        assert cycles["MegaBOOM"] <= cycles["MediumBOOM"] * 1.05
