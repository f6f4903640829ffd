"""Differential validation: checkpointed lockstep re-execution."""

import pytest

from repro.check.differential import diff_core_against_reference
from repro.checkpoint.checkpoint import Checkpoint
from repro.errors import DifferentialMismatch
from repro.isa.assembler import assemble
from repro.sim.executor import Executor
from repro.uarch.config import ALL_CONFIGS, MEDIUM_BOOM
from repro.uarch.core import BoomCore

from tests.uarch.test_differential import generate_program


def make_checkpoint(program, at_instruction: int) -> Checkpoint:
    executor = Executor(program)
    executor.run(max_instructions=at_instruction)
    return Checkpoint.capture(executor.state, workload="test",
                              interval_index=0, weight=1.0,
                              warmup_instructions=0)


def run_core(config, program, checkpoint, max_instructions):
    """A detailed core resumed from ``checkpoint`` with its commit log."""
    core = BoomCore(config, program, state=checkpoint.restore())
    core.retire_log = []
    core.run(max_instructions)
    return core


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_clean_run_matches_reference(config):
    program = assemble(generate_program(9))
    checkpoint = make_checkpoint(program, at_instruction=200)
    core = run_core(config, program, checkpoint, max_instructions=500)
    report = diff_core_against_reference(core, program,
                                         checkpoint.restore())
    assert report.ok
    assert report.instructions >= 500
    assert report.commit_pcs_checked >= 500
    assert "OK" in report.format()


def test_run_to_completion_matches_reference():
    program = assemble(generate_program(13, body_ops=40, iterations=6))
    checkpoint = make_checkpoint(program, at_instruction=100)
    # No budget: the core runs until the program exits.
    core = run_core(MEDIUM_BOOM, program, checkpoint, max_instructions=None)
    report = diff_core_against_reference(core, program,
                                         checkpoint.restore())
    assert report.ok


def test_tampered_register_is_caught():
    program = assemble(generate_program(9))
    checkpoint = make_checkpoint(program, at_instruction=200)
    core = run_core(MEDIUM_BOOM, program, checkpoint, max_instructions=500)
    core.frontend.trace.state.x[7] ^= 0xDEAD
    report = diff_core_against_reference(core, program,
                                         checkpoint.restore(),
                                         raise_on_mismatch=False)
    assert not report.ok
    assert "x7" in report.divergence


def test_tampered_memory_is_caught():
    program = assemble(generate_program(9))
    checkpoint = make_checkpoint(program, at_instruction=200)
    core = run_core(MEDIUM_BOOM, program, checkpoint, max_instructions=500)
    state = core.frontend.trace.state
    pages = state.memory.snapshot_pages()
    number = next(iter(pages))
    state.memory.restore_pages({number: b"\xff" * len(pages[number])})
    report = diff_core_against_reference(core, program,
                                         checkpoint.restore(),
                                         raise_on_mismatch=False)
    assert not report.ok
    assert "memory page" in report.divergence


def test_tampered_commit_log_is_caught():
    program = assemble(generate_program(9))
    checkpoint = make_checkpoint(program, at_instruction=200)
    core = run_core(MEDIUM_BOOM, program, checkpoint, max_instructions=500)
    uop, cycle = core.retire_log[10]
    other = core.retire_log[11][0]
    core.retire_log[10] = (other, cycle)
    report = diff_core_against_reference(core, program,
                                         checkpoint.restore(),
                                         raise_on_mismatch=False)
    assert not report.ok
    assert "commit #" in report.divergence


def test_mismatch_raises_by_default():
    program = assemble(generate_program(9))
    checkpoint = make_checkpoint(program, at_instruction=200)
    core = run_core(MEDIUM_BOOM, program, checkpoint, max_instructions=500)
    core.frontend.trace.state.x[7] ^= 0xDEAD
    with pytest.raises(DifferentialMismatch):
        diff_core_against_reference(core, program, checkpoint.restore())
