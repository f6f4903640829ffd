"""End-to-end property: checkpoints + the detailed core compose correctly.

Random programs are checkpointed mid-flight; resuming the *detailed* core
from the checkpoint must produce the same final architectural state as
the functional simulator running straight through — the exact composition
the experimental flow relies on.
"""

from hypothesis import given, settings, strategies as st

from repro.checkpoint.checkpoint import Checkpoint
from repro.isa.assembler import assemble
from repro.sim.executor import Executor
from repro.uarch.config import LARGE_BOOM, MEDIUM_BOOM
from repro.uarch.core import BoomCore
from tests.uarch.test_differential import fp_regs_equal, generate_program


def checkpoint_at(source: str, instructions: int) -> Checkpoint:
    executor = Executor(assemble(source))
    executor.run(max_instructions=instructions)
    return Checkpoint.capture(executor.state, workload="fuzz",
                              interval_index=0, weight=1.0,
                              warmup_instructions=0)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=5_000),
       st.integers(min_value=50, max_value=400))
def test_core_resumes_checkpoints_exactly(seed, boundary):
    source = generate_program(seed, body_ops=50, iterations=10)
    reference = Executor(assemble(source))
    reference.run_to_completion()
    boundary = min(boundary, reference.state.retired - 1)

    checkpoint = checkpoint_at(source, boundary)
    core = BoomCore(MEDIUM_BOOM, assemble(source),
                    state=checkpoint.restore())
    core.run()
    assert core.frontend.trace.state.exited
    assert core.frontend.trace.state.x == reference.state.x
    assert fp_regs_equal(core.frontend.trace.state.f, reference.state.f)
    # instructions retired by the core = remainder of the program
    assert core.retired_total == reference.state.retired - boundary


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=5_000))
def test_serialized_checkpoint_resumes_in_core(seed):
    source = generate_program(seed, body_ops=40, iterations=8)
    checkpoint = checkpoint_at(source, 200)
    reloaded = Checkpoint.from_bytes(checkpoint.to_bytes())
    direct = BoomCore(LARGE_BOOM, assemble(source),
                      state=checkpoint.restore())
    direct.run()
    roundtripped = BoomCore(LARGE_BOOM, assemble(source),
                            state=reloaded.restore())
    roundtripped.run()
    assert direct.frontend.trace.state.x == roundtripped.frontend.trace.state.x
    assert direct.cycle == roundtripped.cycle


def test_core_on_already_exited_checkpoint():
    source = "_start: li a0, 0\n    li a7, 93\n    ecall"
    executor = Executor(assemble(source))
    executor.run_to_completion()
    # A core given a terminal state retires nothing and stops cleanly.
    checkpoint = Checkpoint.capture(executor.state, workload="done",
                                    interval_index=0, weight=1.0,
                                    warmup_instructions=0)
    core = BoomCore(MEDIUM_BOOM, assemble(source),
                    state=checkpoint.restore())
    state = core.frontend.trace.state
    state.exited = True  # restore() carries registers; flag re-derived
    assert core.run(100) == 0
