"""Unit tests for the fetch unit (trace-replaying frontend)."""

from repro.isa.assembler import assemble
from repro.sim.state import ArchState
from repro.uarch.bpu import BranchPredictionUnit
from repro.uarch.cache import L1Cache
from repro.uarch.config import MEDIUM_BOOM
from repro.uarch.frontend import BTB_BUBBLE, FetchUnit, REDIRECT_PENALTY
from repro.uarch.ftrace import FetchTrace
from repro.uarch.stats import CacheStats, FrontendStats, PredictorStats
from repro.uarch.uop import COMPLETED


def make_frontend(source, config=MEDIUM_BOOM):
    program = assemble(source)
    state = ArchState.for_program(program)
    predictor_stats = PredictorStats()
    bpu = BranchPredictionUnit(config.predictor, predictor_stats)
    icache = L1Cache(config.icache, CacheStats(), hit_latency=1)
    frontend = FetchUnit(config, FetchTrace(program, state), bpu, icache,
                         FrontendStats())
    return frontend


def drain(frontend, cycles=300):
    """Drive the frontend with a trivial backend that resolves branches."""
    fetched = []
    for cycle in range(cycles):
        frontend.cycle(cycle)
        blocker = frontend.blocked_by
        if blocker is not None and blocker.state != COMPLETED:
            blocker.state = COMPLETED
            blocker.complete_cycle = cycle
        while frontend.buffer:
            fetched.append(frontend.buffer.popleft())
        if frontend.exited:
            break
    return fetched


def test_fetches_program_in_order():
    frontend = make_frontend("""
    _start:
        addi a0, a0, 1
        addi a1, a1, 2
        li a7, 93
        ecall
    """)
    fetched = drain(frontend)
    assert [u.instr.mnemonic for u in fetched] == \
        ["addi", "addi", "addi", "ecall"]
    assert [u.seq for u in fetched] == [0, 1, 2, 3]


def test_oracle_annotations_on_memory_ops():
    frontend = make_frontend("""
        .data
    cell: .dword 7
        .text
    _start:
        la t0, cell
        ld t1, 0(t0)
        sd t1, 8(t0)
        li a7, 93
        ecall
    """)
    fetched = drain(frontend)
    load = next(u for u in fetched if u.is_load)
    store = next(u for u in fetched if u.is_store)
    assert load.mem_addr == store.mem_addr - 8
    assert load.mem_addr >= 0x100000  # DATA_BASE region


def test_first_fetch_misses_icache():
    frontend = make_frontend("_start: j _start")
    frontend.cycle(0)
    assert frontend.stats.icache_misses == 1
    assert frontend.stats.fetch_stall_cycles == 1
    assert not frontend.buffer


def test_taken_branch_ends_fetch_group():
    frontend = make_frontend("""
    _start:
        li t0, 8
    loop:
        addi t0, t0, -1
        bnez t0, loop
        li a7, 93
        ecall
    """)
    # Warm the icache and predictor first.
    drain(frontend)


def test_mispredict_blocks_fetch_until_resolution():
    frontend = make_frontend("""
    _start:
        li t0, 1
        beq t0, t0, target     # taken; cold predictor says not-taken
        addi a1, a1, 1
    target:
        li a7, 93
        ecall
    """)
    cycle = 0
    # run until the branch is fetched and blocks the frontend
    while frontend.blocked_by is None and cycle < 100:
        frontend.cycle(cycle)
        cycle += 1
    blocker = frontend.blocked_by
    assert blocker is not None
    assert blocker.mispredicted
    # Frontend stays stalled while the branch is unresolved.
    before = len(frontend.buffer)
    frontend.cycle(cycle)
    assert len(frontend.buffer) == before
    # Resolve the branch; fetch resumes after the redirect penalty.
    blocker.state = COMPLETED
    blocker.complete_cycle = cycle
    resume = cycle + REDIRECT_PENALTY
    frontend.cycle(resume - 1)
    stalled = len(frontend.buffer)
    frontend.cycle(resume + 1)
    assert len(frontend.buffer) > stalled


def test_fetch_buffer_backpressure():
    body = "\n".join("    addi t0, t0, 1" for _ in range(100))
    frontend = make_frontend(f"_start:\n{body}\n    li a7, 93\n    ecall")
    for cycle in range(100):
        frontend.cycle(cycle)
    assert len(frontend.buffer) <= MEDIUM_BOOM.fetch_buffer_entries


def test_fetch_width_respected_per_cycle():
    body = "\n".join("    addi t0, t0, 1" for _ in range(64))
    frontend = make_frontend(f"_start:\n{body}\n    li a7, 93\n    ecall")
    sizes = []
    previous = 0
    for cycle in range(30):
        frontend.cycle(cycle)
        sizes.append(len(frontend.buffer) - previous)
        previous = len(frontend.buffer)
        if len(frontend.buffer) >= MEDIUM_BOOM.fetch_buffer_entries:
            break
    assert max(sizes) <= MEDIUM_BOOM.fetch_width


def test_exit_stops_fetch():
    frontend = make_frontend("_start: li a7, 93\n    ecall")
    drain(frontend)
    assert frontend.exited
    assert frontend.out_of_instructions
    before = frontend.stats.fetch_buffer_writes
    frontend.cycle(999)
    assert frontend.stats.fetch_buffer_writes == before


def test_predictor_looked_up_every_active_cycle():
    frontend = make_frontend("""
    _start:
        li t0, 40
    loop:
        addi t0, t0, -1
        bnez t0, loop
        li a7, 93
        ecall
    """)
    drain(frontend)
    assert frontend.bpu.stats.lookups > 10


def test_redirect_penalty_constant_sane():
    assert 1 <= BTB_BUBBLE <= REDIRECT_PENALTY <= 10
