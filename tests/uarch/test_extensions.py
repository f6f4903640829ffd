"""Tests for the future-work extensions: ring issue queues and lazy FP
rename snapshots (the optimizations Key Takeaways #3 and #5 propose)."""

import pytest

from repro.errors import ConfigError
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction
from repro.sim.executor import Executor
from repro.uarch.config import MEDIUM_BOOM, MEGA_BOOM
from repro.uarch.core import BoomCore
from repro.uarch.issue import make_issue_queue, RingIssueQueue
from repro.uarch.stats import IssueQueueStats
from repro.uarch.uop import Uop

EXIT = "li a7, 93\n    ecall"

INT_LOOP = f"""
_start:
    li t0, 2000
loop:
    addi t0, t0, -1
    xor  t1, t1, t0
    add  t2, t2, t1
    bnez t0, loop
    li a0, 0
    {EXIT}
"""


class TestRingQueue:
    def make(self, entries=4):
        return RingIssueQueue("int", entries, IssueQueueStats())

    def make_uop(self, seq):
        return Uop(seq, Instruction("add", rd=1, rs1=2, rs2=3))

    def test_insert_fills_free_slots(self):
        queue = self.make()
        queue.insert(self.make_uop(0))
        queue.insert(self.make_uop(1))
        assert len(queue) == 2
        assert queue.stats.slot_writes[0] == 1
        assert queue.stats.slot_writes[1] == 1

    def test_no_shifts_ever(self):
        queue = self.make()
        for seq in range(4):
            queue.insert(self.make_uop(seq))
        queue.select(0, 4, lambda u, c: u.seq == 1)
        assert queue.stats.shifts == 0
        assert len(queue) == 3

    def test_holes_reused(self):
        queue = self.make(entries=2)
        queue.insert(self.make_uop(0))
        queue.insert(self.make_uop(1))
        queue.select(0, 1, lambda u, c: u.seq == 0)
        assert queue.has_space()
        queue.insert(self.make_uop(2))
        # Slot 0 (the hole) was reused.
        assert queue.stats.slot_writes[0] == 2

    def test_oldest_first_across_holes(self):
        queue = self.make()
        for seq in (5, 1, 9, 3):
            queue.insert(self.make_uop(seq))
        issued = queue.select(0, 2, lambda u, c: True)
        assert [u.seq for u in issued] == [1, 3]

    def test_full_insert_raises(self):
        queue = self.make(entries=1)
        queue.insert(self.make_uop(0))
        with pytest.raises(IndexError):
            queue.insert(self.make_uop(1))

    def test_factory(self):
        from repro.uarch.issue import IssueQueue

        assert isinstance(make_issue_queue("ring", "int", 4,
                                           IssueQueueStats()),
                          RingIssueQueue)
        assert isinstance(make_issue_queue("collapsing", "int", 4,
                                           IssueQueueStats()),
                          IssueQueue)

    def test_invalid_kind_rejected_by_config(self):
        import dataclasses

        with pytest.raises(ConfigError):
            dataclasses.replace(MEGA_BOOM, issue_queue_kind="fifo")


class TestRingCore:
    def test_architectural_equivalence(self):
        """Both queue designs retire the same architectural stream."""
        reference = Executor(assemble(INT_LOOP))
        reference.run_to_completion()
        ring_config = MEGA_BOOM.with_issue_queues("ring")
        core = BoomCore(ring_config, assemble(INT_LOOP))
        core.run()
        assert core.frontend.trace.state.x == reference.state.x

    def test_same_ipc_no_shift_stats(self):
        collapsing = BoomCore(MEGA_BOOM, assemble(INT_LOOP))
        collapsing.run()
        ring = BoomCore(MEGA_BOOM.with_issue_queues("ring"),
                        assemble(INT_LOOP))
        ring.run()
        # Oldest-first selection either way: IPC within a whisker.
        assert ring.stats.ipc == pytest.approx(collapsing.stats.ipc,
                                               rel=0.05)
        assert ring.stats.int_iq.shifts == 0
        assert collapsing.stats.int_iq.shifts > 0


class TestLazyFpSnapshots:
    def test_int_code_skips_fp_snapshots(self):
        config = MEDIUM_BOOM.with_lazy_fp_snapshots()
        core = BoomCore(config, assemble(INT_LOOP))
        core.run()
        assert core.stats.fp_rename.snapshots == 0
        assert core.stats.int_rename.snapshots > 400

    def test_fp_code_still_snapshots(self):
        source = f"""
            .data
        vals: .double 1.0, 2.0
            .text
        _start:
            la t0, vals
            li t1, 300
        loop:
            fld fa0, 0(t0)
            fadd.d fa1, fa1, fa0
            addi t1, t1, -1
            bnez t1, loop
            li a0, 0
            {EXIT}
        """
        config = MEDIUM_BOOM.with_lazy_fp_snapshots()
        core = BoomCore(config, assemble(source))
        core.run()
        assert core.stats.fp_rename.snapshots > 200

    def test_default_config_always_snapshots(self):
        core = BoomCore(MEDIUM_BOOM, assemble(INT_LOOP))
        core.run()
        assert core.stats.fp_rename.snapshots == \
            core.stats.int_rename.snapshots

    def test_architectural_equivalence(self):
        reference = Executor(assemble(INT_LOOP))
        reference.run_to_completion()
        core = BoomCore(MEDIUM_BOOM.with_lazy_fp_snapshots(),
                        assemble(INT_LOOP))
        core.run()
        assert core.frontend.trace.state.x == reference.state.x
