"""Regression tests for the two bugs this PR fixes.

1. Lazy-FP rename recovery: mispredict resolution used to restore an FP
   allocation-list snapshot that was never taken (under
   ``fp_rename_lazy_snapshots``), charging the power model for phantom
   copies.  The signature was ``restores > snapshots`` — now a checked
   invariant.
2. ``analysis.efficiency.summarize`` used to raise ``KeyError`` on the
   partial result maps a degraded sweep produces.
"""

from dataclasses import dataclass

from repro.analysis.efficiency import summarize
from repro.check.invariants import CoreInvariantChecker
from repro.isa.assembler import assemble
from repro.uarch.config import MEDIUM_BOOM
from repro.uarch.core import BoomCore
from repro.workloads.suite import workload_names

_INT_BRANCHY = """
    .text
_start:
    li   t0, 0
    li   t1, 400
    li   t3, 0
loop:
    andi t2, t0, 3
    beqz t2, skip
    addi t3, t3, 1
skip:
    addi t0, t0, 1
    bltu t0, t1, loop
    li   a0, 0
    li   a7, 93
    ecall
"""


class TestLazyFpRecovery:

    def test_int_only_code_never_restores_fp(self):
        config = MEDIUM_BOOM.with_lazy_fp_snapshots()
        core = BoomCore(config, assemble(_INT_BRANCHY))
        core.run()
        fp = core.rename.fp_unit
        assert fp.total_snapshots == 0
        # Before the fix every mispredict recovery "restored" an FP
        # snapshot that was never taken.
        assert fp.total_restores == 0
        assert core.stats.rob.flushes > 0

    def test_lazy_config_passes_snapshot_invariant(self):
        config = MEDIUM_BOOM.with_lazy_fp_snapshots()
        core = BoomCore(config, assemble(_INT_BRANCHY))
        checker = CoreInvariantChecker(core)
        core.run(observers=[checker])
        checker.check()

    def test_eager_default_still_restores(self):
        core = BoomCore(MEDIUM_BOOM, assemble(_INT_BRANCHY))
        core.run()
        fp = core.rename.fp_unit
        assert fp.total_snapshots > 0
        assert fp.total_restores == core.stats.rob.flushes
        assert fp.total_restores <= fp.total_snapshots


@dataclass
class _FakeResult:
    ipc: float = 2.0
    perf_per_watt: float = 50.0


def _full_map(configs=("MediumBOOM", "LargeBOOM", "MegaBOOM")):
    return {(w, c): _FakeResult() for w in workload_names()
            for c in configs}


class TestSummarizeDegradedSweeps:

    def test_complete_map_has_no_skips(self):
        summary = summarize(_full_map())
        assert summary.skipped == ()
        assert len(summary.winners) == len(workload_names())

    def test_missing_config_skips_workload(self):
        results = _full_map()
        victim = workload_names()[0]
        del results[(victim, "MegaBOOM")]
        summary = summarize(results)  # formerly KeyError
        assert victim in summary.skipped
        assert victim not in summary.winners
        assert len(summary.winners) == len(workload_names()) - 1
        assert victim in summary.format()

    def test_zero_ipc_workload_is_skipped_not_divided(self):
        results = _full_map()
        victim = workload_names()[1]
        results[(victim, "MediumBOOM")] = _FakeResult(ipc=0.0,
                                                      perf_per_watt=0.0)
        summary = summarize(results)  # formerly ZeroDivisionError
        assert victim in summary.skipped

    def test_empty_map_summarizes_to_all_skipped(self):
        summary = summarize({})  # formerly StatisticsError
        assert set(summary.skipped) == set(workload_names())
        assert summary.winners == {}
        summary.format()
