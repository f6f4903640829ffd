"""Fig. 8: per-slot integer-issue-queue power, dijkstra vs sha, MegaBOOM.

Shape targets: all 40 slots report power; in dijkstra essentially every
slot is warm (high occupancy), while sha concentrates its power in the
leading slots — and dijkstra's total exceeds sha's despite its lower IPC
(Key Takeaway #4).
"""

from repro.analysis.figures import fig8_issue_slots
from repro.flow.report import ReportInputs, SECTIONS


def test_fig8_issue_slot_power(benchmark, runner, sweep_results):
    slots = benchmark(fig8_issue_slots, sweep_results)
    print("\n" + SECTIONS["fig8"](
        ReportInputs(runner, results=sweep_results)))
    dijkstra = slots["dijkstra"]
    sha = slots["sha"]
    assert len(dijkstra) == len(sha) == 40
    # dijkstra: high occupancy lights up (almost) every slot.
    warm_dijkstra = sum(1 for v in dijkstra if v > 0.5 * max(dijkstra))
    warm_sha = sum(1 for v in sha if v > 0.5 * max(sha))
    assert warm_dijkstra >= 35
    assert warm_sha <= 25
    assert warm_dijkstra > warm_sha
    # Totals: occupancy beats IPC as the power driver.
    assert sum(dijkstra) > sum(sha)
    ipc_d = sweep_results[("dijkstra", "MegaBOOM")].ipc
    ipc_s = sweep_results[("sha", "MegaBOOM")].ipc
    assert ipc_d < ipc_s
    # Collapsing queue: power concentrates toward the head for sha.
    assert sha[0] > sha[-1]
