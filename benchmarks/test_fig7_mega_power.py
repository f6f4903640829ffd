"""Fig. 7: per-component power across workloads, MegaBOOM.

This is the calibration anchor (suite averages match the paper to a few
percent) — the bench asserts the workload-level structure on top: the
integer RF peaks on sha; the Integer Issue Unit leads the scheduler
trio; matmult drives the data cache.
"""

from statistics import mean

from benchmarks.conftest import PAPER_COMPONENT_MW
from repro.analysis.figures import component_power_series
from repro.flow.report import ReportInputs, SECTIONS
from repro.power.area import ANALYZED_COMPONENTS
from repro.workloads.suite import workload_names

CONFIG = "MegaBOOM"


def test_fig7_mega_power(benchmark, runner, sweep_results):
    series = benchmark(component_power_series, sweep_results, CONFIG)
    print("\n" + SECTIONS["fig5-7"](
        ReportInputs(runner, results=sweep_results)))
    paper = PAPER_COMPONENT_MW[CONFIG]
    averages = {name: mean(series[w][name] for w in workload_names())
                for name in ANALYZED_COMPONENTS}
    print(f"{'component':<18}{'measured':>10}{'paper':>8}")
    for name in ANALYZED_COMPONENTS:
        print(f"{name:<18}{averages[name]:>10.3f}{paper[name]:>8.2f}")
    # Calibration anchor: every suite average within 10% of the paper.
    for name in ANALYZED_COMPONENTS:
        ratio = averages[name] / paper[name]
        assert 0.9 < ratio < 1.1, f"{name}: {ratio:.2f}x paper"
    # sha has the highest integer-RF power (highest IPC, §IV-B).
    irf = {w: series[w]["int_regfile"] for w in workload_names()}
    assert max(irf, key=irf.get) == "sha"
    # The integer issue unit leads the distributed scheduler trio.
    assert averages["int_issue"] > averages["mem_issue"] > 0
    assert averages["int_issue"] > averages["fp_issue"]
    # matmult tops the data-cache power ranking (§IV-B).
    dcache = {w: series[w]["dcache"] for w in workload_names()}
    assert max(dcache, key=dcache.get) == "matmult"
