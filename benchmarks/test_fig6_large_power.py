"""Fig. 6: per-component power across workloads, LargeBOOM.

Shape targets: the branch predictor approaches its MegaBOOM power
(identical BTB/TAGE structures, §IV-B); the FP register file stays tiny
(ports not yet doubled); the L1I matches MegaBOOM's (same geometry).
"""

from statistics import mean

from benchmarks.conftest import PAPER_COMPONENT_MW
from repro.analysis.figures import component_power_series
from repro.flow.report import ReportInputs, SECTIONS
from repro.power.area import ANALYZED_COMPONENTS
from repro.workloads.suite import workload_names

CONFIG = "LargeBOOM"


def test_fig6_large_power(benchmark, runner, sweep_results):
    series = benchmark(component_power_series, sweep_results, CONFIG)
    print("\n" + SECTIONS["fig5-7"](
        ReportInputs(runner, results=sweep_results)))
    paper = PAPER_COMPONENT_MW[CONFIG]
    averages = {name: mean(series[w][name] for w in workload_names())
                for name in ANALYZED_COMPONENTS}
    mega = {name: mean(sweep_results[(w, "MegaBOOM")].component_mw(name)
                       for w in workload_names())
            for name in ANALYZED_COMPONENTS}
    assert max(averages, key=averages.get) == "branch_predictor"
    # Large and Mega branch predictors are similar (same structures).
    assert 0.7 < averages["branch_predictor"] / mega["branch_predictor"] \
        < 1.1
    # The L1I power is close to MegaBOOM's (identical caches).
    assert 0.7 < averages["icache"] / mega["icache"] < 1.2
    # The FP RF jump has not happened yet at 4R/2W.
    assert averages["fp_regfile"] < 0.35 * mega["fp_regfile"]
    for name in ANALYZED_COMPONENTS:
        ratio = averages[name] / paper[name]
        assert 0.4 < ratio < 2.5, f"{name}: {ratio:.2f}x paper"
