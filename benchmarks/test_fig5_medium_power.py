"""Fig. 5: per-component power across workloads, MediumBOOM.

Shape targets from §IV-B: the branch predictor is the largest average
consumer; the integer register file is small (~2 % of the tile); the FP
register file is near zero outside fft/ifft/qsort.
"""

from statistics import mean

from benchmarks.conftest import PAPER_COMPONENT_MW
from repro.analysis.figures import component_power_series
from repro.flow.report import ReportInputs, SECTIONS
from repro.power.area import ANALYZED_COMPONENTS
from repro.workloads.suite import workload_names

CONFIG = "MediumBOOM"


def test_fig5_medium_power(benchmark, runner, sweep_results):
    series = benchmark(component_power_series, sweep_results, CONFIG)
    print("\n" + SECTIONS["fig5-7"](
        ReportInputs(runner, results=sweep_results)))
    paper = PAPER_COMPONENT_MW[CONFIG]
    averages = {name: mean(series[w][name] for w in workload_names())
                for name in ANALYZED_COMPONENTS}
    print(f"{'component':<18}{'measured':>10}{'paper':>8}")
    for name in ANALYZED_COMPONENTS:
        print(f"{name:<18}{averages[name]:>10.3f}{paper[name]:>8.2f}")
    # Shape: branch predictor is the top average consumer.
    assert max(averages, key=averages.get) == "branch_predictor"
    # The integer RF is a minor consumer in the 2-wide design.
    assert averages["int_regfile"] < 0.15 * averages["branch_predictor"]
    # FP RF is near zero outside the FP benchmarks.
    fp_free = mean(series[w]["fp_regfile"] for w in workload_names()
                   if w not in ("fft", "ifft", "qsort"))
    assert fp_free < 0.25
    # Every component's suite average lands within 2x of the paper value
    # (absolute calibration transfers across configurations).
    for name in ANALYZED_COMPONENTS:
        ratio = averages[name] / paper[name]
        assert 0.4 < ratio < 2.5, f"{name}: {ratio:.2f}x paper"
