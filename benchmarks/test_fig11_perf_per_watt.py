"""Fig. 11: performance per watt for all benchmarks and configurations.

Shape targets (paper §IV-E and contribution #5): the smallest design wins
energy efficiency on the clear majority of benchmarks (the paper has
MediumBOOM winning 8 of 11; in this reproduction it wins all 11 — the
scaled workloads expose less ILP, see EXPERIMENTS.md), MegaBOOM never
wins, and MediumBOOM's average advantage over MegaBOOM is large
(paper: +52 %).
"""

from repro.analysis.efficiency import summarize
from repro.analysis.figures import fig11_perf_per_watt
from repro.flow.report import ReportInputs, SECTIONS


def test_fig11_perf_per_watt(benchmark, runner, sweep_results):
    series = benchmark(fig11_perf_per_watt, sweep_results)
    print("\n" + SECTIONS["fig11"](
        ReportInputs(runner, results=sweep_results)))
    summary = summarize(sweep_results)
    print(summary.format())
    # MediumBOOM wins the clear majority (paper: 8/11; ours: 11/11).
    assert summary.medium_wins >= 8
    # MegaBOOM, despite the best absolute performance, never wins.
    assert all(best != "MegaBOOM" for best in summary.winners.values())
    # Medium's average efficiency advantage over Mega is substantial.
    assert summary.perf_per_watt_ratio_medium_over_mega > 1.3
    # Average efficiency is strictly ordered Medium > Large > Mega.
    averages = summary.average_perf_per_watt
    assert averages["MediumBOOM"] > averages["LargeBOOM"] > \
        averages["MegaBOOM"]
