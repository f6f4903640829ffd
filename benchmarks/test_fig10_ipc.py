"""Fig. 10: IPC per benchmark for all three configurations.

Shape targets from §IV-D: tarfind has the lowest IPC everywhere; sha the
highest, approaching each design's decode width (paper: 1.83 / 2.6 / 3.5
on widths 2 / 3 / 4); IPC never exceeds the width; wider machines are
never slower.
"""

from repro.analysis.figures import fig10_ipc
from repro.flow.report import ReportInputs, SECTIONS
from repro.workloads.suite import workload_names

PAPER_SHA_IPC = {"MediumBOOM": 1.83, "LargeBOOM": 2.6, "MegaBOOM": 3.5}
WIDTH = {"MediumBOOM": 2, "LargeBOOM": 3, "MegaBOOM": 4}


def test_fig10_ipc(benchmark, runner, sweep_results):
    series = benchmark(fig10_ipc, sweep_results)
    print("\n" + SECTIONS["fig10"](
        ReportInputs(runner, results=sweep_results)))
    for config, ipcs in series.items():
        # sha is the suite maximum, tarfind the minimum (paper §IV-D).
        assert max(ipcs, key=ipcs.get) == "sha", config
        assert min(ipcs, key=ipcs.get) == "tarfind", config
        # sha approaches but never exceeds the decode width.
        assert 0.75 * WIDTH[config] <= ipcs["sha"] <= WIDTH[config]
        print(f"{config}: sha IPC {ipcs['sha']:.2f} "
              f"(paper {PAPER_SHA_IPC[config]})")
        # No benchmark exceeds the machine width.
        assert all(value <= WIDTH[config] + 1e-9 for value in ipcs.values())
    # Wider configurations are never slower on any benchmark.
    for workload in workload_names():
        assert series["MediumBOOM"][workload] <= \
            series["LargeBOOM"][workload] + 0.02
        assert series["LargeBOOM"][workload] <= \
            series["MegaBOOM"][workload] + 0.02
