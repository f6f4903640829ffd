"""Ablation (Key Takeaway #7): TAGE vs gshare branch predictor power.

The paper compares its TAGE results against the predecessor study's
gshare [14]: TAGE consumes ~2.5x more power on average across the three
configurations.  This bench runs the full sweep with both predictors and
reproduces the comparison, plus the accuracy side of the trade-off
(TAGE must not mispredict more than gshare).
"""

from statistics import mean

from repro.analysis.takeaways import check_takeaway_7
from repro.uarch.config import config_by_name
from repro.workloads.suite import workload_names


def _gshare_name(config_name):
    """The ablation's name: it carries a content hash of the config."""
    return config_by_name(config_name).with_predictor("gshare").name


def _bp_average(results, config_name):
    return mean(results[(w, config_name)].component_mw("branch_predictor")
                for w in workload_names())


def test_tage_vs_gshare_power(benchmark, sweep_results, gshare_results):
    check = benchmark(check_takeaway_7, sweep_results, gshare_results)
    print("\n=== Ablation: TAGE vs gshare branch predictor ===")
    ratios = []
    for config in ("MediumBOOM", "LargeBOOM", "MegaBOOM"):
        tage = _bp_average(sweep_results, config)
        gshare = _bp_average(gshare_results, _gshare_name(config))
        ratios.append(tage / gshare)
        print(f"{config:<12} TAGE={tage:6.2f} mW  gshare={gshare:6.2f} mW"
              f"  ratio={tage / gshare:.2f}")
    average = mean(ratios)
    print(f"average ratio: {average:.2f} (paper: ~2.5)")
    assert check.passed, check.evidence
    assert 1.6 < average < 4.0


def test_tage_earns_its_power(benchmark, sweep_results, gshare_results):
    """The trade-off's other side: TAGE should not hurt performance."""
    def collect():
        out = {}
        for config in ("MediumBOOM", "LargeBOOM", "MegaBOOM"):
            tage_ipc = mean(sweep_results[(w, config)].ipc
                            for w in workload_names())
            gshare_ipc = mean(gshare_results[(w, _gshare_name(config))].ipc
                              for w in workload_names())
            out[config] = (tage_ipc, gshare_ipc)
        return out

    ipcs = benchmark(collect)
    for config, (tage_ipc, gshare_ipc) in ipcs.items():
        print(f"{config}: TAGE IPC {tage_ipc:.3f} vs gshare "
              f"{gshare_ipc:.3f}")
        assert tage_ipc >= 0.97 * gshare_ipc
